#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/kernels.hpp"
#include "sort/iterative_quicksort.hpp"
#include "sort/partition.hpp"

namespace kreg::detail {

/// The body of the paper's main device kernel for one thread, shared by the
/// single-device selector (Program 4) and the multi-device selector.
///
/// For observation `obs`: fills the caller-provided distance/Y rows from
/// the full X/Y arrays, sorts them with the iterative quicksort (Y as the
/// auxiliary payload), sweeps the ascending bandwidth grid accumulating the
/// moment sums, writes the two bandwidth-specific sums (self term
/// included), then performs the second bandwidth loop — self-term
/// exclusion, M guard, squared residual — handing each residual to
/// `write(b, value)` so the caller controls the output layout
/// (bandwidth-major, observation-major, sliced, …).
///
/// `HView`/`SumView` abstract the grid and sum containers: raw spans run
/// unchecked, the sanitizer's checked views (spmd::MemView) run with
/// memcheck/initcheck instrumentation. The dist/Y rows stay raw spans —
/// the in-place quicksort needs raw element references — so row storage is
/// outside the checked surface by design.
template <class Scalar, class HView, class SumView, class WriteResid>
inline void sweep_thread(std::span<const Scalar> xs, std::span<const Scalar> ys,
                         HView hs,
                         const SweepPolynomial& poly, std::size_t obs,
                         std::span<Scalar> dist, std::span<Scalar> yrow,
                         SumView sum_y, SumView sum_w,
                         WriteResid&& write) {
  const std::size_t n = xs.size();
  const std::size_t k = hs.size();
  const std::size_t terms = poly.max_power + 1;
  const auto c0 = static_cast<Scalar>(poly.coeff[0]);

  // Fill this thread's rows (paper §IV-B: "Each thread j fills in n values
  // of the abs(X_i − X_j) and Y_i matrices").
  const Scalar xj = xs[obs];
  for (std::size_t l = 0; l < n; ++l) {
    const Scalar d = xs[l] - xj;
    dist[l] = d < Scalar{0} ? -d : d;
    yrow[l] = ys[l];
  }

  // Truncate the sort at the largest grid bandwidth: no h can ever admit a
  // distance beyond hs[k-1], so partition those candidates out first and
  // quicksort only the admissible prefix (Y stays the auxiliary variable).
  const Scalar h_max = hs[k - 1];
  const std::size_t admissible = sort::partition_kv(dist, yrow, h_max);
  sort::iterative_quicksort_kv(dist.first(admissible),
                               yrow.first(admissible));

  // Single sweep over the ascending grid, extending the moment sums with
  // exactly the newly admitted observations per bandwidth.
  Scalar s_m[SweepPolynomial::kMaxPower + 1] = {};
  Scalar t_m[SweepPolynomial::kMaxPower + 1] = {};
  std::size_t p = 0;
  for (std::size_t b = 0; b < k; ++b) {
    const Scalar h = hs[b];
    while (p < admissible && dist[p] <= h) {
      Scalar pw = Scalar{1};
      for (std::size_t m = 0; m < terms; ++m) {
        s_m[m] += pw;
        t_m[m] += yrow[p] * pw;
        pw *= dist[p];
      }
      ++p;
    }
    // Recombine: Σ_m c_m h^(−m) T_m and Σ_m c_m h^(−m) S_m.
    Scalar num = Scalar{0};
    Scalar den = Scalar{0};
    const Scalar inv_h = Scalar{1} / h;
    Scalar inv_pow = Scalar{1};
    for (std::size_t m = 0; m < terms; ++m) {
      const auto c = static_cast<Scalar>(poly.coeff[m]);
      if (c != Scalar{0}) {
        num += c * t_m[m] * inv_pow;
        den += c * s_m[m] * inv_pow;
      }
      inv_pow *= inv_h;
    }
    sum_y[b] = num;
    sum_w[b] = den;
  }

  // Second bandwidth loop: exclude the observation's own K(0) = c0 term,
  // apply M(X_j), and emit squared residuals.
  const Scalar yj = ys[obs];
  for (std::size_t b = 0; b < k; ++b) {
    const Scalar den = sum_w[b] - c0;
    Scalar sq = Scalar{0};
    if (den > Scalar{0}) {
      const Scalar e = yj - (sum_y[b] - c0 * yj) / den;
      sq = e * e;
    }
    write(b, sq);
  }
}

/// The window-sweep variant of the per-thread kernel body: instead of
/// filling and quicksorting a private distance row, the thread indexes into
/// the *globally sorted* X/Y arrays (sorted once, on the host, before
/// launch). Because X is sorted, the neighbours of observation `pos` within
/// any bandwidth h form a contiguous window around `pos`, and as h ascends
/// the window only grows — so a left and a right pointer, each monotone,
/// enumerate exactly the newly admitted observations per bandwidth.
///
/// Per observation this costs O(k + admitted) with O(1) extra memory: no
/// O(n) private row, no per-row O(n log n) sort. Across n observations the
/// whole grid search is O(n log n) for the one global sort plus
/// O(n·(k + admitted)) for the sweeps, versus O(n² log n) for the per-row
/// paths — and the device variant's global-memory footprint drops from the
/// two n×n matrices to the O(n) sorted arrays, lifting the paper's §IV-A
/// n ≤ 20,000 allocation limit without streaming.
///
/// The self term (distance 0) is seeded into the moment sums up front and
/// subtracted analytically in the recombination, exactly as in the per-row
/// paths; M(X_pos) = 0 cases emit a 0 residual. `write(b, sq)` receives the
/// squared LOO residual for every bandwidth index b in ascending order.
///
/// The body is split so the grid can be *streamed in k-blocks*: the window
/// state — the two pointers plus the moment sums — is externalized into
/// caller storage, `window_sweep_seed` initializes it once, and
/// `window_sweep_resume` sweeps any contiguous ascending slice of the grid
/// continuing from where the previous slice stopped. Because each slice
/// performs exactly the admissions and recombinations the full-grid sweep
/// would, a streamed profile matches the resident profile bitwise.

/// Seeds one observation's window state: pointers collapsed onto `pos`,
/// moment sums holding only the self term (1 into S_0, Y_pos into T_0).
/// `s_m`/`t_m` must each hold poly.max_power + 1 elements.
template <class Scalar>
inline void window_sweep_seed(std::span<const Scalar> ys_sorted,
                              std::size_t pos, std::size_t& lo,
                              std::size_t& hi, std::span<Scalar> s_m,
                              std::span<Scalar> t_m) {
  lo = hi = pos;
  std::fill(s_m.begin(), s_m.end(), Scalar{});
  std::fill(t_m.begin(), t_m.end(), Scalar{});
  s_m[0] = Scalar{1};
  t_m[0] = ys_sorted[pos];
}

/// Sweeps `hs` — the full grid, or one ascending k-block slice of it —
/// resuming from the carried window state. `write(b, sq)` receives the
/// squared LOO residual for every index b *within the slice*.
template <class Scalar, class HView, class WriteResid>
inline void window_sweep_resume(std::span<const Scalar> xs_sorted,
                                std::span<const Scalar> ys_sorted,
                                HView hs,
                                const SweepPolynomial& poly, std::size_t pos,
                                std::size_t& lo, std::size_t& hi,
                                std::span<Scalar> s_m, std::span<Scalar> t_m,
                                WriteResid&& write) {
  const std::size_t n = xs_sorted.size();
  const std::size_t k = hs.size();
  const std::size_t terms = poly.max_power + 1;
  const Scalar xi = xs_sorted[pos];
  const Scalar yi = ys_sorted[pos];

  const auto admit = [&](std::size_t l) {
    const Scalar d = xs_sorted[l] < xi ? xi - xs_sorted[l] : xs_sorted[l] - xi;
    const Scalar yl = ys_sorted[l];
    Scalar pw = Scalar{1};
    for (std::size_t m = 0; m < terms; ++m) {
      s_m[m] += pw;
      t_m[m] += yl * pw;
      pw *= d;
    }
  };

  for (std::size_t b = 0; b < k; ++b) {
    const Scalar h = hs[b];
    while (lo > 0 && xi - xs_sorted[lo - 1] <= h) {
      admit(--lo);
    }
    while (hi + 1 < n && xs_sorted[hi + 1] - xi <= h) {
      admit(++hi);
    }

    // Recombine: Σ_m c_m h^(−m) T_m over Σ_m c_m h^(−m) S_m, self excluded.
    Scalar num = Scalar{0};
    Scalar den = Scalar{0};
    const Scalar inv_h = Scalar{1} / h;
    Scalar inv_pow = Scalar{1};
    for (std::size_t m = 0; m < terms; ++m) {
      const auto c = static_cast<Scalar>(poly.coeff[m]);
      if (c != Scalar{0}) {
        const Scalar s_excl = m == 0 ? s_m[m] - Scalar{1} : s_m[m];
        const Scalar t_excl = m == 0 ? t_m[m] - yi : t_m[m];
        num += c * t_excl * inv_pow;
        den += c * s_excl * inv_pow;
      }
      inv_pow *= inv_h;
    }

    Scalar sq = Scalar{0};
    if (den > Scalar{0}) {
      const Scalar e = yi - num / den;
      sq = e * e;
    }
    write(b, sq);
  }
}

/// ---- k-NN fast LOOCV window sweep --------------------------------------
///
/// A k-NN neighbourhood is a *window* in the sorted array: the k nearest
/// leave-one-out neighbours of observation `pos` are contiguous around its
/// sorted position, and as k ascends across a strictly increasing k-grid
/// the window only grows — the same monotone-admission invariant the
/// bandwidth sweep exploits, with the grid axis a neighbour count instead
/// of a bandwidth (Kanagawa's fast k-NN LOOCV). Two pointers admit the
/// globally next-nearest candidate per step; a boundary-tie pass then folds
/// in every remaining candidate at the window's widest admitted distance,
/// so the neighbour set is exactly {j ≠ pos : |x_j − x_pos| ≤ r_k} with r_k
/// the k-th smallest LOO distance — well-defined under duplicated x-values
/// and independent of admission order.
///
/// The left and right running Y-sums are carried *separately* and each side
/// accumulates strictly outward, so the fold order of every partial sum is
/// a deterministic function of (data, k) alone — which is what lets the
/// naive O(n²·|grid|) reference reproduce the fast profile bitwise, and
/// what keeps a k-block-streamed resume identical to the straight-through
/// sweep. State per observation: the two pointers and the two sums — O(1).

/// Seeds one observation's k-NN window state: pointers collapsed onto
/// `pos`, both side sums empty (the self term is never admitted).
template <class Scalar>
inline void knn_sweep_seed(std::size_t pos, std::size_t& lo, std::size_t& hi,
                           Scalar& sum_left, Scalar& sum_right) {
  lo = hi = pos;
  sum_left = Scalar{};
  sum_right = Scalar{};
}

/// Sweeps `ks` — the full neighbour grid, or one ascending slice of it —
/// resuming from the carried window state. `write(b, sq)` receives the
/// squared LOO residual for every index b *within the slice*.
template <class Scalar, class KView, class WriteResid>
inline void knn_sweep_resume(std::span<const Scalar> xs_sorted,
                             std::span<const Scalar> ys_sorted, KView ks,
                             std::size_t pos, std::size_t& lo, std::size_t& hi,
                             Scalar& sum_left, Scalar& sum_right,
                             WriteResid&& write) {
  const std::size_t n = xs_sorted.size();
  const Scalar xi = xs_sorted[pos];
  const auto admit_left = [&] {
    --lo;
    sum_left += ys_sorted[lo];
  };
  const auto admit_right = [&] {
    ++hi;
    sum_right += ys_sorted[hi];
  };
  for (std::size_t b = 0; b < ks.size(); ++b) {
    const std::size_t k = ks[b];
    // Greedy nondecreasing-distance admission until the window holds k
    // neighbours (ties prefer the left candidate; the tie fold below makes
    // the final set side-symmetric, so the preference never shows).
    while (hi - lo < k && (lo > 0 || hi + 1 < n)) {
      if (lo > 0 && (hi + 1 >= n ||
                     xi - xs_sorted[lo - 1] <= xs_sorted[hi + 1] - xi)) {
        admit_left();
      } else {
        admit_right();
      }
    }
    // Boundary ties: admit every remaining candidate at distance exactly
    // r_k (the widest admitted distance). Remaining candidates are all at
    // distance >= r_k, so the loops admit the tied ones and nothing else.
    Scalar radius{0};
    if (lo < pos) {
      radius = xi - xs_sorted[lo];
    }
    if (hi > pos && xs_sorted[hi] - xi > radius) {
      radius = xs_sorted[hi] - xi;
    }
    while (lo > 0 && xi - xs_sorted[lo - 1] <= radius) {
      admit_left();
    }
    while (hi + 1 < n && xs_sorted[hi + 1] - xi <= radius) {
      admit_right();
    }
    const auto count = static_cast<Scalar>(hi - lo);
    const Scalar e = ys_sorted[pos] - (sum_left + sum_right) / count;
    write(b, e * e);
  }
}

/// ---- One-sided CV (OSCV) window sweep ----------------------------------
///
/// One-sided kernels are *asymmetric admission windows*: the left-sided
/// smoother at x admits exactly [x − h, x) — the half-window 0 < x − x_j
/// ≤ h — so the sweep keeps the bandwidth-monotone invariant with only the
/// left pointer moving (Savchuk/Hart one-sided cross-validation). The
/// smoother is the one-sided *local-linear* fit (the estimator OSCV theory
/// is built on; a one-sided local mean would have O(h) boundary bias), and
/// its weighted design moments S̃_m = Σ w_j d_j^m, T̃_m = Σ w_j d_j^m Y_j
/// recombine from the carried absolute moments M_q = Σ |d|^q, N_q =
/// Σ Y·|d|^q with the usual h^(−p) rescaling: on the left side d = −|d|,
/// so S̃_m = (−1)^m Σ_p c_p h^(−p) M_{p+m} and the sign factors cancel in
/// the local-linear ratio. The fit needs moments up to max_power + 2, two
/// more than the symmetric sweep carries.
///
/// The self term is excluded by the window itself (d = 0 fails d > 0), so
/// the one-sided fit is leave-one-out by construction — duplicates of
/// x_pos are skipped the same way. Admission accumulates strictly outward
/// (lo descending), so the fold order is deterministic and a naive
/// re-accumulation per bandwidth reproduces the fast profile bitwise;
/// carried state (lo, count, M_q, N_q) makes k-block streaming exact.

/// Number of carried absolute moments for a one-sided local-linear sweep.
inline constexpr std::size_t oscv_moment_count(
    const SweepPolynomial& poly) noexcept {
  return poly.max_power + 3;
}

/// Upper bound of oscv_moment_count over all sweepable kernels — sizes
/// thread-local moment arrays.
inline constexpr std::size_t kOscvMaxMoments = SweepPolynomial::kMaxPower + 3;

/// Recombines the carried one-sided moments into one bandwidth's squared
/// LOO residual. Shared verbatim by the fast sweeps and the naive
/// reference so the branch structure (local-linear when the design is
/// nondegenerate, weighted-mean fallback, 0 when no neighbour carries
/// weight) is decided on identical values everywhere.
template <class Scalar>
inline Scalar oscv_residual(const SweepPolynomial& poly, Scalar h,
                            std::size_t count, std::span<const Scalar> m_q,
                            std::span<const Scalar> n_q, Scalar yi) {
  Scalar a0{};
  Scalar a1{};
  Scalar a2{};
  Scalar b0{};
  Scalar b1{};
  const Scalar inv_h = Scalar{1} / h;
  Scalar inv_pow{1};
  for (std::size_t p = 0; p <= poly.max_power; ++p) {
    const auto c = static_cast<Scalar>(poly.coeff[p]);
    if (c != Scalar{0}) {
      a0 += c * m_q[p] * inv_pow;
      a1 += c * m_q[p + 1] * inv_pow;
      a2 += c * m_q[p + 2] * inv_pow;
      b0 += c * n_q[p] * inv_pow;
      b1 += c * n_q[p + 1] * inv_pow;
    }
    inv_pow *= inv_h;
  }
  Scalar pred;
  const Scalar det = a0 * a2 - a1 * a1;
  if (count >= 2 && det > Scalar{0}) {
    pred = (a2 * b0 - a1 * b1) / det;  // one-sided local linear
  } else if (a0 > Scalar{0}) {
    pred = b0 / a0;  // degenerate design: one-sided weighted mean
  } else {
    return Scalar{0};  // no neighbour with positive weight: M(X_i) = 0
  }
  const Scalar e = yi - pred;
  return e * e;
}

/// Seeds one observation's one-sided window state: the left pointer on
/// `pos`, no admitted neighbours, all moments zero.
template <class Scalar>
inline void oscv_sweep_seed(std::size_t pos, std::size_t& lo,
                            std::size_t& count, std::span<Scalar> m_q,
                            std::span<Scalar> n_q) {
  lo = pos;
  count = 0;
  std::fill(m_q.begin(), m_q.end(), Scalar{});
  std::fill(n_q.begin(), n_q.end(), Scalar{});
}

/// Sweeps `hs` — the full bandwidth grid, or one ascending k-block slice —
/// resuming from the carried one-sided state. `m_q`/`n_q` must each hold
/// oscv_moment_count(poly) elements.
template <class Scalar, class HView, class WriteResid>
inline void oscv_sweep_resume(std::span<const Scalar> xs_sorted,
                              std::span<const Scalar> ys_sorted, HView hs,
                              const SweepPolynomial& poly, std::size_t pos,
                              std::size_t& lo, std::size_t& count,
                              std::span<Scalar> m_q, std::span<Scalar> n_q,
                              WriteResid&& write) {
  const std::size_t moments = oscv_moment_count(poly);
  const Scalar xi = xs_sorted[pos];
  const Scalar yi = ys_sorted[pos];
  for (std::size_t b = 0; b < hs.size(); ++b) {
    const Scalar h = hs[b];
    while (lo > 0 && xi - xs_sorted[lo - 1] <= h) {
      --lo;
      const Scalar d = xi - xs_sorted[lo];
      if (d > Scalar{0}) {  // duplicates of x_pos lie outside [x − h, x)
        const Scalar yl = ys_sorted[lo];
        Scalar pw = Scalar{1};
        for (std::size_t q = 0; q < moments; ++q) {
          m_q[q] += pw;
          n_q[q] += yl * pw;
          pw *= d;
        }
        ++count;
      }
    }
    write(b, oscv_residual<Scalar>(poly, h, count,
                                   std::span<const Scalar>(m_q.data(), moments),
                                   std::span<const Scalar>(n_q.data(), moments),
                                   yi));
  }
}

/// Halo bounds for n-block streaming (host-side; the data is sorted on the
/// host before upload, so the slab a block needs is a binary search away —
/// no device out-of-core sort).
///
/// A block of observations [block_begin, block_last] admits, at the largest
/// reach (h_max, scaled by the kernel's support for the KDE convolution
/// window), exactly the sorted indices l with |xs[l] − xs[pos]| <= reach
/// for some pos in the block. Because the admission predicate is a
/// correctly-rounded floating-point subtraction — monotone in the minuend —
/// every index the *device* sweep could admit for any pos in the block and
/// any h <= reach lies inside [halo_begin, halo_end): if
/// xs[block_begin] − xs[l] > reach then xs[pos] − xs[l] >= that for every
/// pos >= block_begin, so the device's own `<= h` test also rejects l. The
/// slab therefore never truncates an admission, and slab-relative pointer
/// guards reproduce the resident guards' decisions exactly — which is what
/// keeps the n-streamed profile bitwise identical to the resident one.

/// Smallest sorted index the block starting at `block_begin` can ever
/// admit: the first l with xs[block_begin] − xs[l] <= reach.
template <class Scalar>
inline std::size_t halo_begin(std::span<const Scalar> xs_sorted,
                              std::size_t block_begin, Scalar reach) {
  std::size_t lo = 0;
  std::size_t hi = block_begin;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (xs_sorted[block_begin] - xs_sorted[mid] > reach) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// One past the largest sorted index the block ending at `block_last`
/// (inclusive) can ever admit: past the last l with
/// xs[l] − xs[block_last] <= reach.
template <class Scalar>
inline std::size_t halo_end(std::span<const Scalar> xs_sorted,
                            std::size_t block_last, Scalar reach) {
  std::size_t lo = block_last;
  std::size_t hi = xs_sorted.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (xs_sorted[mid] - xs_sorted[block_last] <= reach) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Largest slab (block + halo) any n-block of size `n_block` tiling
/// [range_begin, range_end) would upload — the byte model's worst case for
/// resolve_streaming_2d. O((range / n_block) · log n).
template <class Scalar>
inline std::size_t max_halo_span(std::span<const Scalar> xs_sorted,
                                 std::size_t range_begin,
                                 std::size_t range_end, std::size_t n_block,
                                 Scalar reach) {
  std::size_t widest = 0;
  for (std::size_t n0 = range_begin; n0 < range_end; n0 += n_block) {
    const std::size_t n1 = std::min(n0 + n_block, range_end);
    const std::size_t begin = halo_begin(xs_sorted, n0, reach);
    const std::size_t end = halo_end(xs_sorted, n1 - 1, reach);
    widest = std::max(widest, end - begin);
  }
  return widest;
}

}  // namespace kreg::detail
