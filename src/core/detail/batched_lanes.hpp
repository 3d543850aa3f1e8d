#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/batch_stats.hpp"
#include "core/batched_sweep.hpp"
#include "core/kernels.hpp"
#include "core/detail/batched_lanes_contig.hpp"
#include "core/detail/batched_lanes_avx512.hpp"

namespace kreg::detail {

/// Batched execution of the window sweep over C = kLaneWidth observations.
///
/// The scalar sweep (`window_sweep_resume`) interleaves three kinds of work
/// per observation and bandwidth: the two-pointer walks (branchy, data
/// dependent), the moment-sum accumulation over newly admitted elements
/// (the hot loop), and the polynomial recombination (pure arithmetic).
/// `LaneBatch` restructures that over C observations at once with
/// structure-of-arrays state — `s_m[m][lane]`, `t_m[m][lane]` — so the
/// accumulation and recombination become straight-line loops over the lane
/// dimension that the compiler auto-vectorizes:
///
///   phase 1  per lane: advance lo/hi pointers, *recording* the admission
///            counts instead of accumulating (scalar, but cheap — two
///            comparisons per admitted element);
///   phase 2  two lockstep runs — left side descending, then right side
///            ascending: the scalar sweep's exact admission order — where
///            step s feeds every lane its element at base ∓ s, lanes that
///            ran out contribute an exact zero, and the m-loop over the
///            C-wide arrays is branch-free; the linear step indexing
///            enables the contiguous-run transpose fast path
///            (batched_lanes_contig.hpp) whenever the active lanes' bases
///            fit one block window;
///   phase 3  recombination across lanes with the per-bandwidth scalars
///            (h, 1/h and its powers) hoisted out — computed once per
///            batch instead of once per observation.
///
/// A batch holds C consecutive sorted observations. Their windows overlap
/// and their phase-2 step counts are close, so the zero-padded tail work
/// stays small and the contiguous-run fast path serves most steps.
///
/// **Bitwise parity.** Each lane's floating-point operation sequence is
/// exactly the scalar sweep's for that observation: admissions happen in
/// the same order (left side descending, then right side ascending), each
/// element runs the same m-loop (`s_m[m] += pw; t_m[m] += y·pw; pw *= d`),
/// and the recombination evaluates the same expression shapes with the
/// same association. Padding lanes contribute `+= 0.0` / `+= 0.0·pw`,
/// which leaves every finite accumulator bit-identical (the only IEEE
/// exception, `-0.0 + 0.0 → +0.0`, would require an exact `-0.0` moment
/// sum, i.e. a `-0.0` Y value). The caller controls the reduction order of
/// the emitted residuals, so batched profiles reproduce the scalar
/// profiles bit for bit under the same reduction discipline.
template <class Scalar>
struct LaneBatch {
  static constexpr std::size_t C = kLaneWidth;
  static constexpr std::size_t kTerms = SweepPolynomial::kMaxPower + 1;

  std::size_t lanes = 0;             ///< active lanes (≤ C; rest are padding)
  std::array<std::size_t, C> pos{};  ///< sorted-array position per lane
  std::array<std::size_t, C> lo{};   ///< left window pointer per lane
  std::array<std::size_t, C> hi{};   ///< right window pointer per lane
  alignas(64) std::array<Scalar, C> xi{};  ///< X at pos, gathered once
  alignas(64) std::array<Scalar, C> yi{};  ///< Y at pos, gathered once
  alignas(64) Scalar s_m[kTerms][C] = {};  ///< Σ |d|^m per lane
  alignas(64) Scalar t_m[kTerms][C] = {};  ///< Σ Y·|d|^m per lane

  /// Phase 3, shared by the generic lanes and the AVX-512 kernel: the
  /// squared LOO residual of every lane at bandwidth h from the current
  /// moment sums. h, 1/h and its running powers are shared by the whole
  /// batch — one division per batch per bandwidth instead of one per
  /// observation. Padding lanes (den = 0) get 0.
  void recombine(Scalar h, const SweepPolynomial& poly,
                 std::array<Scalar, C>& sq) const {
    alignas(64) std::array<Scalar, C> num{};
    alignas(64) std::array<Scalar, C> den{};
    const Scalar inv_h = Scalar{1} / h;
    Scalar inv_pow = Scalar{1};
    for (std::size_t m = 0; m <= poly.max_power; ++m) {
      const auto c = static_cast<Scalar>(poly.coeff[m]);
      if (c != Scalar{0}) {
        if (m == 0) {
          // Self term excluded analytically, as in the scalar sweep.
          for (std::size_t l = 0; l < C; ++l) {
            num[l] += c * (t_m[0][l] - yi[l]) * inv_pow;
          }
          for (std::size_t l = 0; l < C; ++l) {
            den[l] += c * (s_m[0][l] - Scalar{1}) * inv_pow;
          }
        } else {
          for (std::size_t l = 0; l < C; ++l) {
            num[l] += c * t_m[m][l] * inv_pow;
          }
          for (std::size_t l = 0; l < C; ++l) {
            den[l] += c * s_m[m][l] * inv_pow;
          }
        }
      }
      inv_pow *= inv_h;
    }
    for (std::size_t l = 0; l < C; ++l) {
      const Scalar guarded = den[l] > Scalar{0} ? den[l] : Scalar{1};
      const Scalar e = yi[l] - num[l] / guarded;
      sq[l] = den[l] > Scalar{0} ? e * e : Scalar{0};
    }
  }
};

/// Seeds every active lane the way `window_sweep_seed` seeds one thread:
/// pointers collapsed onto pos, moment sums holding only the self term.
/// `pos[l]` must be set for l < lanes before calling; padding lanes are
/// zeroed so the lockstep loops read defined values.
template <class Scalar>
inline void batch_seed(LaneBatch<Scalar>& st, std::span<const Scalar> xs,
                       std::span<const Scalar> ys) {
  constexpr std::size_t C = kLaneWidth;
  for (std::size_t m = 0; m < LaneBatch<Scalar>::kTerms; ++m) {
    for (std::size_t l = 0; l < C; ++l) {
      st.s_m[m][l] = Scalar{};
      st.t_m[m][l] = Scalar{};
    }
  }
  st.xi.fill(Scalar{});
  st.yi.fill(Scalar{});
  st.lo.fill(0);
  st.hi.fill(0);
  for (std::size_t l = 0; l < st.lanes; ++l) {
    const std::size_t p = st.pos[l];
    st.lo[l] = p;
    st.hi[l] = p;
    st.xi[l] = xs[p];
    st.yi[l] = ys[p];
    st.s_m[0][l] = Scalar{1};
    st.t_m[0][l] = ys[p];
  }
}

/// Loads carried per-observation window state (the k-block streaming carry
/// arrays, indexed by `key(l)`) into the batch — the batched counterpart of
/// the scalar kernels' "load the carried state into thread-local storage".
/// `LoView`/`SmView` are any indexable views (raw spans, spmd::MemView).
template <class Scalar, class LoView, class SmView, class Key>
inline void batch_load(LaneBatch<Scalar>& st, std::span<const Scalar> xs,
                       std::span<const Scalar> ys, LoView lo_all,
                       LoView hi_all, SmView sm_all, SmView tm_all,
                       std::size_t terms, Key&& key) {
  constexpr std::size_t C = kLaneWidth;
  for (std::size_t m = 0; m < LaneBatch<Scalar>::kTerms; ++m) {
    for (std::size_t l = 0; l < C; ++l) {
      st.s_m[m][l] = Scalar{};
      st.t_m[m][l] = Scalar{};
    }
  }
  st.xi.fill(Scalar{});
  st.yi.fill(Scalar{});
  st.lo.fill(0);
  st.hi.fill(0);
  for (std::size_t l = 0; l < st.lanes; ++l) {
    const std::size_t j = key(l);
    const std::size_t p = st.pos[l];
    st.lo[l] = lo_all[j];
    st.hi[l] = hi_all[j];
    st.xi[l] = xs[p];
    st.yi[l] = ys[p];
    for (std::size_t m = 0; m < terms; ++m) {
      st.s_m[m][l] = sm_all[j * terms + m];
      st.t_m[m][l] = tm_all[j * terms + m];
    }
  }
}

/// Stores the batch's window state back into the carry arrays; the inverse
/// of batch_load, run after the batch finishes its grid slice.
template <class Scalar, class LoView, class SmView, class Key>
inline void batch_store(const LaneBatch<Scalar>& st, LoView lo_all,
                        LoView hi_all, SmView sm_all, SmView tm_all,
                        std::size_t terms, Key&& key) {
  for (std::size_t l = 0; l < st.lanes; ++l) {
    const std::size_t j = key(l);
    lo_all[j] = st.lo[l];
    hi_all[j] = st.hi[l];
    for (std::size_t m = 0; m < terms; ++m) {
      sm_all[j * terms + m] = st.s_m[m][l];
      tm_all[j * terms + m] = st.t_m[m][l];
    }
  }
}

/// The generic (auto-vectorized) lanes behind `batch_resume`; the only
/// path on CPUs without AVX-512. Same contract as batch_resume.
template <class Scalar, class HView, class WriteResid>
inline void batch_resume_generic(LaneBatch<Scalar>& st,
                                 std::span<const Scalar> xs_sorted,
                                 std::span<const Scalar> ys_sorted, HView hs,
                                 const SweepPolynomial& poly,
                                 WriteResid&& write, BatchRunStats* stats) {
  constexpr std::size_t C = kLaneWidth;
  const std::size_t n = xs_sorted.size();
  const std::size_t k = hs.size();
  const std::size_t terms = poly.max_power + 1;
  const Scalar* xs = xs_sorted.data();
  const Scalar* ys = ys_sorted.data();

  std::array<std::size_t, C> lo_new{};  // left pointer after this h
  std::array<std::size_t, C> hi_new{};  // right pointer after this h
  alignas(64) std::int64_t cnt[C];      // this phase's admissions per lane
  alignas(64) std::int64_t base[C];     // this phase's step-0 index per lane
  std::array<std::size_t, C> off{};     // base − min_base (contig runs)
  alignas(64) std::array<Scalar, C> dv{};
  alignas(64) std::array<Scalar, C> yv{};
  alignas(64) std::array<Scalar, C> pw{};
  alignas(64) std::array<Scalar, C> sq{};

  for (std::size_t b = 0; b < k; ++b) {
    const Scalar h = hs[b];

    // Phase 1: pointer walks, recording the new extents. Scalar per lane —
    // the comparisons are the admission predicate of the scalar sweep, so
    // the recorded extents are exactly the elements it would admit.
    for (std::size_t l = 0; l < st.lanes; ++l) {
      const Scalar x = st.xi[l];
      std::size_t lo = st.lo[l];
      while (lo > 0 && x - xs[lo - 1] <= h) {
        --lo;
      }
      std::size_t hi = st.hi[l];
      while (hi + 1 < n && xs[hi + 1] - x <= h) {
        ++hi;
      }
      lo_new[l] = lo;
      hi_new[l] = hi;
    }

    // Phase 2: left run (descending from the old lo − 1), then right run
    // (ascending from the old hi + 1) — the scalar sweep's exact admission
    // order, with each lane's step index a linear function of s
    // (idx = base ∓ s). Exhausted lanes contribute exact zeros (pw = 0 so
    // every term adds ±0.0); relative to the interleaved form, only where
    // those padding steps fall differs, and padding never changes a finite
    // accumulator. The linear indexing is what enables the contiguous-run
    // transpose fast path (batched_lanes_contig.hpp): when all active
    // lanes' bases fit one block window, the per-lane loads become one
    // contiguous block copy plus an L1-resident transpose.
    for (int phase = 0; phase < 2; ++phase) {
      const bool left = phase == 0;
      std::size_t max_cnt = 0;
      for (std::size_t l = 0; l < C; ++l) {
        if (l < st.lanes) {
          cnt[l] = left ? static_cast<std::int64_t>(st.lo[l] - lo_new[l])
                        : static_cast<std::int64_t>(hi_new[l] - st.hi[l]);
          base[l] = left ? static_cast<std::int64_t>(st.lo[l]) - 1
                         : static_cast<std::int64_t>(st.hi[l]) + 1;
        } else {
          cnt[l] = 0;
          base[l] = 0;
        }
        const auto c = static_cast<std::size_t>(cnt[l]);
        max_cnt = c > max_cnt ? c : max_cnt;
      }
      const ContigRun run = detect_contig_run(cnt, base, C, max_cnt, n, left);
      if (run.steps != 0) {
        for (std::size_t l = 0; l < C; ++l) {
          off[l] = cnt[l] > 0
                       ? static_cast<std::size_t>(base[l] - run.min_base)
                       : 0;
        }
      }
      if (stats != nullptr) {
        stats->contig_steps += run.steps;
        stats->gather_steps += max_cnt - run.steps;
      }
      for (std::size_t s = 0; s < max_cnt; ++s) {
        if (s < run.steps) {
          contig_load_transpose<Scalar, C>(
              xs, ys,
              left ? run.min_base - static_cast<std::int64_t>(s)
                   : run.min_base + static_cast<std::int64_t>(s),
              cnt, off.data(), s, st.xi.data(), dv.data(), yv.data(),
              pw.data());
        } else {
          const auto si = static_cast<std::int64_t>(s);
          for (std::size_t l = 0; l < C; ++l) {
            if (si < cnt[l]) {
              const auto idx =
                  static_cast<std::size_t>(left ? base[l] - si : base[l] + si);
              const Scalar xl = xs[idx];
              dv[l] = xl < st.xi[l] ? st.xi[l] - xl : xl - st.xi[l];
              yv[l] = ys[idx];
              pw[l] = Scalar{1};
            } else {
              dv[l] = Scalar{};
              yv[l] = Scalar{};
              pw[l] = Scalar{};
            }
          }
        }
        // The vector hot loop: C-wide, branch-free, contiguous.
        for (std::size_t m = 0; m < terms; ++m) {
          for (std::size_t l = 0; l < C; ++l) {
            st.s_m[m][l] += pw[l];
          }
          for (std::size_t l = 0; l < C; ++l) {
            st.t_m[m][l] += yv[l] * pw[l];
          }
          for (std::size_t l = 0; l < C; ++l) {
            pw[l] *= dv[l];
          }
        }
      }
    }
    for (std::size_t l = 0; l < st.lanes; ++l) {
      st.lo[l] = lo_new[l];
      st.hi[l] = hi_new[l];
    }

    // Phase 3: recombination across lanes.
    st.recombine(h, poly, sq);
    for (std::size_t l = 0; l < st.lanes; ++l) {
      write(b, l, sq[l]);
    }
  }
}

/// Sweeps `hs` — the full grid or one ascending k-block slice — for all
/// lanes of the batch, resuming from the carried state. `write(b, l, sq)`
/// receives the squared LOO residual of active lane l for every slice
/// index b in ascending order. Per lane this performs bit-for-bit the
/// operations of `window_sweep_resume` on that lane's observation.
///
/// Runs the AVX-512 kernel (batched_lanes_avx512.hpp) when the CPU
/// supports it, the generic lanes otherwise; the two are bitwise
/// identical, so the choice is invisible in the residuals.
///
/// `stats`, when non-null, counts the phase-2 steps served by the
/// contiguous-run transpose fast path versus per-lane gathers (see
/// batched_lanes_contig.hpp). It only observes: values and profiles are
/// bitwise identical with or without it.
template <class Scalar, class HView, class WriteResid>
inline void batch_resume(LaneBatch<Scalar>& st,
                         std::span<const Scalar> xs_sorted,
                         std::span<const Scalar> ys_sorted, HView hs,
                         const SweepPolynomial& poly, WriteResid&& write,
                         BatchRunStats* stats = nullptr) {
#if KREG_HAVE_BATCHED_AVX512
  if (avx512_lanes_available() &&
      batch_resume_avx512(st, xs_sorted, ys_sorted, hs, poly, write,
                          stats)) {
    return;
  }
#endif
  batch_resume_generic(st, xs_sorted, ys_sorted, hs, poly, write, stats);
}

}  // namespace kreg::detail
