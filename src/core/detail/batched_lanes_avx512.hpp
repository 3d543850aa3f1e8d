#pragma once

// AVX-512 kernel for the batched window sweep (see batched_lanes.hpp),
// compiled into every x86-64 GCC/Clang build and chosen at run time:
// `batch_resume` calls it when the CPU has AVX-512F/DQ/VL
// (avx512_lanes_available), and runs the generic lanes otherwise. Only the
// functions marked KREG_AVX512_TARGET contain AVX-512 code, so the rest of
// the build stays baseline x86-64. One kernel body serves both precisions
// through the per-precision `Avx512Lanes` traits: the batch's 8 lanes are
// one __m512d for double and one __m256 (AVX-512VL masks) for float. The two
// paths produce bit-identical profiles because each lane executes the
// scalar sweep's exact floating-point operation sequence:
//
//   - phase-1 pointer walks test one full vector of admission candidates
//     (8 doubles, 16 floats) per compare and stop at the same
//     first-failing element as the scalar walk (phase 1 carries no FP
//     state, so identical stopping points mean identical extents);
//   - admissions stay in the scalar order (left side descending, then
//     right side ascending), realized here as two separate step loops so
//     the gather index is a linear function of the step — no per-lane
//     select, no branch;
//   - masked hardware gathers (vgatherqpd / vgatherqps) feed exact zeros
//     into lanes that ran out of admissions, the same ±0.0-padding
//     discipline the generic path uses;
//   - contiguous runs — all of the batch's step-0 bases inside one
//     16-element window, the common case for consecutive observations — swap
//     the gather for two block loads + a masked two-register permute
//     (vpermt2pd / vpermt2ps) selecting the very same elements with the
//     very same masked zeros, so consumed values are unchanged bit for
//     bit; runs are clipped where the block read would leave [0, n) and
//     the gather resumes seamlessly (see batched_lanes_contig.hpp);
//   - |xi − xl| is computed as a sign-bit mask of (xi − xl), which is
//     IEEE-identical to the scalar sweep's compare-and-subtract;
//   - t_m ← t_m + y·pw stays an explicit multiply-then-add, matching the
//     scalar sweep exactly because the whole build compiles with
//     -ffp-contract=off (root CMakeLists.txt); under -ffp-contract=fast,
//     GCC contracts or not per call site, so no intrinsic choice could
//     match every inlined copy of the scalar sweep at once;
//   - the batch's moment sums live in registers for a whole admission
//     run, one register per term, instead of round-tripping through
//     memory every step;
//   - phase 3 is the generic path's own `LaneBatch::recombine`.

#if defined(__x86_64__) && defined(__GNUC__)
#define KREG_HAVE_BATCHED_AVX512 1
#else
#define KREG_HAVE_BATCHED_AVX512 0
#endif

#if KREG_HAVE_BATCHED_AVX512

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "core/batch_stats.hpp"
#include "core/batched_sweep.hpp"
#include "core/kernels.hpp"
#include "core/detail/batched_lanes_contig.hpp"

#define KREG_AVX512_TARGET \
  __attribute__((target("avx512f,avx512dq,avx512vl")))

namespace kreg::detail {

template <class Scalar>
struct LaneBatch;

static_assert(kLaneWidth == 8,
              "the AVX-512 kernel holds one batch in one 8-lane register");

/// The first CPU feature the AVX-512 lane kernel needs that this machine
/// lacks (the CPU, or an OS that does not save the zmm state), or nullptr
/// when it has them all.
inline const char* avx512_lanes_missing_feature() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx512f")) {
    return "avx512f";
  }
  if (!__builtin_cpu_supports("avx512dq")) {
    return "avx512dq";
  }
  if (!__builtin_cpu_supports("avx512vl")) {
    return "avx512vl";
  }
  return nullptr;
}

/// Whether batch_resume may take the AVX-512 kernel: the feature check
/// runs once per process and its answer is cached.
inline bool avx512_lanes_available() {
  static const bool available = avx512_lanes_missing_feature() == nullptr;
  return available;
}

/// Per-precision vector operations on the batch's 8 lanes. `Perm` is the
/// index type of the two-register permute over a 16-element block.
template <class Scalar>
struct Avx512Lanes;

template <>
struct Avx512Lanes<double> {
  using Vec = __m512d;
  using Perm = __m512i;
  static constexpr std::size_t kWalk = 8;  ///< candidates per walk compare

  KREG_AVX512_TARGET static Vec load(const double* p) {
    return _mm512_loadu_pd(p);
  }
  KREG_AVX512_TARGET static void store(double* p, Vec v) {
    _mm512_storeu_pd(p, v);
  }
  KREG_AVX512_TARGET static Vec add(Vec a, Vec b) {
    return _mm512_add_pd(a, b);
  }
  KREG_AVX512_TARGET static Vec mul(Vec a, Vec b) {
    return _mm512_mul_pd(a, b);
  }
  KREG_AVX512_TARGET static Vec abs_diff(Vec a, Vec b) {
    return _mm512_abs_pd(_mm512_sub_pd(a, b));
  }
  /// 1 in the active lanes, +0.0 elsewhere.
  KREG_AVX512_TARGET static Vec ones(__mmask8 act) {
    return _mm512_maskz_mov_pd(act, _mm512_set1_pd(1.0));
  }
  KREG_AVX512_TARGET static Vec gather(__mmask8 act, __m512i idx,
                                       const double* base) {
    return _mm512_mask_i64gather_pd(_mm512_setzero_pd(), act, idx, base, 8);
  }
  KREG_AVX512_TARGET static Perm perm_index(__m512i offsets) {
    return offsets;
  }
  /// Active lane l takes block[perm[l]] from the 16 doubles at `block`.
  KREG_AVX512_TARGET static Vec permute_block(__mmask8 act,
                                              const double* block,
                                              Perm perm) {
    return _mm512_maskz_permutex2var_pd(act, _mm512_loadu_pd(block), perm,
                                        _mm512_loadu_pd(block + 8));
  }
  /// How many of p[7], p[6], … in a row pass the left-walk predicate
  /// x − p[j] ≤ h.
  KREG_AVX512_TARGET static std::size_t accepted_left(const double* p,
                                                      double x, double h) {
    const __mmask8 m = _mm512_cmp_pd_mask(
        _mm512_sub_pd(_mm512_set1_pd(x), _mm512_loadu_pd(p)),
        _mm512_set1_pd(h), _CMP_LE_OQ);
    return static_cast<std::size_t>(
        std::countl_one(static_cast<std::uint8_t>(m)));
  }
  /// How many of p[0], p[1], … in a row pass the right-walk predicate
  /// p[j] − x ≤ h.
  KREG_AVX512_TARGET static std::size_t accepted_right(const double* p,
                                                       double x, double h) {
    const __mmask8 m = _mm512_cmp_pd_mask(
        _mm512_sub_pd(_mm512_loadu_pd(p), _mm512_set1_pd(x)),
        _mm512_set1_pd(h), _CMP_LE_OQ);
    return static_cast<std::size_t>(
        std::countr_one(static_cast<std::uint8_t>(m)));
  }
};

template <>
struct Avx512Lanes<float> {
  using Vec = __m256;
  using Perm = __m256i;
  static constexpr std::size_t kWalk = 16;  ///< candidates per walk compare

  KREG_AVX512_TARGET static Vec load(const float* p) {
    return _mm256_loadu_ps(p);
  }
  KREG_AVX512_TARGET static void store(float* p, Vec v) {
    _mm256_storeu_ps(p, v);
  }
  KREG_AVX512_TARGET static Vec add(Vec a, Vec b) {
    return _mm256_add_ps(a, b);
  }
  KREG_AVX512_TARGET static Vec mul(Vec a, Vec b) {
    return _mm256_mul_ps(a, b);
  }
  KREG_AVX512_TARGET static Vec abs_diff(Vec a, Vec b) {
    return _mm256_and_ps(_mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)),
                         _mm256_sub_ps(a, b));
  }
  KREG_AVX512_TARGET static Vec ones(__mmask8 act) {
    return _mm256_maskz_mov_ps(act, _mm256_set1_ps(1.0f));
  }
  KREG_AVX512_TARGET static Vec gather(__mmask8 act, __m512i idx,
                                       const float* base) {
    return _mm512_mask_i64gather_ps(_mm256_setzero_ps(), act, idx, base, 4);
  }
  KREG_AVX512_TARGET static Perm perm_index(__m512i offsets) {
    // The all-lanes maskz form, because GCC 12's header for the unmasked
    // _mm512_cvtepi64_epi32 trips -Wmaybe-uninitialized.
    return _mm512_maskz_cvtepi64_epi32(0xff, offsets);
  }
  KREG_AVX512_TARGET static Vec permute_block(__mmask8 act,
                                              const float* block, Perm perm) {
    return _mm256_maskz_permutex2var_ps(act, _mm256_loadu_ps(block), perm,
                                        _mm256_loadu_ps(block + 8));
  }
  KREG_AVX512_TARGET static std::size_t accepted_left(const float* p,
                                                      float x, float h) {
    const __mmask16 m = _mm512_cmp_ps_mask(
        _mm512_sub_ps(_mm512_set1_ps(x), _mm512_loadu_ps(p)),
        _mm512_set1_ps(h), _CMP_LE_OQ);
    return static_cast<std::size_t>(
        std::countl_one(static_cast<std::uint16_t>(m)));
  }
  KREG_AVX512_TARGET static std::size_t accepted_right(const float* p,
                                                       float x, float h) {
    const __mmask16 m = _mm512_cmp_ps_mask(
        _mm512_sub_ps(_mm512_loadu_ps(p), _mm512_set1_ps(x)),
        _mm512_set1_ps(h), _CMP_LE_OQ);
    return static_cast<std::size_t>(
        std::countr_one(static_cast<std::uint16_t>(m)));
  }
};

/// Blocked phase-1 pointer walks: test kWalk admission candidates per
/// compare instead of one. The scalar walk stops at the *first* failing
/// element; counting the leading (left walk, descending) or trailing
/// (right walk, ascending) accepted lanes of the predicate mask stops at
/// exactly the same element — each lane evaluates the scalar predicate's
/// own subtract-and-compare, and phase 1 carries no floating-point state,
/// so the extents are identical integers. The scalar loop serves the
/// < kWalk remaining candidates at the array edges.
template <class Scalar>
KREG_AVX512_TARGET inline std::size_t walk_lo_avx512(Scalar x,
                                                     const Scalar* xs,
                                                     std::size_t lo,
                                                     Scalar h) {
  constexpr std::size_t kWalk = Avx512Lanes<Scalar>::kWalk;
  while (lo >= kWalk) {
    const std::size_t acc =
        Avx512Lanes<Scalar>::accepted_left(xs + lo - kWalk, x, h);
    lo -= acc;
    if (acc < kWalk) {
      return lo;
    }
  }
  while (lo > 0 && x - xs[lo - 1] <= h) {
    --lo;
  }
  return lo;
}

template <class Scalar>
KREG_AVX512_TARGET inline std::size_t walk_hi_avx512(Scalar x,
                                                     const Scalar* xs,
                                                     std::size_t hi,
                                                     std::size_t n,
                                                     Scalar h) {
  constexpr std::size_t kWalk = Avx512Lanes<Scalar>::kWalk;
  while (hi + kWalk < n) {
    const std::size_t acc =
        Avx512Lanes<Scalar>::accepted_right(xs + hi + 1, x, h);
    hi += acc;
    if (acc < kWalk) {
      return hi;
    }
  }
  while (hi + 1 < n && xs[hi + 1] - x <= h) {
    ++hi;
  }
  return hi;
}

/// One admission step of the batch: the scalar sweep's m-loop
/// (`s_m += pw; t_m += y·pw; pw *= d`) on the elements (xv, yv) in every
/// active lane, exact zeros (pw = +0.0) in the others.
template <class Scalar, std::size_t T>
KREG_AVX512_TARGET inline void admit_group(
    typename Avx512Lanes<Scalar>::Vec (&sm)[T],
    typename Avx512Lanes<Scalar>::Vec (&tm)[T],
    typename Avx512Lanes<Scalar>::Vec xi,
    typename Avx512Lanes<Scalar>::Vec xv,
    typename Avx512Lanes<Scalar>::Vec yv, __mmask8 act) {
  using Ops = Avx512Lanes<Scalar>;
  const typename Ops::Vec dv = Ops::abs_diff(xi, xv);
  typename Ops::Vec pw = Ops::ones(act);
  for (std::size_t m = 0; m < T; ++m) {
    sm[m] = Ops::add(sm[m], pw);
    tm[m] = Ops::add(tm[m], Ops::mul(yv, pw));
    pw = Ops::mul(pw, dv);
  }
}

/// Compile-time-terms AVX-512 resume for LaneBatch<Scalar>.
/// Bit-for-bit the operations of `window_sweep_resume` per lane.
template <class Scalar, std::size_t T, class HView, class WriteResid>
KREG_AVX512_TARGET void batch_resume_avx512_impl(
    LaneBatch<Scalar>& st, std::span<const Scalar> xs_sorted,
    std::span<const Scalar> ys_sorted, HView hs, const SweepPolynomial& poly,
    WriteResid&& write, BatchRunStats* stats) {
  using Ops = Avx512Lanes<Scalar>;
  using Vec = typename Ops::Vec;
  constexpr std::size_t C = kLaneWidth;
  const std::size_t n = xs_sorted.size();
  const std::size_t k = hs.size();
  const Scalar* xs = xs_sorted.data();
  const Scalar* ys = ys_sorted.data();

  const __m256i one = _mm256_set1_epi32(1);

  alignas(64) std::int64_t cnt[C], base[C];
  alignas(64) std::array<Scalar, C> sq{};
  std::array<std::size_t, C> lo_new{}, hi_new{};

  for (std::size_t b = 0; b < k; ++b) {
    const Scalar h = hs[b];

    // Phase 1: blocked pointer walks, same admission predicate and the
    // same stopping element as the scalar sweep — see walk_lo_avx512 and
    // walk_hi_avx512 above.
    for (std::size_t l = 0; l < st.lanes; ++l) {
      const Scalar x = st.xi[l];
      lo_new[l] = walk_lo_avx512(x, xs, st.lo[l], h);
      hi_new[l] = walk_hi_avx512(x, xs, st.hi[l], n, h);
    }

    // Phase 2: left run (descending from the old lo − 1), then right run
    // (ascending from the old hi + 1) — the scalar admission order. The
    // bases are fixed for the whole run, so when the active bases fit one
    // 16-element window (batched_lanes_contig.hpp) the per-step masked
    // gather becomes two block loads + one masked two-register permute —
    // the same elements and the same masked zeros, so bitwise-identical
    // values — and the remaining (bounds-clipped) steps fall back to the
    // gather.
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
      if (max_cnt == 0) {
        continue;
      }
      const ContigRun run = detect_contig_run(cnt, base, C, max_cnt, n, left);
      typename Ops::Perm perm = Ops::perm_index(_mm512_setzero_si512());
      if (run.steps != 0) {
        alignas(64) std::int64_t offsets[C];
        for (std::size_t l = 0; l < C; ++l) {
          offsets[l] = cnt[l] > 0 ? base[l] - run.min_base : 0;
        }
        perm = Ops::perm_index(_mm512_load_si512(offsets));
      }
      if (stats != nullptr) {
        stats->contig_steps += run.steps;
        stats->gather_steps += max_cnt - run.steps;
      }
      // The step counters are 32-bit lanes in a ymm, so the float steps
      // run without zmm uops (which would close a vector port while in
      // flight); batch_resume_avx512 keeps n, and so every count, below
      // 2^31.
      const __m256i vcnt =
          _mm512_maskz_cvtepi64_epi32(0xff, _mm512_load_si512(cnt));
      const __m512i vbase = _mm512_load_si512(base);
      __m256i vs = _mm256_setzero_si256();
      // The moment sums stay in registers for the whole run.
      const Vec xi = Ops::load(st.xi.data());
      Vec sm[T], tm[T];
      for (std::size_t m = 0; m < T; ++m) {
        sm[m] = Ops::load(st.s_m[m]);
        tm[m] = Ops::load(st.t_m[m]);
      }
      // Contiguous steps first, then the gathers; step s reads element
      // base ∓ s of each active lane.
      const std::int64_t dir = left ? -1 : 1;
      std::size_t s = 0;
      for (; s < run.steps; ++s) {
        const __mmask8 act = _mm256_cmpgt_epi32_mask(vcnt, vs);
        vs = _mm256_add_epi32(vs, one);
        const std::int64_t blk =
            run.min_base + dir * static_cast<std::int64_t>(s);
        admit_group<Scalar, T>(sm, tm, xi,
                               Ops::permute_block(act, xs + blk, perm),
                               Ops::permute_block(act, ys + blk, perm), act);
      }
      for (; s < max_cnt; ++s) {
        const __mmask8 act = _mm256_cmpgt_epi32_mask(vcnt, vs);
        vs = _mm256_add_epi32(vs, one);
        const __m512i idx = _mm512_add_epi64(
            vbase, _mm512_set1_epi64(dir * static_cast<std::int64_t>(s)));
        admit_group<Scalar, T>(sm, tm, xi, Ops::gather(act, idx, xs),
                               Ops::gather(act, idx, ys), act);
      }
      for (std::size_t m = 0; m < T; ++m) {
        Ops::store(st.s_m[m], sm[m]);
        Ops::store(st.t_m[m], tm[m]);
      }
    }
    for (std::size_t l = 0; l < st.lanes; ++l) {
      st.lo[l] = lo_new[l];
      st.hi[l] = hi_new[l];
    }

    // Phase 3: the shared recombination.
    st.recombine(h, poly, sq);
    for (std::size_t l = 0; l < st.lanes; ++l) {
      write(b, l, sq[l]);
    }
  }
}

/// Runtime→compile-time dispatch on the polynomial's term count. Returns
/// false (caller falls back to the generic path) for a term count no
/// sweepable kernel has (1, 2, 3, 5 and 7 are instantiated) and for
/// n ≥ 2^31, beyond the kernel's 32-bit step counters.
/// Requires avx512_lanes_available().
template <class Scalar, class HView, class WriteResid>
inline bool batch_resume_avx512(LaneBatch<Scalar>& st,
                                std::span<const Scalar> xs_sorted,
                                std::span<const Scalar> ys_sorted, HView hs,
                                const SweepPolynomial& poly,
                                WriteResid&& write, BatchRunStats* stats) {
  if (xs_sorted.size() >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    return false;
  }
  switch (poly.max_power + 1) {
    case 1:
      batch_resume_avx512_impl<Scalar, 1>(st, xs_sorted, ys_sorted, hs, poly,
                                          write, stats);
      return true;
    case 2:
      batch_resume_avx512_impl<Scalar, 2>(st, xs_sorted, ys_sorted, hs, poly,
                                          write, stats);
      return true;
    case 3:
      batch_resume_avx512_impl<Scalar, 3>(st, xs_sorted, ys_sorted, hs, poly,
                                          write, stats);
      return true;
    case 5:
      batch_resume_avx512_impl<Scalar, 5>(st, xs_sorted, ys_sorted, hs, poly,
                                          write, stats);
      return true;
    case 7:
      batch_resume_avx512_impl<Scalar, 7>(st, xs_sorted, ys_sorted, hs, poly,
                                          write, stats);
      return true;
    default:
      return false;
  }
}

}  // namespace kreg::detail

#undef KREG_AVX512_TARGET

#endif  // KREG_HAVE_BATCHED_AVX512
