#pragma once

// Contiguous-run detection and the transpose fast path for the batched
// window sweep's phase-2 admission loops (see batched_lanes.hpp).
//
// Phase-2 loads are gathers because each lane admits from its own window.
// But within one phase (the left-descending or right-ascending run of one
// bandwidth) every lane's index is a *linear* function of the step:
// idx_l = base_l − s (left) or base_l + s (right), with base_l fixed for
// the whole run. So the spread of the C gather targets is step-invariant:
// span = max_l base_l − min_l base_l over the active lanes. Whenever
// span < kContigBlockWidth, all C targets at every step s live inside one
// kContigBlockWidth-element window starting at min_base ∓ s — and the
// masked gather can be replaced by one contiguous block load plus an
// in-register transpose with **bit-identical** results, because the
// transposed element xs[(min_base ∓ s) + (base_l − min_base)] is exactly
// the gathered element xs[base_l ∓ s], and inactive lanes are zeroed by
// the same mask either way. A batch holds consecutive sorted observations,
// whose windows start and end close together, so the span is small and
// the run detector fires on most batches.
//
// Detection runs once per phase, not per step; the only per-step concern
// is staying inside [0, n) for the full-width block read, handled by
// clipping the run to a bounds-safe step count (the remaining steps fall
// back to the gather path seamlessly).

#include <cstddef>
#include <cstdint>

namespace kreg::detail {

/// Elements per contiguous block load: 16 doubles = two zmm vectors (two
/// cache lines), 16 floats = one cache line. Also the permute width of the
/// AVX-512 two-register transpose (vpermt2pd over 2×8 doubles).
inline constexpr std::size_t kContigBlockWidth = 16;

/// One phase's detected run: `any` says some lane admits this phase;
/// `min_base`/`max_base` bound the active lanes' bases (valid only when
/// `any`); `steps` is the bounds-safe contiguous step count (0 when the
/// span is too wide or the block read would leave [0, n)).
struct ContigRun {
  bool any = false;
  std::int64_t min_base = 0;
  std::int64_t max_base = 0;
  std::size_t steps = 0;
};

/// The run-length check over the lane cnt/base SoA state for one phase.
/// `left` selects the direction the block window slides: left runs read
/// [min_base − s, min_base − s + W) so s is capped by min_base; right runs
/// read [min_base + s, min_base + s + W) so s is capped by n − W −
/// min_base. Both need min_base + W ≤ n at s = 0. Lanes with cnt ≤ 0 are
/// ignored (their bases may be stale or −1).
inline ContigRun detect_contig_run(const std::int64_t* cnt,
                                   const std::int64_t* base,
                                   std::size_t lanes, std::size_t max_cnt,
                                   std::size_t n, bool left) {
  ContigRun run;
  for (std::size_t l = 0; l < lanes; ++l) {
    if (cnt[l] <= 0) {
      continue;
    }
    if (!run.any) {
      run.min_base = base[l];
      run.max_base = base[l];
      run.any = true;
    } else {
      run.min_base = base[l] < run.min_base ? base[l] : run.min_base;
      run.max_base = base[l] > run.max_base ? base[l] : run.max_base;
    }
  }
  if (!run.any || max_cnt == 0) {
    return run;
  }
  const auto width = static_cast<std::int64_t>(kContigBlockWidth);
  const auto ni = static_cast<std::int64_t>(n);
  if (run.max_base - run.min_base >= width) {
    return run;
  }
  if (run.min_base < 0 || run.min_base + width > ni) {
    return run;
  }
  const std::int64_t safe =
      left ? run.min_base + 1 : ni - width - run.min_base + 1;
  if (safe <= 0) {
    return run;
  }
  const auto safe_steps = static_cast<std::size_t>(safe);
  run.steps = max_cnt < safe_steps ? max_cnt : safe_steps;
  return run;
}

/// One contiguous-run transpose step for the generic (auto-vectorized)
/// path: stage the block [blk_start, blk_start + W) of xs/ys with one
/// contiguous full-width copy (the compiler turns it into block vector
/// loads / an inlined 128-byte memcpy), then feed each lane its own offset
/// from the L1-resident staging buffers. The transpose itself is split
/// into an in-block gather loop and a branch-free blend loop so both
/// vectorize — the vectorize CI job greps the opt report for this file.
/// `off[l]` must be base_l − min_base for active lanes and any in-range
/// value for inactive ones (they are zeroed by the cnt blend, matching the
/// gather path's ±0.0 padding exactly; the discarded distance computed for
/// an inactive lane cannot fault — staging elements are real xs values).
template <class Scalar, std::size_t C>
inline void contig_load_transpose(
    const Scalar* __restrict xs, const Scalar* __restrict ys,
    std::int64_t blk_start, const std::int64_t* __restrict cnt,
    const std::size_t* __restrict off, std::size_t s,
    const Scalar* __restrict xi, Scalar* __restrict dv,
    Scalar* __restrict yv, Scalar* __restrict pw) {
  alignas(64) Scalar xtmp[kContigBlockWidth];
  alignas(64) Scalar ytmp[kContigBlockWidth];
  const Scalar* bx = xs + blk_start;
  const Scalar* by = ys + blk_start;
  for (std::size_t j = 0; j < kContigBlockWidth; ++j) {
    xtmp[j] = bx[j];
    ytmp[j] = by[j];
  }
  alignas(64) Scalar xg[C];
  alignas(64) Scalar yg[C];
  for (std::size_t l = 0; l < C; ++l) {
    xg[l] = xtmp[off[l]];
    yg[l] = ytmp[off[l]];
  }
  const auto si = static_cast<std::int64_t>(s);
  for (std::size_t l = 0; l < C; ++l) {
    const bool act = si < cnt[l];
    const Scalar d = xg[l] < xi[l] ? xi[l] - xg[l] : xg[l] - xi[l];
    dv[l] = act ? d : Scalar{};
    yv[l] = act ? yg[l] : Scalar{};
    pw[l] = act ? Scalar{1} : Scalar{};
  }
}

}  // namespace kreg::detail
