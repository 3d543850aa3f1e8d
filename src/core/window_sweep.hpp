#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/sorted_sweep.hpp"
#include "core/streaming.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg {

/// The window-sweep grid search: the fast-sum-updating refinement of the
/// paper's §III algorithm.
///
/// The paper sorts each observation's distance row independently, so the
/// whole grid search is O(n² log n). But once X is sorted **once globally**
/// (argsort, Y permuted alongside), every observation's neighbours within
/// any bandwidth h form a contiguous window around its sorted position, and
/// as h ascends across the grid the window only grows. Expanding a left and
/// a right pointer — each monotone — enumerates exactly the newly admitted
/// observations per bandwidth, maintaining the same moment sums
/// S_m = Σ|d|^m, T_m = ΣY·|d|^m that the `SweepPolynomial` recombination
/// turns into every bandwidth's LOO numerator/denominator.
///
/// Total work: O(n log n) for the one global sort plus O(n·(k + admitted))
/// for the sweeps, with O(n) extra memory — versus O(n² log n) time and an
/// O(n) private row per worker for the per-row-sort paths. The per-row path
/// remains available (`SortedGridSelector`) as the paper-faithful ablation
/// baseline.

/// (X, Y) sorted ascending by X — the shared input of every window-sweep
/// profile. Built once per selection with the argsort in `src/sort/`;
/// reusable across grids and kernels for the same dataset.
template <class Scalar>
struct SortedDataset {
  std::vector<Scalar> x;  ///< X ascending
  std::vector<Scalar> y;  ///< Y permuted alongside X
};

/// Sorts (X, Y) by X. O(n log n); the only super-linear step of the sweep.
template <class Scalar>
SortedDataset<Scalar> sort_dataset(std::span<const double> x,
                                   std::span<const double> y);

extern template SortedDataset<float> sort_dataset<float>(
    std::span<const double>, std::span<const double>);
extern template SortedDataset<double> sort_dataset<double>(
    std::span<const double>, std::span<const double>);

/// Full CV profile CV_lc(h) for every h in the (strictly ascending) grid via
/// the window sweep, sequentially over observations. Requires a sweepable
/// kernel. Matches `sweep_cv_profile` to floating-point recombination error.
/// The sweep itself is detail::NwWindow (core/detail/window_policy.hpp).
std::vector<double> window_cv_profile(const data::Dataset& data,
                                      std::span<const double> grid,
                                      KernelType kernel,
                                      Precision precision = Precision::kDouble);

/// Cache-blocking parameters of `window_cv_profile_tiled`. 0 = auto:
/// n_block is sized so one tile's carried window state (two pointers plus
/// the moment sums per observation, ≲ 128 B each) stays within a ~256 KiB
/// L2 slice, and k_block bounds the per-tile score accumulator touched in
/// the innermost loop.
struct HostTiling {
  std::size_t n_block = 0;  ///< observations per tile (0 = auto, 2048)
  std::size_t k_block = 0;  ///< bandwidths per inner block (0 = auto, 64)

  /// The observations per tile on `n` observations: n_block (auto 2048)
  /// clamped to n. The tiled profile's bits depend on this alone — k_block
  /// leaves every entry's additions in the same order.
  std::size_t tile_rows(std::size_t n) const noexcept {
    return std::min<std::size_t>(n_block != 0 ? n_block : 2048, n);
  }
};

/// The cache-blocked host kernel mirroring the device's k-block streaming:
/// observations are tiled into L2-sized n-blocks (the thread pool schedules
/// tiles), each tile carries its window state across k-blocks taken
/// innermost, and every (tile, k-block) cell accumulates into the tile's
/// private score slice. The k-blocks of one tile must run in ascending
/// order (the admission windows are monotone in h), so parallelism is
/// across tiles only. Tile partials combine in tile order — the result
/// depends on the tiling alone, the same bits on every pool, and matches
/// `window_cv_profile` up to summation regrouping (bitwise when one tile
/// covers n). Blocks larger than (n, k) clamp to it. This is the host's
/// parallel profile: WindowSweepSelector's `parallel` mode runs it with
/// auto tiling.
std::vector<double> window_cv_profile_tiled(
    const data::Dataset& data, std::span<const double> grid, KernelType kernel,
    Precision precision = Precision::kDouble, HostTiling tiling = {},
    parallel::ThreadPool* pool = nullptr);

/// Maps the device StreamingConfig onto the host tiling so one
/// `--n-block`/`--k-block`/`--memory-budget` knob set drives both mirrors:
/// explicit blocks carry over verbatim; with n_block unset, a nonzero
/// budget (explicit, or KREG_MEMORY_BUDGET under auto_tune) sizes the tile
/// by the documented ≲128 B/observation carry model; everything else stays
/// 0 = auto.
HostTiling host_tiling_from_stream(const StreamingConfig& stream);

}  // namespace kreg
