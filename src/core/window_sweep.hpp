#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/kernels.hpp"
#include "core/sorted_sweep.hpp"
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
/// Total work: one linear-time radix sort plus O(n·(k + admitted)) for the
/// sweeps, with O(n) extra memory — versus O(n² log n) time and an
/// O(n) private row per worker for the per-row-sort paths. The per-row path
/// remains available (`SortedGridSelector`) as the paper-faithful ablation
/// baseline.

/// (X, Y) sorted ascending by X, rows with equal X ascending by Y — the
/// shared input of every window-sweep profile. Built once per selection
/// with the argsort in `src/sort/`; reusable across grids and kernels for
/// the same dataset.
template <class Scalar>
struct SortedDataset {
  std::vector<Scalar> x;  ///< X ascending
  std::vector<Scalar> y;  ///< Y permuted alongside X
};

/// Sorts (X, Y) by X, breaking ties by Y, so the columns depend on the
/// sample and not on its row order: sort::argsort, an LSD radix sort on the
/// global pool (inline up to sort::kRadixGrain rows), whose last step
/// gathers both columns.
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

/// The host's parallel profile: window_cv_profile bit for bit on every
/// pool. Tiles of consecutive sorted observations run as lane batches
/// (batched_sweep.hpp) on `pool` (nullptr = the global pool), and each
/// bandwidth's total takes the observations in ascending order
/// (detail::tiled_profile). WindowSweepSelector's `parallel` mode and the
/// serve `tiled` backend run it.
std::vector<double> window_cv_profile_tiled(
    const data::Dataset& data, std::span<const double> grid, KernelType kernel,
    Precision precision = Precision::kDouble,
    parallel::ThreadPool* pool = nullptr);

}  // namespace kreg
