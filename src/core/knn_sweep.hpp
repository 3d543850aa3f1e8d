#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"
#include "spmd/device.hpp"

namespace kreg {

/// k-NN regression with exact fast LOOCV over a neighbour-count grid — the
/// first non-bandwidth workload on the shared window machinery.
///
/// A k-NN neighbourhood is a window in the sorted array: the k nearest
/// leave-one-out neighbours of an observation are contiguous around its
/// sorted position, and as k ascends across a strictly increasing k-grid
/// the window only grows. So Kanagawa's fast k-NN LOOCV is the window
/// sweep with the grid axis a neighbour count instead of a bandwidth:
/// O(n log n) for the one global sort plus O(n·(|grid| + admitted)) for
/// the sweeps, versus the naive O(n²·|grid|) of re-finding each
/// neighbourhood per (observation, k).
///
/// Neighbourhoods are tie-inclusive — N_k(i) = {j ≠ i : |x_j − x_i| ≤
/// r_k(i)} with r_k(i) the k-th smallest LOO distance — so the estimator
/// is well-defined under duplicated x-values and independent of any
/// admission order; the predictor is the unweighted mean of Y over N_k(i).
/// Every backend carries the left/right running sums separately and
/// accumulates each side strictly outward, so each (observation, k)
/// residual is bit-identical everywhere — including the naive reference,
/// which re-accumulates in the same outward order. The sequential, device,
/// streamed-k-block, tiled and naive profiles therefore agree **bitwise**
/// (their per-k score folds all run in ascending observation order). Every
/// backend runs one policy, detail::KnnWindow (detail/window_policy.hpp,
/// wrapping knn_sweep_seed/resume in detail/device_sweep.hpp), through the
/// shared drivers of detail/window_drivers.hpp.

/// Outcome of a k-NN LOOCV selection: the neighbour-count analogue of
/// SelectionResult (the selected axis is an integer count, so the generic
/// double-valued result struct does not fit).
struct KnnSelectionResult {
  std::size_t k = 0;        ///< selected neighbour count (argmin of CV)
  double cv_score = 0.0;    ///< mean squared LOO residual at the selected k
  std::vector<std::size_t> grid;  ///< candidate neighbour counts evaluated
  std::vector<double> scores;     ///< CV per candidate (aligned with grid)
  std::string method;             ///< backend name, for reports
};

/// A default neighbour grid: at most `max_size` log-spaced counts spanning
/// [1, n − 1] (duplicates collapsed), strictly increasing — the k-grid
/// analogue of BandwidthGrid::geometric. Requires n >= 2.
std::vector<std::size_t> default_neighbor_grid(std::size_t n,
                                               std::size_t max_size = 32);

/// Full LOOCV profile CV(k) = (1/n) Σ_i (Y_i − mean_{N_k(i)} Y)² for every
/// k in the (strictly increasing, validated) grid, sequentially over
/// observations via the fast window sweep.
std::vector<double> knn_cv_profile(const data::Dataset& data,
                                   std::span<const std::size_t> kgrid,
                                   Precision precision = Precision::kDouble);

/// The host's parallel profile: knn_cv_profile bit for bit on every pool
/// (`pool` nullptr = the global pool). Tiles of consecutive sorted
/// observations run on the pool, and each count's total takes the
/// observations in ascending order (detail::tiled_profile).
std::vector<double> knn_cv_profile_tiled(
    const data::Dataset& data, std::span<const std::size_t> kgrid,
    Precision precision = Precision::kDouble,
    parallel::ThreadPool* pool = nullptr);

/// Naive O(n²·|grid|) reference: per (observation, k) finds r_k by
/// selection over all n − 1 LOO distances, then re-accumulates the
/// tie-inclusive window outward from scratch. Ground truth for the golden
/// and fuzz suites — the fast profiles must match it bitwise.
std::vector<double> knn_cv_profile_naive(const data::Dataset& data,
                                         std::span<const std::size_t> kgrid,
                                         Precision precision = Precision::kDouble);

/// Device execution of the k-NN sweep.
struct KnnDeviceConfig {
  /// kDouble by default: the k-NN scores ride the same bitwise contract as
  /// the host paths, so there is no single-precision paper mode to honor.
  Precision precision = Precision::kDouble;
  /// Clamped to the device's max_threads_per_block.
  std::size_t threads_per_block = 512;
  /// k-block streaming (1-D): nonzero k_block or a memory budget tiles the
  /// neighbour grid so only one n×k_block residual block is resident,
  /// window state carried in O(n) buffers across blocks — streamed
  /// profiles are bitwise identical to resident. n_block is ignored (the
  /// k-NN window is data-adaptive, so no h_max halo bound exists to slab
  /// the sorted arrays with).
  StreamingConfig stream;
};

/// The sweep on the SPMD device: one thread per observation fills the
/// residual block (observation-major), then each fold thread takes 8
/// consecutive grid entries and adds their n residuals **in ascending
/// observation order** — the same order as the sequential host fold, so
/// the device profile is bitwise equal to knn_cv_profile (tree reductions
/// would only be tolerance-equal).
std::vector<double> knn_cv_profile_device(spmd::Device& device,
                                          const data::Dataset& data,
                                          std::span<const std::size_t> kgrid,
                                          KnnDeviceConfig config = {});

/// Modeled device footprint of the k-NN plan holding `k_block` grid
/// entries resident (k_block = 0: the k-independent base — sorted arrays
/// plus carry state — that resolve_streaming sizes blocks against).
std::size_t knn_estimated_streamed_bytes(std::size_t n, std::size_t k_block,
                                         Precision precision);

/// first_argmin over the profile: the smallest index wins ties
/// (deterministic).
KnnSelectionResult knn_selection_from_profile(std::span<const std::size_t> kgrid,
                                              std::vector<double> scores,
                                              std::string method);

/// One-call selection via the sequential fast sweep.
KnnSelectionResult knn_select(const data::Dataset& data,
                              std::span<const std::size_t> kgrid,
                              Precision precision = Precision::kDouble);

/// Fitted k-NN regression for evaluation at arbitrary query points (the
/// CLI's fitted-curve output): tie-inclusive k-nearest mean around each
/// query, windows found by binary search on the sorted X. Queries are
/// independent of the training LOOCV — the query point itself is not an
/// observation, so no self term is excluded.
class KnnRegression {
 public:
  KnnRegression(const data::Dataset& data, std::size_t k);

  double predict(double x0) const;
  std::size_t k() const noexcept { return k_; }

 private:
  SortedDataset<double> sorted_;
  std::size_t k_;
};

}  // namespace kreg
