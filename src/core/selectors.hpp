#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "core/grid.hpp"
#include "core/kernels.hpp"
#include "core/loocv.hpp"
#include "core/optimizers.hpp"
#include "core/sorted_sweep.hpp"
#include "core/types.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg {

/// The regression estimators the selection engine serves (PR: the CLI and
/// auto_regress became multi-estimator). kNadarayaWatson selects a
/// bandwidth by LOOCV (the paper's workload); kKnn selects a neighbour
/// count by fast k-NN LOOCV (core/knn_sweep.hpp); kOscv selects a
/// bandwidth by one-sided CV with the Hart–Yi rescaling
/// (core/oscv_sweep.hpp). All three run on the shared sorted-array +
/// monotone-admission-window machinery.
enum class EstimatorKind {
  kNadarayaWatson,
  kKnn,
  kOscv,
};
std::string_view to_string(EstimatorKind estimator) noexcept;

/// Parses "nw" / "knn" / "oscv" (the CLI's --estimator values). Throws
/// std::invalid_argument on anything else, naming the valid spellings.
EstimatorKind parse_estimator(std::string_view text);

/// Common interface of every bandwidth selector. Grid-based selectors
/// evaluate CV_lc at each grid value; optimizer-based selectors use the
/// grid only for its [min, max] bracket. Implementations are const-callable
/// and safe to reuse across datasets.
class Selector {
 public:
  virtual ~Selector() = default;

  /// Selects the bandwidth minimizing CV_lc(h). Throws
  /// std::invalid_argument on empty/invalid inputs.
  virtual SelectionResult select(const data::Dataset& data,
                                 const BandwidthGrid& grid) const = 0;

  /// Human-readable selector name (fills SelectionResult::method).
  virtual std::string name() const = 0;
};

/// Index of the smallest score, the first one on ties (strict <); 0 for an
/// empty profile. The one argmin every host-side selection uses.
std::size_t first_argmin(std::span<const double> scores) noexcept;

/// Builds a SelectionResult from a computed CV profile: first_argmin, so
/// the smallest index wins ties (deterministic).
SelectionResult selection_from_profile(const BandwidthGrid& grid,
                                       std::vector<double> scores,
                                       std::string method);

/// Reference grid search: evaluates the O(n²) objective independently at
/// every grid value — the O(k·n²) algorithm the paper's §III complexity
/// argument starts from. Ground truth for every fast selector, and the only
/// grid selector valid for non-sweepable kernels (Gaussian, Cosine).
class NaiveGridSelector final : public Selector {
 public:
  explicit NaiveGridSelector(KernelType kernel = KernelType::kEpanechnikov,
                             bool parallel = false,
                             parallel::ThreadPool* pool = nullptr)
      : kernel_(kernel), parallel_(parallel), pool_(pool) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

 private:
  KernelType kernel_;
  bool parallel_;
  parallel::ThreadPool* pool_;
};

/// **Program 3** — "Sequential C": the paper's sorting-based grid search on
/// one core. Per observation: sort distances once (iterative quicksort with
/// Y payload), then accumulate all k bandwidths' sums in a single sweep.
/// O(n² log n) total, guaranteed global minimum over the grid.
class SortedGridSelector final : public Selector {
 public:
  explicit SortedGridSelector(KernelType kernel = KernelType::kEpanechnikov,
                              Precision precision = Precision::kDouble)
      : kernel_(kernel), precision_(precision) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

 private:
  KernelType kernel_;
  Precision precision_;
};

/// Host-parallel variant of Program 3: observations distributed across a
/// thread pool. With the observation loop being embarrassingly parallel,
/// this is what Program 3 becomes on a multicore host without a device.
class ParallelSortedGridSelector final : public Selector {
 public:
  explicit ParallelSortedGridSelector(
      KernelType kernel = KernelType::kEpanechnikov,
      Precision precision = Precision::kDouble,
      parallel::ThreadPool* pool = nullptr)
      : kernel_(kernel), precision_(precision), pool_(pool) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

 private:
  KernelType kernel_;
  Precision precision_;
  parallel::ThreadPool* pool_;
};

/// The window-sweep grid search (see core/window_sweep.hpp): sorts (X, Y)
/// once globally, then grows a two-pointer window per observation across
/// the ascending grid — O(n log n + n·(k + admitted)) total instead of the
/// per-row-sort paths' O(n² log n), with O(n) extra memory. Same profile as
/// SortedGridSelector up to floating-point recombination error; the
/// per-row-sort selectors remain the paper-faithful ablation baseline.
/// `parallel` runs window_cv_profile_tiled on `pool` (nullptr = global):
/// lane-batched tiles, the sequential profile's bits on every pool.
class WindowSweepSelector final : public Selector {
 public:
  explicit WindowSweepSelector(KernelType kernel = KernelType::kEpanechnikov,
                               Precision precision = Precision::kDouble,
                               bool parallel = false,
                               parallel::ThreadPool* pool = nullptr)
      : kernel_(kernel), precision_(precision), parallel_(parallel),
        pool_(pool) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

 private:
  KernelType kernel_;
  Precision precision_;
  bool parallel_;
  parallel::ThreadPool* pool_;
};

/// Numerical-optimization method used by CvOptimizerSelector.
enum class OptimizeMethod { kGoldenSection, kBrent };
std::string_view to_string(OptimizeMethod method) noexcept;

/// **Programs 1 & 2** — the R-style baselines: numerical minimization of
/// the naive O(n²) CV objective over [grid.min, grid.max].
///
/// Program 1 (R np analogue): sequential objective, one start. Program 2
/// (multicore R analogue): objective parallelized across the pool. Both
/// inherit the documented weakness of numerical optimization on this
/// objective — the CV surface "is not necessarily concave", so a single
/// start can converge to a non-global minimum; `starts > 1` applies the
/// multistart mitigation the np documentation recommends.
struct OptimizerSelectorConfig {
  KernelType kernel = KernelType::kEpanechnikov;
  OptimizeMethod method = OptimizeMethod::kBrent;
  std::size_t starts = 1;           ///< sub-brackets for multistart
  bool parallel_objective = false;  ///< Program 2 when true
  parallel::ThreadPool* pool = nullptr;
  OptimizeOptions options;
};

class CvOptimizerSelector final : public Selector {
 public:
  using Config = OptimizerSelectorConfig;

  explicit CvOptimizerSelector(Config config = Config()) : config_(config) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace kreg
