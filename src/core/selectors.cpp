#include "core/selectors.hpp"

#include <stdexcept>
#include <utility>

namespace kreg {

std::size_t first_argmin(std::span<const double> scores) noexcept {
  std::size_t best = 0;
  for (std::size_t b = 1; b < scores.size(); ++b) {
    if (scores[b] < scores[best]) {
      best = b;
    }
  }
  return best;
}

SelectionResult selection_from_profile(const BandwidthGrid& grid,
                                       std::vector<double> scores,
                                       std::string method) {
  if (scores.size() != grid.size()) {
    throw std::invalid_argument(
        "selection_from_profile: profile/grid size mismatch");
  }
  const std::size_t best = first_argmin(scores);
  SelectionResult result;
  result.bandwidth = grid[best];
  result.cv_score = scores[best];
  result.grid = grid.values();
  result.scores = std::move(scores);
  result.evaluations = result.grid.size();
  result.method = std::move(method);
  return result;
}

SelectionResult NaiveGridSelector::select(const data::Dataset& data,
                                          const BandwidthGrid& grid) const {
  data.validate();
  std::vector<double> scores;
  scores.reserve(grid.size());
  for (double h : grid.values()) {
    scores.push_back(parallel_ ? cv_score_parallel(data, h, kernel_, pool_)
                               : cv_score(data, h, kernel_));
  }
  return selection_from_profile(grid, std::move(scores), name());
}

std::string NaiveGridSelector::name() const {
  return std::string("naive-grid(") + std::string(to_string(kernel_)) +
         (parallel_ ? ",parallel" : "") + ")";
}

SelectionResult SortedGridSelector::select(const data::Dataset& data,
                                           const BandwidthGrid& grid) const {
  data.validate();
  std::vector<double> scores =
      sweep_cv_profile(data, grid.values(), kernel_, precision_);
  return selection_from_profile(grid, std::move(scores), name());
}

std::string SortedGridSelector::name() const {
  return std::string("sorted-grid(") + std::string(to_string(kernel_)) + "," +
         std::string(to_string(precision_)) + ")";
}

SelectionResult ParallelSortedGridSelector::select(
    const data::Dataset& data, const BandwidthGrid& grid) const {
  data.validate();
  std::vector<double> scores = sweep_cv_profile_parallel(
      data, grid.values(), kernel_, precision_, pool_);
  return selection_from_profile(grid, std::move(scores), name());
}

std::string ParallelSortedGridSelector::name() const {
  return std::string("parallel-sorted-grid(") +
         std::string(to_string(kernel_)) + "," +
         std::string(to_string(precision_)) + ")";
}

SelectionResult WindowSweepSelector::select(const data::Dataset& data,
                                            const BandwidthGrid& grid) const {
  data.validate();
  std::vector<double> scores =
      parallel_ ? window_cv_profile_tiled(data, grid.values(), kernel_,
                                          precision_, pool_)
                : window_cv_profile(data, grid.values(), kernel_, precision_);
  return selection_from_profile(grid, std::move(scores), name());
}

std::string WindowSweepSelector::name() const {
  return std::string("window-sweep(") + std::string(to_string(kernel_)) + "," +
         std::string(to_string(precision_)) +
         (parallel_ ? ",parallel" : "") + ")";
}

std::string_view to_string(EstimatorKind estimator) noexcept {
  switch (estimator) {
    case EstimatorKind::kNadarayaWatson:
      return "nw";
    case EstimatorKind::kKnn:
      return "knn";
    case EstimatorKind::kOscv:
      return "oscv";
  }
  return "unknown";
}

EstimatorKind parse_estimator(std::string_view text) {
  if (text == "nw") {
    return EstimatorKind::kNadarayaWatson;
  }
  if (text == "knn") {
    return EstimatorKind::kKnn;
  }
  if (text == "oscv") {
    return EstimatorKind::kOscv;
  }
  throw std::invalid_argument("parse_estimator: unknown estimator '" +
                              std::string(text) +
                              "' (expected nw, knn, or oscv)");
}

std::string_view to_string(OptimizeMethod method) noexcept {
  switch (method) {
    case OptimizeMethod::kGoldenSection:
      return "golden-section";
    case OptimizeMethod::kBrent:
      return "brent";
  }
  return "unknown";
}

SelectionResult CvOptimizerSelector::select(const data::Dataset& data,
                                            const BandwidthGrid& grid) const {
  data.validate();
  const auto objective = [&](double h) {
    return config_.parallel_objective
               ? cv_score_parallel(data, h, config_.kernel, config_.pool)
               : cv_score(data, h, config_.kernel);
  };
  const auto method =
      config_.method == OptimizeMethod::kGoldenSection ? golden_section
                                                       : brent;
  OptimizeResult opt;
  if (config_.starts <= 1) {
    opt = method(objective, grid.min(), grid.max(), config_.options);
  } else {
    opt = multistart(objective, grid.min(), grid.max(), config_.starts,
                     method, config_.options);
  }

  SelectionResult result;
  result.bandwidth = opt.x;
  result.cv_score = opt.fx;
  result.evaluations = opt.evaluations;
  result.method = name();
  return result;
}

std::string CvOptimizerSelector::name() const {
  std::string n = "cv-optimizer(";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.method);
  if (config_.starts > 1) {
    n += ",starts=" + std::to_string(config_.starts);
  }
  if (config_.parallel_objective) {
    n += ",parallel";
  }
  n += ")";
  return n;
}

}  // namespace kreg
