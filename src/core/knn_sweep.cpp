#include "core/knn_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/detail/window_drivers.hpp"
#include "core/detail/window_policy.hpp"
#include "core/selectors.hpp"
#include "core/validate_grid.hpp"

namespace kreg {

namespace {

void check_knn_inputs(const data::Dataset& data,
                      std::span<const std::size_t> kgrid, const char* fn) {
  if (data.empty()) {
    throw std::invalid_argument(std::string(fn) + ": empty dataset");
  }
  validate_neighbor_grid(kgrid, data.size(), fn);
}

template <class Scalar>
std::vector<double> profile(const data::Dataset& data,
                            std::span<const std::size_t> kgrid,
                            bool tiled, parallel::ThreadPool* pool) {
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const detail::KnnWindow<Scalar> sweep{sorted.x, sorted.y};
  return tiled ? detail::tiled_profile(
                     detail::RowPass<detail::KnnWindow<Scalar>>{sweep}, kgrid,
                     pool)
               : detail::sequential_profile(sweep, kgrid);
}

/// The O(n²·|grid|) reference. Works on the same sorted arrays as the fast
/// sweep (the estimator is permutation-invariant, so sorting first loses
/// no generality) and re-accumulates each tie-inclusive window outward
/// from scratch per (observation, k) — the same per-side fold order the
/// fast sweep's carried sums follow, which is what makes the two paths
/// bitwise-comparable rather than merely tolerance-close.
template <class Scalar>
std::vector<double> profile_naive(const data::Dataset& data,
                                  std::span<const std::size_t> kgrid) {
  const std::size_t n = data.size();
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::span<const Scalar> xs(sorted.x);
  const std::span<const Scalar> ys(sorted.y);

  std::vector<double> totals(kgrid.size(), 0.0);
  std::vector<Scalar> dist(n > 0 ? n - 1 : 0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Scalar xi = xs[pos];
    std::size_t d = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != pos) {
        dist[d++] = std::abs(xs[j] - xi);
      }
    }
    for (std::size_t b = 0; b < kgrid.size(); ++b) {
      const std::size_t k = kgrid[b];
      // r_k: the k-th smallest LOO distance, by selection. nth_element
      // reorders `dist`, which later selections tolerate.
      std::nth_element(dist.begin(),
                       dist.begin() + static_cast<std::ptrdiff_t>(k - 1),
                       dist.end());
      const Scalar radius = dist[k - 1];
      Scalar sum_left{};
      Scalar sum_right{};
      std::size_t count = 0;
      for (std::size_t j = pos; j > 0 && xi - xs[j - 1] <= radius; --j) {
        sum_left += ys[j - 1];
        ++count;
      }
      for (std::size_t j = pos + 1; j < n && xs[j] - xi <= radius; ++j) {
        sum_right += ys[j];
        ++count;
      }
      const Scalar e =
          ys[pos] - (sum_left + sum_right) / static_cast<Scalar>(count);
      totals[b] += static_cast<double>(e * e);
    }
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);
  }
  return totals;
}

/// Device path: the device window driver over all n positions (resident =
/// the one-k-block case). Neighbour counts travel as 32-bit constants: half
/// the constant-cache footprint of size_t, and k < n always fits.
template <class Scalar>
std::vector<double> profile_device(spmd::Device& device,
                                   const data::Dataset& data,
                                   std::span<const std::size_t> kgrid,
                                   const KnnDeviceConfig& config) {
  const std::size_t n = data.size();
  const std::size_t k = kgrid.size();
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const detail::KnnWindow<Scalar> sweep{sorted.x, sorted.y};
  const StreamingPlan plan =
      detail::window_plan_k<std::uint32_t>(device, config.stream, sweep, k);
  // Clamp the request to the device, as the NW and KDE selectors do.
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);

  std::vector<std::uint32_t> counts(k);
  for (std::size_t b = 0; b < k; ++b) {
    counts[b] = static_cast<std::uint32_t>(kgrid[b]);
  }
  std::vector<double> cv(k, 0.0);
  detail::device_window_totals(
      device,
      detail::PolicyPass<detail::KnnWindow<Scalar>>{sweep, tpb},
      std::span<const std::uint32_t>(counts), 0, n, plan, Scalar{}, cv,
      {"knn_sweep", "knn_score_fold", "neighbor-grid", "knn"});
  for (double& total : cv) {
    total /= static_cast<double>(n);
  }
  return cv;
}

}  // namespace

std::vector<std::size_t> default_neighbor_grid(std::size_t n,
                                               std::size_t max_size) {
  if (n < 2) {
    throw std::invalid_argument(
        "default_neighbor_grid: need n >= 2 observations");
  }
  if (max_size == 0) {
    throw std::invalid_argument("default_neighbor_grid: max_size must be > 0");
  }
  const std::size_t k_max = n - 1;
  std::vector<std::size_t> grid;
  grid.reserve(max_size);
  if (max_size == 1 || k_max == 1) {
    grid.push_back(1);
    return grid;
  }
  const double ratio = std::log(static_cast<double>(k_max)) /
                       static_cast<double>(max_size - 1);
  for (std::size_t j = 0; j < max_size; ++j) {
    const double value = std::exp(ratio * static_cast<double>(j));
    auto k = static_cast<std::size_t>(std::llround(value));
    k = std::clamp<std::size_t>(k, 1, k_max);
    if (grid.empty() || k > grid.back()) {
      grid.push_back(k);
    }
  }
  return grid;
}

std::vector<double> knn_cv_profile(const data::Dataset& data,
                                   std::span<const std::size_t> kgrid,
                                   Precision precision) {
  check_knn_inputs(data, kgrid, "knn_cv_profile");
  return precision == Precision::kFloat
             ? profile<float>(data, kgrid, false, nullptr)
             : profile<double>(data, kgrid, false, nullptr);
}

std::vector<double> knn_cv_profile_tiled(const data::Dataset& data,
                                         std::span<const std::size_t> kgrid,
                                         Precision precision,
                                         parallel::ThreadPool* pool) {
  check_knn_inputs(data, kgrid, "knn_cv_profile_tiled");
  return precision == Precision::kFloat
             ? profile<float>(data, kgrid, true, pool)
             : profile<double>(data, kgrid, true, pool);
}

std::vector<double> knn_cv_profile_naive(const data::Dataset& data,
                                         std::span<const std::size_t> kgrid,
                                         Precision precision) {
  check_knn_inputs(data, kgrid, "knn_cv_profile_naive");
  return precision == Precision::kFloat ? profile_naive<float>(data, kgrid)
                                        : profile_naive<double>(data, kgrid);
}

std::vector<double> knn_cv_profile_device(spmd::Device& device,
                                          const data::Dataset& data,
                                          std::span<const std::size_t> kgrid,
                                          KnnDeviceConfig config) {
  check_knn_inputs(data, kgrid, "knn_cv_profile_device");
  if (config.threads_per_block == 0) {
    throw std::invalid_argument(
        "knn_cv_profile_device: threads_per_block must be > 0");
  }
  return config.precision == Precision::kFloat
             ? profile_device<float>(device, data, kgrid, config)
             : profile_device<double>(device, data, kgrid, config);
}

std::size_t knn_estimated_streamed_bytes(std::size_t n, std::size_t k_block,
                                         Precision precision) {
  // A streamed plan's grid outgrows its block, so the carry is held.
  return precision == Precision::kFloat
             ? detail::window_bytes(detail::KnnWindow<float>{}, n, n,
                                    k_block + 1, k_block)
             : detail::window_bytes(detail::KnnWindow<double>{}, n, n,
                                    k_block + 1, k_block);
}

KnnSelectionResult knn_selection_from_profile(
    std::span<const std::size_t> kgrid, std::vector<double> scores,
    std::string method) {
  if (kgrid.size() != scores.size() || kgrid.empty()) {
    throw std::invalid_argument(
        "knn_selection_from_profile: grid/scores size mismatch or empty");
  }
  const std::size_t best = first_argmin(scores);
  KnnSelectionResult result;
  result.k = kgrid[best];
  result.cv_score = scores[best];
  result.grid.assign(kgrid.begin(), kgrid.end());
  result.scores = std::move(scores);
  result.method = std::move(method);
  return result;
}

KnnSelectionResult knn_select(const data::Dataset& data,
                              std::span<const std::size_t> kgrid,
                              Precision precision) {
  return knn_selection_from_profile(
      kgrid, knn_cv_profile(data, kgrid, precision), "knn-window-sweep");
}

KnnRegression::KnnRegression(const data::Dataset& data, std::size_t k)
    : sorted_(sort_dataset<double>(data.x, data.y)), k_(k) {
  if (data.empty()) {
    throw std::invalid_argument("KnnRegression: empty dataset");
  }
  if (k_ == 0 || k_ > data.size()) {
    throw std::invalid_argument(
        "KnnRegression: need 1 <= k <= n (got k = " + std::to_string(k_) +
        ", n = " + std::to_string(data.size()) + ")");
  }
}

double KnnRegression::predict(double x0) const {
  const std::vector<double>& xs = sorted_.x;
  const std::vector<double>& ys = sorted_.y;
  const std::size_t n = xs.size();
  // Two-pointer admission around the insertion point, then tie inclusion —
  // the query-point analogue of the LOOCV sweep body, with no self term.
  const auto it = std::lower_bound(xs.begin(), xs.end(), x0);
  std::size_t lo = static_cast<std::size_t>(it - xs.begin());
  std::size_t hi = lo;  // admitted window is [lo, hi)
  double sum = 0.0;
  while (hi - lo < k_ && (lo > 0 || hi < n)) {
    const bool has_left = lo > 0;
    const bool has_right = hi < n;
    if (has_left && (!has_right || x0 - xs[lo - 1] <= xs[hi] - x0)) {
      --lo;
      sum += ys[lo];
    } else {
      sum += ys[hi];
      ++hi;
    }
  }
  double radius = 0.0;
  if (lo < hi) {
    radius = std::max({0.0, x0 - xs[lo], xs[hi - 1] - x0});
  }
  while (lo > 0 && x0 - xs[lo - 1] <= radius) {
    --lo;
    sum += ys[lo];
  }
  while (hi < n && xs[hi] - x0 <= radius) {
    sum += ys[hi];
    ++hi;
  }
  return sum / static_cast<double>(hi - lo);
}

}  // namespace kreg
