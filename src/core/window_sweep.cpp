#include "core/window_sweep.hpp"

#include <stdexcept>
#include <string>

#include "core/detail/window_drivers.hpp"
#include "core/detail/window_policy.hpp"
#include "core/validate_grid.hpp"
#include "sort/argsort.hpp"

namespace kreg {

template <class Scalar>
SortedDataset<Scalar> sort_dataset(std::span<const double> x,
                                   std::span<const double> y) {
  // One permutation, two indexed gathers. resize + direct stores keep the
  // gather loops free of capacity checks (push_back re-tests capacity per
  // element), and this runs on every sweep call.
  const std::vector<std::size_t> perm = sort::argsort<double>(x);
  const std::size_t n = x.size();
  SortedDataset<Scalar> sorted;
  sorted.x.resize(n);
  sorted.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted.x[i] = static_cast<Scalar>(x[perm[i]]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    sorted.y[i] = static_cast<Scalar>(y[perm[i]]);
  }
  return sorted;
}

template SortedDataset<float> sort_dataset<float>(std::span<const double>,
                                                  std::span<const double>);
template SortedDataset<double> sort_dataset<double>(std::span<const double>,
                                                    std::span<const double>);

namespace {

void check_window_inputs(const data::Dataset& data,
                         std::span<const double> grid, KernelType kernel,
                         const char* fn) {
  if (data.empty()) {
    throw std::invalid_argument(std::string(fn) + ": empty dataset");
  }
  validate_bandwidth_grid(grid, fn);
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument(
        std::string(fn) + ": kernel '" + std::string(to_string(kernel)) +
        "' is not supported by the window sweep; use the naive path");
  }
}

template <class Scalar>
std::vector<double> profile(const data::Dataset& data,
                            std::span<const double> grid, KernelType kernel,
                            const HostTiling* tiling,
                            parallel::ThreadPool* pool) {
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const detail::NwWindow<Scalar> sweep{sorted.x, sorted.y,
                                       sweep_polynomial(kernel)};
  const std::span<const Scalar> hs(host_grid);
  return tiling == nullptr
             ? detail::sequential_profile(sweep, hs)
             : detail::tiled_profile(sweep, hs, *tiling, pool);
}

}  // namespace

std::vector<double> window_cv_profile(const data::Dataset& data,
                                      std::span<const double> grid,
                                      KernelType kernel, Precision precision) {
  check_window_inputs(data, grid, kernel, "window_cv_profile");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, nullptr, nullptr)
             : profile<double>(data, grid, kernel, nullptr, nullptr);
}

std::vector<double> window_cv_profile_tiled(const data::Dataset& data,
                                            std::span<const double> grid,
                                            KernelType kernel,
                                            Precision precision,
                                            HostTiling tiling,
                                            parallel::ThreadPool* pool) {
  check_window_inputs(data, grid, kernel, "window_cv_profile_tiled");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, &tiling, pool)
             : profile<double>(data, grid, kernel, &tiling, pool);
}

HostTiling host_tiling_from_stream(const StreamingConfig& stream) {
  HostTiling tiling;
  tiling.n_block = stream.n_block;
  tiling.k_block = stream.k_block;
  if (tiling.n_block == 0) {
    std::size_t budget = stream.memory_budget_bytes;
    if (budget == 0 && stream.auto_tune) {
      budget = env_memory_budget();
    }
    if (budget != 0) {
      // The tiled_profile auto-tiling doc's carry model: ≲128 B per
      // observation (two pointers + two moment vectors at terms = 7).
      tiling.n_block = std::max<std::size_t>(1, budget / 128);
    }
  }
  return tiling;
}

}  // namespace kreg
