#include "core/window_sweep.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "core/batched_sweep.hpp"
#include "core/detail/batched_lanes.hpp"
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

/// NW's pass of the host tiled profile: a tile's rows as lane batches of
/// kLaneWidth consecutive rows (batch_seed/batch_resume), each lane bitwise
/// the scalar NwWindow row. Instantiates the host lane kernels.
template <class Scalar>
struct NwLaneTilePass {
  using sweep_type = detail::NwWindow<Scalar>;
  using Tile = std::array<detail::LaneBatch<Scalar>,
                          detail::kTileRows / kLaneWidth>;

  sweep_type sweep;

  void seed(Tile& tile, std::size_t pos0, std::size_t rows) const {
    for (std::size_t g = 0; g * kLaneWidth < rows; ++g) {
      detail::LaneBatch<Scalar>& batch = tile[g];
      batch.lanes = std::min(kLaneWidth, rows - g * kLaneWidth);
      for (std::size_t l = 0; l < batch.lanes; ++l) {
        batch.pos[l] = pos0 + g * kLaneWidth + l;
      }
      detail::batch_seed(batch, sweep.xs, sweep.ys);
    }
  }

  template <class Write>
  void resume(Tile& tile, std::size_t /*pos0*/, std::size_t rows,
              std::span<const Scalar> hs, Write&& write) const {
    for (std::size_t g = 0; g * kLaneWidth < rows; ++g) {
      detail::batch_resume(tile[g], sweep.xs, sweep.ys, hs, sweep.poly,
                           [&](std::size_t b, std::size_t l, Scalar sq) {
                             write(b, g * kLaneWidth + l, sq);
                           });
    }
  }
};

template <class Scalar>
std::vector<double> profile(const data::Dataset& data,
                            std::span<const double> grid, KernelType kernel,
                            bool tiled, parallel::ThreadPool* pool) {
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const detail::NwWindow<Scalar> sweep{sorted.x, sorted.y,
                                       sweep_polynomial(kernel)};
  const std::span<const Scalar> hs(host_grid);
  return tiled ? detail::tiled_profile(NwLaneTilePass<Scalar>{sweep}, hs, pool)
               : detail::sequential_profile(sweep, hs);
}

}  // namespace

std::vector<double> window_cv_profile(const data::Dataset& data,
                                      std::span<const double> grid,
                                      KernelType kernel, Precision precision) {
  check_window_inputs(data, grid, kernel, "window_cv_profile");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, false, nullptr)
             : profile<double>(data, grid, kernel, false, nullptr);
}

std::vector<double> window_cv_profile_tiled(const data::Dataset& data,
                                            std::span<const double> grid,
                                            KernelType kernel,
                                            Precision precision,
                                            parallel::ThreadPool* pool) {
  check_window_inputs(data, grid, kernel, "window_cv_profile_tiled");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, true, pool)
             : profile<double>(data, grid, kernel, true, pool);
}

}  // namespace kreg
