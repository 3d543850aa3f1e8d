#include "core/window_sweep.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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
  // Rows with equal X follow Y, so only identical pairs keep an order of
  // their own, and the row order of the sample cannot reach the columns.
  sort::Ordering order =
      sort::argsort(x, [y](std::size_t a, std::size_t b) {
        return sort::ordered_bits(y[a]) < sort::ordered_bits(y[b]);
      });
  SortedDataset<Scalar> sorted;
  sorted.y.resize(x.size());
  if constexpr (std::is_same_v<Scalar, double>) {
    order.for_each([&](std::size_t p, std::size_t row) {
      sorted.y[p] = y[row];
    });
    sorted.x = std::move(order).take_keys();
  } else {
    sorted.x.resize(x.size());
    const std::span<const double> keys = order.keys();
    order.for_each([&](std::size_t p, std::size_t row) {
      sorted.x[p] = static_cast<Scalar>(keys[p]);
      sorted.y[p] = static_cast<Scalar>(y[row]);
    });
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
