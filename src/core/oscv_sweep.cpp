#include "core/oscv_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/detail/window_drivers.hpp"
#include "core/detail/window_policy.hpp"
#include "core/validate_grid.hpp"

namespace kreg {

namespace {

void check_oscv_inputs(const data::Dataset& data, std::span<const double> grid,
                       KernelType kernel, const char* fn) {
  if (data.empty()) {
    throw std::invalid_argument(std::string(fn) + ": empty dataset");
  }
  validate_bandwidth_grid(grid, fn);
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument(
        std::string(fn) + ": kernel '" + std::string(to_string(kernel)) +
        "' is not supported by the one-sided window sweep");
  }
}

template <class Scalar>
std::vector<double> profile(const data::Dataset& data,
                            std::span<const double> grid, KernelType kernel,
                            bool tiled, parallel::ThreadPool* pool) {
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const detail::OscvWindow<Scalar> sweep{sorted.x, sorted.y,
                                         sweep_polynomial(kernel)};
  const std::span<const Scalar> hs(host_grid);
  return tiled ? detail::tiled_profile(
                     detail::RowPass<detail::OscvWindow<Scalar>>{sweep}, hs,
                     pool)
               : detail::sequential_profile(sweep, hs);
}

/// The O(n²·|grid|) reference: per (observation, b) the one-sided moments
/// are re-accumulated from scratch in the same outward (descending-index)
/// order the fast carry follows, then scored through the shared
/// oscv_residual — so the reference reproduces the fast profile bitwise.
template <class Scalar>
std::vector<double> profile_naive(const data::Dataset& data,
                                  std::span<const double> grid,
                                  KernelType kernel) {
  const std::size_t n = data.size();
  const SweepPolynomial poly = sweep_polynomial(kernel);
  const std::size_t terms = detail::oscv_moment_count(poly);
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const std::span<const Scalar> xs(sorted.x);
  const std::span<const Scalar> ys(sorted.y);

  std::vector<double> totals(grid.size(), 0.0);
  Scalar mq[detail::kOscvMaxMoments];
  Scalar nq[detail::kOscvMaxMoments];
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Scalar xi = xs[pos];
    const Scalar yi = ys[pos];
    for (std::size_t b = 0; b < host_grid.size(); ++b) {
      const Scalar h = host_grid[b];
      std::fill(mq, mq + terms, Scalar{});
      std::fill(nq, nq + terms, Scalar{});
      std::size_t count = 0;
      for (std::size_t j = pos; j > 0 && xi - xs[j - 1] <= h; --j) {
        const Scalar d = xi - xs[j - 1];
        if (d > Scalar{0}) {
          const Scalar yl = ys[j - 1];
          Scalar pw = Scalar{1};
          for (std::size_t q = 0; q < terms; ++q) {
            mq[q] += pw;
            nq[q] += yl * pw;
            pw *= d;
          }
          ++count;
        }
      }
      totals[b] += static_cast<double>(detail::oscv_residual<Scalar>(
          poly, h, count, std::span<const Scalar>(mq, terms),
          std::span<const Scalar>(nq, terms), yi));
    }
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);
  }
  return totals;
}

/// Device path: the device window driver over all n positions, as for
/// k-NN (resident = the one-k-block case).
template <class Scalar>
std::vector<double> profile_device(spmd::Device& device,
                                   const data::Dataset& data,
                                   std::span<const double> grid,
                                   KernelType kernel,
                                   const OscvDeviceConfig& config) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const detail::OscvWindow<Scalar> sweep{sorted.x, sorted.y,
                                         sweep_polynomial(kernel)};
  const StreamingPlan plan =
      detail::window_plan_k<Scalar>(device, config.stream, sweep, k);
  // Clamp the request to the device, as the NW and KDE selectors do.
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);

  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  std::vector<double> cv(k, 0.0);
  detail::device_window_totals(
      device,
      detail::PolicyPass<detail::OscvWindow<Scalar>>{sweep, tpb},
      std::span<const Scalar>(host_grid), 0, n, plan, Scalar{}, cv,
      {"oscv_sweep", "oscv_score_fold", "oscv-grid", "oscv"});
  for (double& total : cv) {
    total /= static_cast<double>(n);
  }
  return cv;
}

}  // namespace

double oscv_rescale_constant(KernelType kernel) {
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument(
        "oscv_rescale_constant: kernel '" + std::string(to_string(kernel)) +
        "' has no closed-form one-sided rescaling here (not sweepable)");
  }
  const SweepPolynomial poly = sweep_polynomial(kernel);
  // One-sided kernel moments a_m = ∫₀¹ u^m K(u) du and squared moments
  // I_m = ∫₀¹ u^m K(u)² du, all rational in the polynomial coefficients.
  const auto a = [&](std::size_t m) {
    double sum = 0.0;
    for (std::size_t p = 0; p <= poly.max_power; ++p) {
      sum += poly.coeff[p] / static_cast<double>(p + m + 1);
    }
    return sum;
  };
  const auto i2 = [&](std::size_t m) {
    double sum = 0.0;
    for (std::size_t p = 0; p <= poly.max_power; ++p) {
      for (std::size_t q = 0; q <= poly.max_power; ++q) {
        sum += poly.coeff[p] * poly.coeff[q] /
               static_cast<double>(p + q + m + 1);
      }
    }
    return sum;
  };
  const double a0 = a(0);
  const double a1 = a(1);
  const double a2 = a(2);
  const double a3 = a(3);
  const double det = a0 * a2 - a1 * a1;
  // The one-sided local-linear equivalent kernel L(u) = (a₂ − a₁u)K(u)/det
  // on [0, 1]: ∫L = 1 and ∫uL = 0 by construction.
  const double mu2_l = (a2 * a2 - a1 * a3) / det;
  const double r_l =
      (a2 * a2 * i2(0) - 2.0 * a1 * a2 * i2(1) + a1 * a1 * i2(2)) /
      (det * det);
  // The symmetric kernel's constants, from the same half-line integrals.
  const double r_k = 2.0 * i2(0);
  const double mu2_k = 2.0 * a2;
  return std::pow((r_k * mu2_l * mu2_l) / (r_l * mu2_k * mu2_k), 0.2);
}

std::vector<double> oscv_profile(const data::Dataset& data,
                                 std::span<const double> grid,
                                 KernelType kernel, Precision precision) {
  check_oscv_inputs(data, grid, kernel, "oscv_profile");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, false, nullptr)
             : profile<double>(data, grid, kernel, false, nullptr);
}

std::vector<double> oscv_profile_tiled(const data::Dataset& data,
                                       std::span<const double> grid,
                                       KernelType kernel, Precision precision,
                                       parallel::ThreadPool* pool) {
  check_oscv_inputs(data, grid, kernel, "oscv_profile_tiled");
  return precision == Precision::kFloat
             ? profile<float>(data, grid, kernel, true, pool)
             : profile<double>(data, grid, kernel, true, pool);
}

std::vector<double> oscv_profile_naive(const data::Dataset& data,
                                       std::span<const double> grid,
                                       KernelType kernel,
                                       Precision precision) {
  check_oscv_inputs(data, grid, kernel, "oscv_profile_naive");
  return precision == Precision::kFloat
             ? profile_naive<float>(data, grid, kernel)
             : profile_naive<double>(data, grid, kernel);
}

std::vector<double> oscv_profile_device(spmd::Device& device,
                                        const data::Dataset& data,
                                        std::span<const double> grid,
                                        KernelType kernel,
                                        OscvDeviceConfig config) {
  check_oscv_inputs(data, grid, kernel, "oscv_profile_device");
  if (config.threads_per_block == 0) {
    throw std::invalid_argument(
        "oscv_profile_device: threads_per_block must be > 0");
  }
  return config.precision == Precision::kFloat
             ? profile_device<float>(device, data, grid, kernel, config)
             : profile_device<double>(device, data, grid, kernel, config);
}

std::size_t oscv_estimated_streamed_bytes(std::size_t n, std::size_t k_block,
                                          Precision precision,
                                          KernelType kernel) {
  const SweepPolynomial poly = sweep_polynomial(kernel);
  // A streamed plan's grid outgrows its block, so the carry is held.
  return precision == Precision::kFloat
             ? detail::window_bytes(detail::OscvWindow<float>{{}, {}, poly},
                                    n, n, k_block + 1, k_block)
             : detail::window_bytes(detail::OscvWindow<double>{{}, {}, poly},
                                    n, n, k_block + 1, k_block);
}

SelectionResult OscvSweepSelector::select(const data::Dataset& data,
                                          const BandwidthGrid& grid) const {
  std::vector<double> scores =
      parallel_ ? oscv_profile_tiled(data, grid.values(), kernel_, precision_,
                                     pool_)
                : oscv_profile(data, grid.values(), kernel_, precision_);
  SelectionResult result =
      selection_from_profile(grid, std::move(scores), name());
  // The OSCV rescaling: grid/scores stay the one-sided profile over the
  // b-grid; the reported bandwidth is the two-sided ĥ = C·b̂.
  result.bandwidth *= oscv_rescale_constant(kernel_);
  return result;
}

std::string OscvSweepSelector::name() const {
  return parallel_ ? "oscv-sweep-parallel" : "oscv-sweep";
}

}  // namespace kreg
