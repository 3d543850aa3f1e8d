#include "core/spmd_kde.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/detail/kde_polynomials.hpp"
#include "core/detail/window_drivers.hpp"
#include "core/detail/window_policy.hpp"
#include "core/selectors.hpp"
#include "sort/argsort.hpp"
#include "sort/iterative_quicksort.hpp"

namespace kreg {

SpmdKdeSelector::SpmdKdeSelector(spmd::Device& device, SpmdKdeConfig config)
    : device_(device), config_(config) {
  if (config_.threads_per_block == 0) {
    throw std::invalid_argument("SpmdKdeSelector: threads_per_block == 0");
  }
}

std::size_t SpmdKdeSelector::estimated_bytes(std::size_t n, std::size_t k,
                                             SweepAlgorithm algorithm) {
  if (algorithm == SweepAlgorithm::kWindow) {
    return detail::window_bytes(detail::KdeWindow{}, n, n, k, k);
  }
  // x + the n×n row matrix + two n×k contribution matrices.
  return (n + n * n + 2 * n * k) * sizeof(double);
}

std::size_t SpmdKdeSelector::estimated_streamed_bytes(std::size_t n,
                                                      std::size_t k_block) {
  // A streamed plan's grid outgrows its block, so the carry is held.
  return detail::window_bytes(detail::KdeWindow{}, n, n, k_block + 1,
                              k_block);
}

SelectionResult SpmdKdeSelector::select(std::span<const double> xs,
                                        const BandwidthGrid& grid) const {
  if (!is_kde_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "SpmdKdeSelector: kernel '" + std::string(to_string(config_.kernel)) +
        "' lacks a single-polynomial self-convolution");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("SpmdKdeSelector: need >= 2 observations");
  }
  const std::size_t n = xs.size();
  const std::size_t k = grid.size();
  const std::size_t tpb = std::min(config_.threads_per_block,
                                   device_.properties().max_threads_per_block);
  const detail::SupportPolynomial kpoly =
      detail::kde_kernel_poly(config_.kernel);
  const detail::SupportPolynomial cpoly =
      detail::kde_convolution_poly(config_.kernel);
  const double roughness_value = roughness(config_.kernel);
  const std::vector<double>& hs = grid.values();
  std::vector<double> scores(k);

  if (config_.algorithm == SweepAlgorithm::kWindow) {
    // The window sweep sorts X once before upload — the LSCV sums run over
    // all (i, l) pairs, so visiting observations in sorted order changes
    // nothing. Each thread's two pair sums combine into its LSCV partial,
    // and the device window driver folds the partials per bandwidth; the
    // halo reach is the wider window's admission at h_max.
    const std::vector<double> sorted_x = sort::sorted_keys(xs);
    const detail::KdeWindow sweep{sorted_x, kpoly, cpoly};
    const double reach =
        std::max(kpoly.support_scale, cpoly.support_scale) * grid[k - 1];
    const StreamingPlan plan = detail::window_plan<double>(
        device_, config_.stream, sweep, 0, n, k, reach);
    detail::device_window_totals(
        device_, detail::PolicyPass<detail::KdeWindow>{sweep, tpb},
        std::span<const double>(hs), 0, n, plan, reach, scores,
        {"kde_lscv_sweep", "lscv_score_fold", "bandwidth-grid", "lscv"},
        [n](const spmd::MemView<const double>& h, std::size_t b, double conv,
            double loo) {
          return detail::lscv_pair_partial(conv, loo, n, h[b]);
        });
    for (std::size_t b = 0; b < k; ++b) {
      scores[b] += roughness_value / (static_cast<double>(n) * grid[b]);
    }
    return selection_from_profile(grid, std::move(scores), name());
  }

  // Per-row sort: the bandwidth grid in constant memory (same 8 KB / 2,048-
  // value cap as regression); X, the n×n |Δ| row matrix and two n×k
  // contribution matrices (bandwidth-major) in global memory.
  spmd::ConstantBuffer<double> c_grid =
      device_.upload_constant<double>(hs, "bandwidth-grid");
  spmd::DeviceBuffer<double> d_x = device_.alloc_global<double>(n, "x");
  device_.copy_to_device(d_x, xs);
  spmd::DeviceBuffer<double> d_rows =
      device_.alloc_global<double>(n * n, "dist-rows");
  spmd::DeviceBuffer<double> d_conv =
      device_.alloc_global<double>(n * k, "conv-sums");
  spmd::DeviceBuffer<double> d_loo =
      device_.alloc_global<double>(n * k, "loo-sums");

  // X and the row matrix stay raw spans (the per-thread quicksort needs raw
  // element references); the grid and contribution sums go through checked
  // views for the sanitizer.
  std::span<const double> dxs = d_x.span();
  spmd::MemView<const double> h_grid = c_grid.view();
  std::span<double> rows = d_rows.span();
  spmd::MemView<double> conv_all = d_conv.view();
  spmd::MemView<double> loo_all = d_loo.view();

  // Main kernel, one thread per observation.
  const std::size_t max_power = std::max(kpoly.max_power, cpoly.max_power);
  device_.launch(
      "kde_lscv_sweep", spmd::LaunchConfig::cover(n, tpb),
      [&, n, k](const spmd::ThreadCtx& t) {
        const std::size_t i = t.global_idx();
        if (i >= n) {
          return;
        }
        std::span<double> row = rows.subspan(i * n, n);
        const double xi = dxs[i];
        for (std::size_t l = 0; l < n; ++l) {
          const double d = dxs[l] - xi;
          row[l] = d < 0.0 ? -d : d;
        }
        sort::iterative_quicksort(row);

        detail::MomentSweep conv_sweep;
        detail::MomentSweep loo_sweep;
        for (std::size_t b = 0; b < k; ++b) {
          const double h = h_grid[b];
          conv_sweep.admit_through(row, cpoly.support_scale * h, max_power);
          loo_sweep.admit_through(row, kpoly.support_scale * h, max_power);
          // Bandwidth-major for contiguous per-bandwidth reductions.
          conv_all[b * n + i] = conv_sweep.combine(cpoly, h);
          loo_all[b * n + i] = loo_sweep.combine(kpoly, h);
        }
      });

  // Single-block reductions, one launch per matrix, then assemble the LSCV
  // scores.
  const auto row_sums = [&](spmd::MemView<double> matrix) {
    std::vector<double> sums(k);
    spmd::reduce_sum_rows<double>(device_, matrix,
                                  spmd::RowLayout::contiguous(k, n),
                                  std::span<double>(sums), tpb,
                                  config_.reduce_variant);
    return sums;
  };
  const std::vector<double> conv = row_sums(conv_all);
  const std::vector<double> loo = row_sums(loo_all);
  for (std::size_t b = 0; b < k; ++b) {
    scores[b] =
        detail::assemble_lscv(roughness_value, conv[b], loo[b], n, grid[b]);
  }
  return selection_from_profile(grid, std::move(scores), name());
}

std::string SpmdKdeSelector::name() const {
  std::string n = "spmd-kde-lscv(";
  n += to_string(config_.kernel);
  n += ",tpb=" + std::to_string(config_.threads_per_block);
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    n += ",window";
  }
  if (config_.stream.k_block != 0) {
    n += ",kblock=" + std::to_string(config_.stream.k_block);
  }
  if (config_.stream.n_block != 0) {
    n += ",nblock=" + std::to_string(config_.stream.n_block);
  }
  if (config_.stream.memory_budget_bytes != 0) {
    n += ",budget=" + std::to_string(config_.stream.memory_budget_bytes);
  }
  n += ")";
  return n;
}

}  // namespace kreg
