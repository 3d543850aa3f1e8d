#include "core/spmd_kde.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/detail/kde_polynomials.hpp"
#include "core/detail/lane_reduce.hpp"
#include "core/detail/window_drivers.hpp"
#include "core/detail/window_policy.hpp"
#include "sort/introsort.hpp"
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
    // Sorted x + scores + the n×k LSCV-partial matrix.
    return (n + k + n * k) * sizeof(double);
  }
  // x + scores + the n×n row matrix + two n×k contribution matrices.
  return (n + k + n * n + 2 * n * k) * sizeof(double);
}

std::size_t SpmdKdeSelector::estimated_streamed_bytes(std::size_t n,
                                                      std::size_t k_block) {
  constexpr std::size_t kSums = detail::kKdeMaxMoment + 1;
  // Sorted x, the two carried moment-sum arrays, the four carried window
  // pointers, and one resident n×k_block LSCV-partial block.
  return n * sizeof(double) + 2 * n * kSums * sizeof(double) +
         4 * n * sizeof(std::size_t) + n * k_block * sizeof(double);
}

namespace {

/// The k-block streamed KDE window sweep: the LSCV counterpart of the
/// regression selector's streamed path. One n×k_block partial block stays
/// resident; both admission windows' moment sums and pointers carry across
/// launches in O(n) buffers; each block reduces to its per-bandwidth totals
/// immediately and only the k scores plus a running argmin survive on the
/// host. Constant memory holds one grid slice at a time.
SelectionResult run_streamed_kde_selection(
    spmd::Device& device, const SpmdKdeConfig& config,
    const std::vector<double>& host_x, const BandwidthGrid& grid,
    const detail::SupportPolynomial& kpoly,
    const detail::SupportPolynomial& cpoly, double roughness_value,
    const StreamingPlan& plan, std::size_t tpb, std::string method_name) {
  const std::size_t n = host_x.size();
  const std::size_t k = grid.size();
  using State = detail::KdeWindow::State;

  spmd::DeviceBuffer<double> d_x = device.alloc_global<double>(n, "x");
  device.copy_to_device(d_x, std::span<const double>(host_x));
  const detail::KdeWindow sweep{d_x.span(), kpoly, cpoly};

  // O(n) carry state for both admission windows.
  spmd::DeviceBuffer<std::size_t> d_words =
      device.alloc_global<std::size_t>(n * State::kWords, "kde-carry-words");
  spmd::DeviceBuffer<double> d_scalars =
      device.alloc_global<double>(n * sweep.scalars(), "kde-carry-scalars");
  detail::PassCarry<double> carry{d_words.view(), d_scalars.view()};

  // The one resident LSCV-partial block, reused by every pass.
  spmd::DeviceBuffer<double> d_partial =
      device.alloc_global<double>(n * plan.k_block, "lscv-partial-block");
  spmd::MemView<double> partial_all = d_partial.view();

  const std::vector<double> host_grid(grid.values());
  std::vector<double> scores_out(k);
  std::vector<double> totals(plan.k_block);
  std::size_t best_index = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
    const std::size_t kb = std::min(plan.k_block, k - b0);
    spmd::ConstantBuffer<double> c_block = device.upload_constant<double>(
        std::span<const double>(host_grid).subspan(b0, kb),
        "bandwidth-grid-block");
    spmd::MemView<const double> hs = c_block.view();
    carry.seed = b0 == 0;
    detail::launch_pass(device, "kde_lscv_sweep_kblock", tpb, sweep, 0, n, hs,
                        &carry,
                        [&](std::size_t b, std::size_t i, double conv,
                            double loo) {
                          partial_all[b * n + i] =
                              detail::lscv_pair_partial(conv, loo, n, hs[b]);
                        });

    // Reduce this block's partials to per-bandwidth totals right away, in
    // one launch.
    spmd::reduce_sum_rows<double>(device, partial_all,
                                  spmd::RowLayout::contiguous(kb, n),
                                  std::span<double>(totals), tpb,
                                  config.reduce_variant);
    for (std::size_t b = 0; b < kb; ++b) {
      const double score =
          roughness_value / (static_cast<double>(n) * grid[b0 + b]) +
          totals[b];
      scores_out[b0 + b] = score;
      if (score < best_score) {  // strict <: smallest index wins ties
        best_score = score;
        best_index = b0 + b;
      }
    }
  }

  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = best_score;
  result.grid = grid.values();
  result.scores = std::move(scores_out);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

/// The 2-D (n-block × k-block) tiled KDE sweep: the LSCV counterpart of the
/// regression selector's run_streamed_2d_window_selection. Observations tile
/// into n-blocks, each uploading only a halo-padded slab of the sorted X —
/// the halo reach is the widest admission of either window at h_max, i.e.
/// max(K, K̄ support scale)·h_max — and carrying both windows' moment sums
/// and pointers in O(n_block) buffers. Per-bandwidth LSCV-partial totals
/// carry across n-blocks in the reduction's own per-lane accumulators (see
/// lane_reduce.hpp), so the streamed profile stays bitwise identical to the
/// resident one for ANY (n_block, k_block).
SelectionResult run_streamed_2d_kde_selection(
    spmd::Device& device, const SpmdKdeConfig& config,
    const std::vector<double>& host_x, const BandwidthGrid& grid,
    const detail::SupportPolynomial& kpoly,
    const detail::SupportPolynomial& cpoly, double roughness_value,
    const StreamingPlan& plan, std::size_t tpb, std::string method_name) {
  const std::size_t n = host_x.size();
  const std::size_t k = grid.size();
  using State = detail::KdeWindow::State;
  const std::size_t lane_dim = spmd::detail::reduction_block_dim(device, tpb);
  const double scale = std::max(kpoly.support_scale, cpoly.support_scale);
  const double reach = scale * grid[k - 1];  // widest admission at h_max
  const std::span<const double> host_xs(host_x);
  const std::vector<double> host_grid(grid.values());

  // Carried per-(bandwidth, lane) partial-sum accumulators, zero-uploaded:
  // phase 1 of the resident reduction starts every lane at zero too.
  spmd::DeviceBuffer<double> d_lanes =
      device.alloc_global<double>(k * lane_dim, "lscv-lanes");
  {
    const std::vector<double> zeros(k * lane_dim, 0.0);
    device.copy_to_device(d_lanes, std::span<const double>(zeros));
  }
  spmd::MemView<double> lanes = d_lanes.view();

  for (std::size_t n0 = 0; n0 < n; n0 += plan.n_block) {
    const std::size_t nb = std::min(plan.n_block, n - n0);
    const std::size_t slab_begin = detail::halo_begin(host_xs, n0, reach);
    const std::size_t slab_end = detail::halo_end(host_xs, n0 + nb - 1, reach);
    const std::size_t slab = slab_end - slab_begin;

    spmd::DeviceBuffer<double> d_x =
        device.alloc_global<double>(slab, "x-slab");
    device.copy_to_device(d_x, host_xs.subspan(slab_begin, slab));
    const detail::KdeWindow sweep{d_x.span(), kpoly, cpoly};
    spmd::DeviceBuffer<std::size_t> d_words = device.alloc_global<std::size_t>(
        nb * State::kWords, "kde-carry-words");
    spmd::DeviceBuffer<double> d_scalars =
        device.alloc_global<double>(nb * sweep.scalars(), "kde-carry-scalars");
    detail::PassCarry<double> carry{d_words.view(), d_scalars.view()};
    spmd::DeviceBuffer<double> d_partial =
        device.alloc_global<double>(nb * plan.k_block, "lscv-partial-block");
    spmd::MemView<double> partial_all = d_partial.view();

    for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
      const std::size_t kb = std::min(plan.k_block, k - b0);
      spmd::ConstantBuffer<double> c_block = device.upload_constant<double>(
          std::span<const double>(host_grid).subspan(b0, kb),
          "bandwidth-grid-block");
      spmd::MemView<const double> hs = c_block.view();
      carry.seed = b0 == 0;
      // Slab-relative rows: the halo guarantees the slab never truncates
      // an admission, so the slab-edge guards decide exactly as the
      // resident full-array guards.
      detail::launch_pass(device, "kde_lscv_sweep_tile", tpb, sweep,
                          n0 - slab_begin, nb, hs, &carry,
                          [&](std::size_t b, std::size_t r, double conv,
                              double loo) {
                            partial_all[b * nb + r] =
                                detail::lscv_pair_partial(conv, loo, n, hs[b]);
                          });

      // Phase 1 of the resident reduction, continued across n-blocks.
      detail::lane_fold<double>(device, "lscv_lane_accum", lanes, b0,
                                partial_all,
                                spmd::RowLayout::contiguous(kb, nb), n0,
                                lane_dim);
    }
  }

  // Phase-2 replay over every bandwidth's carried lanes, with the same
  // variant the resident reduction uses.
  std::vector<double> totals(k);
  detail::lane_tree_reduce<double>(device, lanes, lane_dim,
                                   config.reduce_variant,
                                   std::span<double>(totals));
  std::vector<double> scores_out(k);
  std::size_t best_index = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < k; ++b) {
    const double score =
        roughness_value / (static_cast<double>(n) * grid[b]) + totals[b];
    scores_out[b] = score;
    if (score < best_score) {  // strict <: smallest index wins ties
      best_score = score;
      best_index = b;
    }
  }

  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = best_score;
  result.grid = grid.values();
  result.scores = std::move(scores_out);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

}  // namespace

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
  const bool window = config_.algorithm == SweepAlgorithm::kWindow;

  // Host-side staging: the window sweep sorts X once before upload — the
  // LSCV sums run over all (i, l) pairs, so visiting observations in
  // sorted order changes nothing.
  std::vector<double> host_x(xs.begin(), xs.end());
  if (window) {
    sort::introsort(std::span<double>(host_x));
  }

  // Streaming decision (window algorithm only): resolve the 2-D
  // (n-block × k-block) plan against the byte model and the device budget;
  // the default keeps small problems on the resident path bit-for-bit,
  // engages n-resident k-blocks when only the n×k partial matrix is over
  // budget, and tiles the observations too (halo slab + lane-carried
  // partial sums) once even the O(n) carry state would not fit.
  if (window) {
    constexpr std::size_t kSums = detail::kKdeMaxMoment + 1;
    const std::size_t lane_dim =
        spmd::detail::reduction_block_dim(device_, tpb);
    const double reach =
        std::max(kpoly.support_scale, cpoly.support_scale) * grid[k - 1];
    const std::span<const double> xs_host(host_x);
    const auto tile_bytes = [&, n, k](std::size_t nb,
                                      std::size_t kb) -> std::size_t {
      if (nb >= n) {
        // n-resident: the 1-D streamed path's model (no slab, no lanes).
        return estimated_streamed_bytes(n, kb);
      }
      const std::size_t slab = detail::max_halo_span(xs_host, 0, n, nb, reach);
      return slab * sizeof(double) +
             nb * (2 * kSums * sizeof(double) + 4 * sizeof(std::size_t)) +
             nb * kb * sizeof(double) + k * lane_dim * sizeof(double);
    };
    const StreamingPlan plan = resolve_streaming_2d(
        config_.stream, n, k, estimated_bytes(n, k, config_.algorithm),
        tile_bytes, device_.properties().memory_budget().global_bytes);
    if (plan.n_streamed) {
      return run_streamed_2d_kde_selection(device_, config_, host_x, grid,
                                           kpoly, cpoly, roughness_value, plan,
                                           tpb, name());
    }
    if (plan.streamed) {
      return run_streamed_kde_selection(device_, config_, host_x, grid, kpoly,
                                        cpoly, roughness_value, plan, tpb,
                                        name());
    }
  }

  // Device memory plan: the bandwidth grid in constant memory (same
  // 8 KB / 2,048-value cap as regression); X in global memory; per-row
  // mode adds the n×n |Δ| row matrix and two n×k contribution matrices
  // (bandwidth-major), window mode a single n×k LSCV-partial matrix.
  std::vector<double> host_grid(grid.values());
  spmd::ConstantBuffer<double> c_grid =
      device_.upload_constant<double>(host_grid, "bandwidth-grid");
  spmd::DeviceBuffer<double> d_x = device_.alloc_global<double>(n, "x");
  device_.copy_to_device(d_x, std::span<const double>(host_x));
  spmd::DeviceBuffer<double> d_rows;
  spmd::DeviceBuffer<double> d_conv;
  spmd::DeviceBuffer<double> d_loo;
  spmd::DeviceBuffer<double> d_partial;
  if (window) {
    d_partial = device_.alloc_global<double>(n * k, "lscv-partials");
  } else {
    d_rows = device_.alloc_global<double>(n * n, "dist-rows");
    d_conv = device_.alloc_global<double>(n * k, "conv-sums");
    d_loo = device_.alloc_global<double>(n * k, "loo-sums");
  }
  spmd::DeviceBuffer<double> d_scores =
      device_.alloc_global<double>(k, "lscv-scores");

  // X and the row matrix stay raw spans (the per-thread quicksort needs raw
  // element references); the grid, contribution sums, partials, and scores
  // go through checked views for the sanitizer.
  std::span<const double> dxs = d_x.span();
  spmd::MemView<const double> hs = c_grid.view();
  std::span<double> rows = d_rows.span();
  spmd::MemView<double> conv_all = d_conv.view();
  spmd::MemView<double> loo_all = d_loo.view();
  spmd::MemView<double> partial_all = d_partial.view();

  // Main kernel, one thread per observation. Window: two monotone
  // admission windows over the device-global sorted X, no private row, no
  // per-thread sort; the two pair sums combine immediately into the
  // thread's bandwidth-major LSCV partials.
  if (window) {
    detail::launch_pass(device_, "kde_lscv_sweep", tpb,
                        detail::KdeWindow{dxs, kpoly, cpoly}, 0, n, hs,
                        nullptr,
                        [&](std::size_t b, std::size_t i, double conv,
                            double loo) {
                          partial_all[b * n + i] =
                              detail::lscv_pair_partial(conv, loo, n, hs[b]);
                        });
  } else {
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
            const double h = hs[b];
            conv_sweep.admit_through(row, cpoly.support_scale * h, max_power);
            loo_sweep.admit_through(row, kpoly.support_scale * h, max_power);
            // Bandwidth-major for contiguous per-bandwidth reductions.
            conv_all[b * n + i] = conv_sweep.combine(cpoly, h);
            loo_all[b * n + i] = loo_sweep.combine(kpoly, h);
          }
        });
  }

  // Single-block reductions, one launch per matrix (the window partials,
  // or the per-row conv and loo sums), then assemble the LSCV scores.
  spmd::MemView<double> scores = d_scores.view();
  const auto row_sums = [&](spmd::MemView<double> matrix) {
    std::vector<double> sums(k);
    spmd::reduce_sum_rows<double>(device_, matrix,
                                  spmd::RowLayout::contiguous(k, n),
                                  std::span<double>(sums), tpb,
                                  config_.reduce_variant);
    return sums;
  };
  if (window) {
    const std::vector<double> partial = row_sums(partial_all);
    for (std::size_t b = 0; b < k; ++b) {
      scores[b] =
          roughness_value / (static_cast<double>(n) * grid[b]) + partial[b];
    }
  } else {
    const std::vector<double> conv = row_sums(conv_all);
    const std::vector<double> loo = row_sums(loo_all);
    for (std::size_t b = 0; b < k; ++b) {
      scores[b] =
          detail::assemble_lscv(roughness_value, conv[b], loo[b], n, grid[b]);
    }
  }
  const spmd::ArgminResult<double> best = spmd::reduce_argmin<double>(
      device_, spmd::MemView<const double>(scores), tpb);

  SelectionResult result;
  result.bandwidth = grid[best.index];
  result.cv_score = best.value;
  result.grid = grid.values();
  std::vector<double> host_scores(k);
  device_.copy_to_host(std::span<double>(host_scores), d_scores);
  result.scores = std::move(host_scores);
  result.evaluations = k;
  result.method = name();
  return result;
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
