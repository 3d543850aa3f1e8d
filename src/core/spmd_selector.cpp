#include "core/spmd_selector.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/detail/lane_reduce.hpp"
#include "core/detail/window_pass.hpp"
#include "core/window_sweep.hpp"

namespace kreg {

std::string_view to_string(ResidualLayout layout) noexcept {
  switch (layout) {
    case ResidualLayout::kObservationMajor:
      return "observation-major";
    case ResidualLayout::kBandwidthMajor:
      return "bandwidth-major";
  }
  return "unknown";
}

SpmdGridSelector::SpmdGridSelector(spmd::Device& device,
                                   SpmdSelectorConfig config)
    : device_(device), config_(config) {
  if (config_.threads_per_block == 0) {
    throw std::invalid_argument("SpmdGridSelector: threads_per_block == 0");
  }
  validate_lane_width(config_.lane_width);
}

void validate_lane_width(std::size_t lane_width) {
  if (lane_width != 1 && lane_width != kLaneWidth) {
    throw std::invalid_argument("lane_width must be 1 or " +
                                std::to_string(kLaneWidth) + " (got " +
                                std::to_string(lane_width) + ")");
  }
}

std::size_t SpmdGridSelector::estimated_bytes(std::size_t n, std::size_t k,
                                              Precision precision,
                                              bool streaming,
                                              SweepAlgorithm algorithm) {
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  if (algorithm == SweepAlgorithm::kWindow) {
    // Sorted x + y + scores + the n×k residual matrix; no row matrices and
    // no per-thread sum matrices — the window sweep recombines in place.
    return (2 * n + k + n * k) * elem;
  }
  // x + y + scores + two n×k sum matrices + n×k residual matrix …
  std::size_t elems = 2 * n + k + 3 * n * k;
  // … plus the two n×n matrices unless streaming.
  if (!streaming) {
    elems += 2 * n * n;
  }
  return elems * elem;
}

std::size_t SpmdGridSelector::estimated_streamed_bytes(std::size_t n,
                                                       std::size_t k_block,
                                                       Precision precision,
                                                       KernelType kernel) {
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  const std::size_t terms = sweep_polynomial(kernel).max_power + 1;
  // Sorted x + y, the carried moment sums S_m/T_m, the two window pointers,
  // and one resident n×k_block residual block.
  return 2 * n * elem + 2 * n * terms * elem + 2 * n * sizeof(std::size_t) +
         n * k_block * elem;
}

namespace {

/// The residual matrix's rows as the score reduction walks them:
/// `bandwidths` rows of `observations` residuals, bandwidth-major (one
/// contiguous row per bandwidth) or observation-major (stride =
/// bandwidths).
spmd::RowLayout residual_rows(bool bandwidth_major, std::size_t bandwidths,
                              std::size_t observations) {
  return bandwidth_major
             ? spmd::RowLayout::contiguous(bandwidths, observations)
             : spmd::RowLayout::interleaved(bandwidths, observations);
}

/// The Harris schedule of the per-bandwidth score sums: the configured
/// variant for bandwidth-major rows; observation-major rows have always
/// reduced sequentially, and streamed plans replay whichever the resident
/// plan of the same layout runs.
spmd::ReduceVariant score_variant(const SpmdSelectorConfig& config) {
  return config.layout == ResidualLayout::kBandwidthMajor
             ? config.reduce_variant
             : spmd::ReduceVariant::kSequential;
}

/// The k-block streamed window sweep (tentpole of the streaming extension):
/// device memory is O(n + n·k_block) — sorted x/y, the per-observation
/// carry state (two window pointers + moment sums), and ONE resident
/// residual block that every bandwidth block streams through. Each pass
/// launches the sweep over its grid slice resuming from the carried state,
/// reduces the block to its per-bandwidth sums immediately, and keeps only
/// the k score totals plus a running argmin on the host. Because the carry
/// makes each slice perform exactly the admissions and recombinations the
/// full-grid sweep would, the streamed profile matches resident bitwise.
/// Constant memory holds only the current slice, so grids beyond the 8 KB
/// cache cap stream through as well.
template <class Scalar>
SelectionResult run_streamed_window_selection(
    spmd::Device& device, const SpmdSelectorConfig& config,
    const std::vector<Scalar>& host_x, const std::vector<Scalar>& host_y,
    const std::vector<Scalar>& host_grid, const BandwidthGrid& grid,
    const StreamingPlan& plan, std::size_t tpb, const SweepPolynomial& poly,
    std::string method_name) {
  const std::size_t n = host_x.size();
  const std::size_t k = host_grid.size();
  const std::size_t terms = poly.max_power + 1;
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;

  spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
  spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
  device.copy_to_device(d_x, std::span<const Scalar>(host_x));
  device.copy_to_device(d_y, std::span<const Scalar>(host_y));

  // O(n) carry state surviving across block launches.
  spmd::DeviceBuffer<std::size_t> d_lo =
      device.alloc_global<std::size_t>(n, "window-lo");
  spmd::DeviceBuffer<std::size_t> d_hi =
      device.alloc_global<std::size_t>(n, "window-hi");
  spmd::DeviceBuffer<Scalar> d_sm =
      device.alloc_global<Scalar>(n * terms, "moment-s");
  spmd::DeviceBuffer<Scalar> d_tm =
      device.alloc_global<Scalar>(n * terms, "moment-t");

  // The one resident residual block, reused by every pass.
  spmd::DeviceBuffer<Scalar> d_resid =
      device.alloc_global<Scalar>(n * plan.k_block, "residual-block");

  std::span<const Scalar> xs = d_x.span();
  std::span<const Scalar> ys = d_y.span();
  spmd::MemView<Scalar> resid_all = d_resid.view();

  std::vector<double> cv(k);
  std::vector<Scalar> totals(plan.k_block);
  std::size_t best_index = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
    const std::size_t kb = std::min(plan.k_block, k - b0);
    const std::vector<Scalar> host_block(host_grid.begin() + b0,
                                         host_grid.begin() + b0 + kb);
    spmd::ConstantBuffer<Scalar> c_block =
        device.upload_constant<Scalar>(host_block, "bandwidth-grid-block");
    const detail::WindowCarry<Scalar> carry{d_lo.view(), d_hi.view(),
                                            d_sm.view(), d_tm.view(),
                                            b0 == 0};
    detail::launch_window_pass<Scalar>(
        device, "cv_sweep_kblock", config.lane_width, tpb, xs, ys, 0, n,
        c_block.view(), poly, &carry,
        [&, kb](std::size_t b, std::size_t j, Scalar sq) {
          resid_all[bandwidth_major ? b * n + j : j * kb + b] = sq;
        });

    // Reduce the block to its kb per-bandwidth sums right away, in one
    // launch; only the score totals and the running argmin survive the pass.
    spmd::reduce_sum_rows<Scalar>(device, resid_all,
                                  residual_rows(bandwidth_major, kb, n),
                                  std::span<Scalar>(totals), tpb,
                                  score_variant(config));
    for (std::size_t b = 0; b < kb; ++b) {
      const double score =
          static_cast<double>(totals[b]) / static_cast<double>(n);
      cv[b0 + b] = score;
      if (score < best_score) {  // strict <: smallest index wins ties, the
        best_score = score;      // same order as the device argmin
        best_index = b0 + b;
      }
    }
  }

  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = cv[best_index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

/// The 2-D (n-block × k-block) tiled window sweep: nothing O(n) stays
/// resident. Observations tile into n-blocks; each block uploads only a
/// *slab* of the sorted arrays — the block plus a halo wide enough to cover
/// its largest admission window at h_max (bounds found host-side by binary
/// search; see halo_begin/halo_end in device_sweep.hpp) — and carries its
/// window state in O(n_block) buffers across the inner k-block loop.
/// Per-bandwidth score totals carry across n-blocks in the reduction's own
/// per-lane accumulators (see lane_reduce.hpp), so the streamed profile is
/// bitwise identical to the resident one for ANY (n_block, k_block).
/// Device memory: O(slab + n_block·k_block + k·lane_dim).
template <class Scalar>
SelectionResult run_streamed_2d_window_selection(
    spmd::Device& device, const SpmdSelectorConfig& config,
    const std::vector<Scalar>& host_x, const std::vector<Scalar>& host_y,
    const std::vector<Scalar>& host_grid, const BandwidthGrid& grid,
    const StreamingPlan& plan, std::size_t tpb, const SweepPolynomial& poly,
    std::string method_name) {
  const std::size_t n = host_x.size();
  const std::size_t k = host_grid.size();
  const std::size_t terms = poly.max_power + 1;
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;
  const std::size_t lane_dim = spmd::detail::reduction_block_dim(device, tpb);
  const Scalar reach = host_grid.back();  // widest admission: h_max
  const std::span<const Scalar> host_xs(host_x);
  const std::span<const Scalar> host_ys(host_y);

  // Carried per-(bandwidth, lane) score accumulators. Uploaded as zeros —
  // phase 1 of the resident reduction starts every lane at zero too, so
  // accumulating each block's residuals in ascending global order
  // reproduces its exact left fold.
  spmd::DeviceBuffer<Scalar> d_lanes =
      device.alloc_global<Scalar>(k * lane_dim, "score-lanes");
  {
    const std::vector<Scalar> zeros(k * lane_dim, Scalar{});
    device.copy_to_device(d_lanes, std::span<const Scalar>(zeros));
  }
  spmd::MemView<Scalar> lanes = d_lanes.view();

  for (std::size_t n0 = 0; n0 < n; n0 += plan.n_block) {
    const std::size_t nb = std::min(plan.n_block, n - n0);
    const std::size_t slab_begin = detail::halo_begin(host_xs, n0, reach);
    const std::size_t slab_end =
        detail::halo_end(host_xs, n0 + nb - 1, reach);
    const std::size_t slab = slab_end - slab_begin;

    // This block's slab of the sorted arrays plus its O(n_block) carry
    // state and residual block; all freed before the next block uploads.
    spmd::DeviceBuffer<Scalar> d_x =
        device.alloc_global<Scalar>(slab, "x-slab");
    spmd::DeviceBuffer<Scalar> d_y =
        device.alloc_global<Scalar>(slab, "y-slab");
    device.copy_to_device(d_x, host_xs.subspan(slab_begin, slab));
    device.copy_to_device(d_y, host_ys.subspan(slab_begin, slab));
    spmd::DeviceBuffer<std::size_t> d_lo =
        device.alloc_global<std::size_t>(nb, "window-lo");
    spmd::DeviceBuffer<std::size_t> d_hi =
        device.alloc_global<std::size_t>(nb, "window-hi");
    spmd::DeviceBuffer<Scalar> d_sm =
        device.alloc_global<Scalar>(nb * terms, "moment-s");
    spmd::DeviceBuffer<Scalar> d_tm =
        device.alloc_global<Scalar>(nb * terms, "moment-t");
    spmd::DeviceBuffer<Scalar> d_resid =
        device.alloc_global<Scalar>(nb * plan.k_block, "residual-block");

    std::span<const Scalar> xs = d_x.span();
    std::span<const Scalar> ys = d_y.span();
    spmd::MemView<Scalar> resid_all = d_resid.view();
    const std::size_t rel0 = n0 - slab_begin;  // block's first slab index

    for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
      const std::size_t kb = std::min(plan.k_block, k - b0);
      const std::vector<Scalar> host_block(host_grid.begin() + b0,
                                           host_grid.begin() + b0 + kb);
      spmd::ConstantBuffer<Scalar> c_block =
          device.upload_constant<Scalar>(host_block, "bandwidth-grid-block");
      // Positions are slab-relative: the halo guarantees no admission ever
      // reaches a slab edge the resident sweep would cross, so the
      // slab-relative guards decide exactly as the absolute ones.
      const detail::WindowCarry<Scalar> carry{d_lo.view(), d_hi.view(),
                                              d_sm.view(), d_tm.view(),
                                              b0 == 0};
      detail::launch_window_pass<Scalar>(
          device, "cv_sweep_tile", config.lane_width, tpb, xs, ys, rel0, nb,
          c_block.view(), poly, &carry,
          [&, nb, kb](std::size_t b, std::size_t r, Scalar sq) {
            resid_all[bandwidth_major ? b * nb + r : r * kb + b] = sq;
          });

      // Phase 1 of the resident reduction, continued across n-blocks.
      detail::lane_fold<Scalar>(device, "score_lane_accum", lanes, b0,
                                resid_all,
                                residual_rows(bandwidth_major, kb, nb), n0,
                                lane_dim);
    }
  }

  // Phase-2 replay over every bandwidth's carried lanes, with the schedule
  // the resident plan of the same layout runs.
  std::vector<Scalar> totals(k);
  detail::lane_tree_reduce<Scalar>(device, lanes, lane_dim,
                                   score_variant(config),
                                   std::span<Scalar>(totals));
  std::vector<double> cv(k);
  std::size_t best_index = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < k; ++b) {
    const double score =
        static_cast<double>(totals[b]) / static_cast<double>(n);
    cv[b] = score;
    if (score < best_score) {  // strict <: smallest index wins ties
      best_score = score;
      best_index = b;
    }
  }

  SelectionResult result;
  result.bandwidth = grid[best_index];
  result.cv_score = cv[best_index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

/// The window sweep's (n-block × k-block) plan for sorted `host_x` and a
/// k-point grid reaching `reach` = h_max: resolve_streaming_2d against this
/// problem's byte model and the device's global-memory budget. Small
/// problems stay resident, n-resident k-blocks take over when only the n×k
/// residual matrix is over budget, and the observations tile too (halo slab
/// + lane-carried scores) once even the O(n) carry state would not fit.
template <class Scalar>
StreamingPlan window_plan(const spmd::Device& device,
                          const SpmdSelectorConfig& config,
                          std::span<const Scalar> host_x, Scalar reach,
                          std::size_t k) {
  const std::size_t n = host_x.size();
  const std::size_t elem = sizeof(Scalar);
  const std::size_t terms = sweep_polynomial(config.kernel).max_power + 1;
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const std::size_t lane_dim = spmd::detail::reduction_block_dim(device, tpb);
  const auto tile_bytes = [&, n, k](std::size_t nb,
                                    std::size_t kb) -> std::size_t {
    if (nb >= n) {
      // n-resident: the 1-D streamed path's model (no slab, no lanes).
      return SpmdGridSelector::estimated_streamed_bytes(
          n, kb, config.precision, config.kernel);
    }
    const std::size_t slab = detail::max_halo_span(host_x, 0, n, nb, reach);
    return 2 * slab * elem +
           nb * (2 * terms * elem + 2 * sizeof(std::size_t)) +
           nb * kb * elem + k * lane_dim * elem;
  };
  return resolve_streaming_2d(
      config.stream, n, k,
      SpmdGridSelector::estimated_bytes(n, k, config.precision,
                                        config.streaming, config.algorithm),
      tile_bytes, device.properties().memory_budget().global_bytes);
}

template <class Scalar>
SelectionResult run_device_selection(spmd::Device& device,
                                     const SpmdSelectorConfig& config,
                                     const data::Dataset& data,
                                     const BandwidthGrid& grid,
                                     std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  // The paper used the device maximum (512); clamp the request the same way
  // so one selector config runs on any device.
  const std::size_t tpb = std::min(config.threads_per_block,
                                   device.properties().max_threads_per_block);
  const SweepPolynomial poly = sweep_polynomial(config.kernel);

  const bool window = config.algorithm == SweepAlgorithm::kWindow;

  // --- Host-side staging -------------------------------------------------
  // The window sweep sorts (X, Y) once, on the host, before upload — the
  // device threads then index into the globally sorted arrays instead of
  // filling and quicksorting private rows. (The CV criterion sums over all
  // observations, so visiting them in sorted order changes nothing.)
  std::vector<Scalar> host_x(n);
  std::vector<Scalar> host_y(n);
  if (window) {
    SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
    host_x = std::move(sorted.x);
    host_y = std::move(sorted.y);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      host_x[i] = static_cast<Scalar>(data.x[i]);
      host_y[i] = static_cast<Scalar>(data.y[i]);
    }
  }
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  // --- Streaming decision (window algorithm only) -------------------------
  // The default plan keeps small problems resident — bit-for-bit the
  // pre-streaming code path (see window_plan).
  if (window) {
    const StreamingPlan plan = window_plan<Scalar>(
        device, config, std::span<const Scalar>(host_x), host_grid.back(), k);
    if (plan.n_streamed) {
      return run_streamed_2d_window_selection<Scalar>(
          device, config, host_x, host_y, host_grid, grid, plan, tpb, poly,
          std::move(method_name));
    }
    if (plan.streamed) {
      return run_streamed_window_selection<Scalar>(
          device, config, host_x, host_y, host_grid, grid, plan, tpb, poly,
          std::move(method_name));
    }
  }

  // --- Device memory plan (paper §IV-A) -----------------------------------
  // Bandwidths live in constant memory; the 8 KB working set caps k.
  spmd::ConstantBuffer<Scalar> c_grid =
      device.upload_constant<Scalar>(host_grid, "bandwidth-grid");

  spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
  spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
  device.copy_to_device(d_x, std::span<const Scalar>(host_x));
  device.copy_to_device(d_y, std::span<const Scalar>(host_y));

  // Two n×n matrices for the per-thread sorted rows (skipped in streaming
  // mode, the paper's future-work extension, and by the window sweep, which
  // has no private rows at all).
  spmd::DeviceBuffer<Scalar> d_dist;
  spmd::DeviceBuffer<Scalar> d_ymat;
  if (!window && !config.streaming) {
    d_dist = device.alloc_global<Scalar>(n * n, "dist-rows");
    d_ymat = device.alloc_global<Scalar>(n * n, "y-rows");
  }

  // Two n×k matrices of bandwidth-specific sums (per-row-sort path only —
  // the window sweep recombines its moments in place), and the n×k squared
  // residual matrix feeding the reductions.
  spmd::DeviceBuffer<Scalar> d_sum_y;
  spmd::DeviceBuffer<Scalar> d_sum_w;
  if (!window) {
    d_sum_y = device.alloc_global<Scalar>(n * k, "sum-y");
    d_sum_w = device.alloc_global<Scalar>(n * k, "sum-w");
  }
  spmd::DeviceBuffer<Scalar> d_resid =
      device.alloc_global<Scalar>(n * k, "residuals");
  spmd::DeviceBuffer<Scalar> d_scores =
      device.alloc_global<Scalar>(k, "cv-scores");

  // X/Y and the row matrices stay raw spans: the per-thread quicksort needs
  // raw element references. The grid, sums, residuals, and scores go
  // through checked views so a sanitizer-enabled device instruments them.
  std::span<const Scalar> xs = d_x.span();
  std::span<const Scalar> ys = d_y.span();
  spmd::MemView<const Scalar> hs = c_grid.view();
  std::span<Scalar> dist_all = d_dist.span();
  std::span<Scalar> ymat_all = d_ymat.span();
  spmd::MemView<Scalar> sum_y_all = d_sum_y.view();
  spmd::MemView<Scalar> sum_w_all = d_sum_w.view();
  spmd::MemView<Scalar> resid_all = d_resid.view();
  const bool bandwidth_major = config.layout == ResidualLayout::kBandwidthMajor;
  const bool streaming = config.streaming;

  // --- Main kernel (paper §IV-B) ------------------------------------------
  // One thread per observation; no shared memory or cross-thread
  // coordination, so an independent launch. The window sweep indexes the
  // device-global sorted X/Y, growing the two-pointer window across the
  // ascending grid; no private rows, no per-thread sort.
  if (window) {
    detail::launch_window_pass<Scalar>(
        device, "cv_sweep", config.lane_width, tpb, xs, ys, 0, n, hs, poly,
        nullptr, [&, n, k](std::size_t b, std::size_t j, Scalar sq) {
          resid_all[bandwidth_major ? b * n + j : j * k + b] = sq;
        });
  } else {
    device.launch("cv_sweep", spmd::LaunchConfig::cover(n, tpb),
                  [&, n, k](const spmd::ThreadCtx& t) {
      const std::size_t j = t.global_idx();
      if (j >= n) {
        return;  // padding thread in the last block
      }

      // Thread j's rows of the distance and Y matrices. In streaming mode the
      // rows live in thread-local scratch ("local memory") instead of the
      // global-memory matrices.
      std::vector<Scalar> local_dist;
      std::vector<Scalar> local_y;
      std::span<Scalar> dist;
      std::span<Scalar> yrow;
      if (streaming) {
        local_dist.resize(n);
        local_y.resize(n);
        dist = local_dist;
        yrow = local_y;
      } else {
        dist = dist_all.subspan(j * n, n);
        yrow = ymat_all.subspan(j * n, n);
      }

      // Fill + sort + sweep + residual loop (shared kernel body); residuals
      // land with the indices switched to bandwidth-major when configured —
      // "to facilitate efficient caching… the array is indexed as k separate
      // groups of n".
      detail::sweep_thread<Scalar>(
          xs, ys, hs, poly, j, dist, yrow, sum_y_all.subview(j * k, k),
          sum_w_all.subview(j * k, k), [&](std::size_t b, Scalar sq) {
            resid_all[bandwidth_major ? b * n + j : j * k + b] = sq;
          });
    });
  }

  // --- Reductions (paper §IV-B) --------------------------------------------
  // One single-block sum reduction per bandwidth, all k in one launch.
  // Bandwidth-major layout reads a contiguous run; observation-major reads
  // with stride k.
  spmd::MemView<Scalar> scores = d_scores.view();
  spmd::reduce_sum_rows<Scalar>(device, resid_all,
                                residual_rows(bandwidth_major, k, n), scores,
                                tpb, score_variant(config));

  // Argmin reduction over the k scores (2T shared elements: values +
  // payload, per the paper; index payload per its footnote 2).
  const spmd::ArgminResult<Scalar> best = spmd::reduce_argmin<Scalar>(
      device, spmd::MemView<const Scalar>(scores), tpb);

  // --- Assemble the result --------------------------------------------------
  std::vector<Scalar> host_scores(k);
  device.copy_to_host(std::span<Scalar>(host_scores), d_scores);
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    // Normalize the paper's raw sums to CV_lc's n⁻¹ scale.
    cv[b] = static_cast<double>(host_scores[b]) / static_cast<double>(n);
  }

  SelectionResult result;
  result.bandwidth = grid[best.index];
  result.cv_score = cv[best.index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

}  // namespace

SelectionResult SpmdGridSelector::select(const data::Dataset& data,
                                         const BandwidthGrid& grid) const {
  data.validate();
  if (data.empty()) {
    throw std::invalid_argument("SpmdGridSelector: empty dataset");
  }
  if (!is_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "SpmdGridSelector: kernel '" +
        std::string(to_string(config_.kernel)) +
        "' is not supported by the device sweep");
  }
  return config_.precision == Precision::kFloat
             ? run_device_selection<float>(device_, config_, data, grid,
                                           name())
             : run_device_selection<double>(device_, config_, data, grid,
                                            name());
}

StreamingPlan SpmdGridSelector::streaming_plan(
    const data::Dataset& data, const BandwidthGrid& grid) const {
  if (config_.algorithm != SweepAlgorithm::kWindow) {
    StreamingPlan resident;
    resident.n_block = data.size();
    resident.k_block = grid.size();
    return resident;
  }
  const auto plan = [&](auto scalar) {
    using Scalar = decltype(scalar);
    const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
    return window_plan<Scalar>(device_, config_,
                               std::span<const Scalar>(sorted.x),
                               static_cast<Scalar>(grid.max()), grid.size());
  };
  return config_.precision == Precision::kFloat ? plan(float{})
                                                : plan(double{});
}

std::string SpmdGridSelector::name() const {
  std::string n = "spmd-grid(";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.precision);
  n += ",tpb=" + std::to_string(config_.threads_per_block);
  n += ",";
  n += to_string(config_.layout);
  if (config_.streaming) {
    n += ",streaming";
  }
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
  if (config_.algorithm == SweepAlgorithm::kWindow &&
      config_.lane_width != 1) {
    n += ",lanes=" + std::to_string(config_.lane_width);
  }
  n += ")";
  return n;
}

}  // namespace kreg
