#include "core/spmd_selector.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/detail/window_drivers.hpp"
#include "core/detail/window_pass.hpp"
#include "core/window_sweep.hpp"
#include "parallel/blocked_range.hpp"

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
  if (algorithm == SweepAlgorithm::kWindow) {
    // The driver's resident block: no carry, so the kernel does not enter.
    return detail::nw_window_bytes(precision, KernelType::kEpanechnikov, n, n,
                                   k, k);
  }
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
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
  // A streamed plan's grid outgrows its block, so the carry is held.
  return detail::nw_window_bytes(precision, kernel, n, n, k_block + 1,
                                 k_block);
}

namespace detail {

std::size_t nw_window_bytes(Precision precision, KernelType kernel,
                            std::size_t span, std::size_t rows, std::size_t k,
                            std::size_t kb) {
  const SweepPolynomial poly = sweep_polynomial(kernel);
  return precision == Precision::kFloat
             ? window_bytes(NwWindow<float>{{}, {}, poly}, span, rows, k, kb)
             : window_bytes(NwWindow<double>{{}, {}, poly}, span, rows, k, kb);
}

namespace {

template <class Scalar>
std::vector<double> window_device_profile(
    std::span<spmd::Device* const> devices, const SpmdSelectorConfig& config,
    const data::Dataset& data, const BandwidthGrid& grid) {
  const std::size_t n = data.size();
  // The window sweep sorts (X, Y) once, on the host, before upload — the
  // device threads then index into the globally sorted arrays instead of
  // filling and quicksorting private rows. (The CV criterion sums over all
  // observations, so visiting them in sorted order changes nothing.)
  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.values().begin(),
                                      grid.values().end());
  const std::span<const Scalar> hs(host_grid);
  const NwWindow<Scalar> sweep{sorted.x, sorted.y,
                               sweep_polynomial(config.kernel)};
  const Scalar reach = host_grid.back();  // widest admission: h_max

  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(n, devices.size());
  std::vector<double> totals(host_grid.size(), 0.0);
  for (std::size_t d = 0; d < slices.size(); ++d) {
    spmd::Device& device = *devices[d];
    const parallel::BlockedRange slice = slices[d];
    // The paper used the device maximum (512); clamp the request the same
    // way so one selector config runs on any device.
    const std::size_t tpb = std::min(
        config.threads_per_block, device.properties().max_threads_per_block);
    const StreamingPlan plan = window_plan<Scalar>(
        device, config.stream, sweep, slice.begin, slice.end, hs.size(),
        reach);
    device_window_totals(device,
                         NwLanePass<Scalar>{sweep, config.lane_width, tpb}, hs,
                         slice.begin, slice.end, plan, reach, totals,
                         {"cv_sweep", "cv_score_fold", "bandwidth-grid", "cv"});
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);  // CV_lc's n⁻¹ scale
  }
  return totals;
}

}  // namespace

std::vector<double> window_device_profile(
    std::span<spmd::Device* const> devices, const SpmdSelectorConfig& config,
    const data::Dataset& data, const BandwidthGrid& grid) {
  return config.precision == Precision::kFloat
             ? window_device_profile<float>(devices, config, data, grid)
             : window_device_profile<double>(devices, config, data, grid);
}

}  // namespace detail

namespace {

/// Program 4's per-row sort (paper §IV-B): the main kernel, the k row
/// reductions and the device argmin.
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

  std::vector<Scalar> host_x(n);
  std::vector<Scalar> host_y(n);
  for (std::size_t i = 0; i < n; ++i) {
    host_x[i] = static_cast<Scalar>(data.x[i]);
    host_y[i] = static_cast<Scalar>(data.y[i]);
  }
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
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
  // mode, the paper's future-work extension).
  spmd::DeviceBuffer<Scalar> d_dist;
  spmd::DeviceBuffer<Scalar> d_ymat;
  if (!config.streaming) {
    d_dist = device.alloc_global<Scalar>(n * n, "dist-rows");
    d_ymat = device.alloc_global<Scalar>(n * n, "y-rows");
  }

  // Two n×k matrices of bandwidth-specific sums, and the n×k squared
  // residual matrix feeding the reductions.
  spmd::DeviceBuffer<Scalar> d_sum_y =
      device.alloc_global<Scalar>(n * k, "sum-y");
  spmd::DeviceBuffer<Scalar> d_sum_w =
      device.alloc_global<Scalar>(n * k, "sum-w");
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
  // coordination, so an independent launch.
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

  // --- Reductions (paper §IV-B) --------------------------------------------
  // One single-block sum reduction per bandwidth, all k in one launch.
  // Bandwidth-major rows are contiguous and reduce with the configured
  // Harris variant; observation-major rows stride by k and reduce
  // sequentially.
  spmd::MemView<Scalar> scores = d_scores.view();
  spmd::reduce_sum_rows<Scalar>(
      device, resid_all,
      bandwidth_major ? spmd::RowLayout::contiguous(k, n)
                      : spmd::RowLayout::interleaved(k, n),
      scores, tpb,
      bandwidth_major ? config.reduce_variant
                      : spmd::ReduceVariant::kSequential);

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
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    spmd::Device* const devices[] = {&device_};
    return selection_from_profile(
        grid, detail::window_device_profile(devices, config_, data, grid),
        name());
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
    return detail::window_plan<Scalar>(
        device_, config_.stream,
        detail::NwWindow<Scalar>{sorted.x, sorted.y,
                                 sweep_polynomial(config_.kernel)},
        0, data.size(), grid.size(), static_cast<Scalar>(grid.max()));
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
