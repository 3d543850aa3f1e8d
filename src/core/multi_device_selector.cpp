#include "core/multi_device_selector.hpp"

#include <stdexcept>
#include <utility>

#include "core/detail/device_sweep.hpp"
#include "parallel/blocked_range.hpp"
#include "spmd/reduce.hpp"

namespace kreg {

MultiDeviceGridSelector::MultiDeviceGridSelector(
    std::vector<spmd::Device*> devices, SpmdSelectorConfig config)
    : devices_(std::move(devices)), config_(config) {
  if (devices_.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: no devices");
  }
  for (const spmd::Device* device : devices_) {
    if (device == nullptr) {
      throw std::invalid_argument("MultiDeviceGridSelector: null device");
    }
  }
  validate_lane_width(config_.lane_width);
}

std::size_t MultiDeviceGridSelector::estimated_bytes_per_device(
    std::size_t n, std::size_t k, std::size_t devices, Precision precision,
    bool streaming, SweepAlgorithm algorithm, std::size_t k_block,
    KernelType kernel) {
  if (devices == 0) {
    throw std::invalid_argument("estimated_bytes_per_device: devices == 0");
  }
  const std::size_t slice = (n + devices - 1) / devices;  // worst slice
  if (algorithm == SweepAlgorithm::kWindow) {
    // The driver's slice-resident block over the replicated sorted arrays
    // (k_block = 0 keeps the whole grid).
    return detail::nw_window_bytes(precision, kernel, n, slice, k,
                                   k_block == 0 ? k : std::min(k_block, k));
  }
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  // Full x + y replicated, plus slice-sized matrices and per-device scores.
  std::size_t elems = 2 * n + k + 3 * slice * k;
  if (!streaming) {
    elems += 2 * slice * n;
  }
  return elems * elem;
}

namespace {

/// The per-row-sort path (the paper-faithful baseline): each device runs
/// Program 4's main kernel and row reductions over its slice, and the host
/// combines the slice sums before the final argmin on device 0.
template <class Scalar>
SelectionResult run_multi_device(const std::vector<spmd::Device*>& devices,
                                 const SpmdSelectorConfig& config,
                                 const data::Dataset& data,
                                 const BandwidthGrid& grid,
                                 std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const SweepPolynomial poly = sweep_polynomial(config.kernel);
  const bool streaming = config.streaming;

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

  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(n, devices.size());

  // Combined per-bandwidth sums of squared residuals across devices.
  std::vector<double> combined(k, 0.0);
  for (std::size_t d = 0; d < slices.size(); ++d) {
    spmd::Device& device = *devices[d];
    const parallel::BlockedRange slice = slices[d];
    const std::size_t rows = slice.size();
    const std::size_t tpb = std::min(
        config.threads_per_block, device.properties().max_threads_per_block);

    // Device-side data: the full X/Y (distances need every observation),
    // the grid in constant memory, and slice-sized working matrices.
    spmd::ConstantBuffer<Scalar> c_grid =
        device.upload_constant<Scalar>(host_grid, "bandwidth-grid");
    spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
    spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
    device.copy_to_device(d_x, std::span<const Scalar>(host_x));
    device.copy_to_device(d_y, std::span<const Scalar>(host_y));

    spmd::DeviceBuffer<Scalar> d_dist;
    spmd::DeviceBuffer<Scalar> d_ymat;
    if (!streaming) {
      d_dist = device.alloc_global<Scalar>(rows * n, "dist-rows");
      d_ymat = device.alloc_global<Scalar>(rows * n, "y-rows");
    }
    spmd::DeviceBuffer<Scalar> d_sum_y =
        device.alloc_global<Scalar>(rows * k, "sum-y");
    spmd::DeviceBuffer<Scalar> d_sum_w =
        device.alloc_global<Scalar>(rows * k, "sum-w");
    spmd::DeviceBuffer<Scalar> d_resid =
        device.alloc_global<Scalar>(rows * k, "residuals");
    spmd::DeviceBuffer<Scalar> d_scores =
        device.alloc_global<Scalar>(k, "slice-scores");

    std::span<const Scalar> xs = d_x.span();
    std::span<const Scalar> ys = d_y.span();
    spmd::MemView<const Scalar> hs = c_grid.view();
    std::span<Scalar> dist_all = d_dist.span();
    std::span<Scalar> ymat_all = d_ymat.span();
    spmd::MemView<Scalar> sum_y_all = d_sum_y.view();
    spmd::MemView<Scalar> sum_w_all = d_sum_w.view();
    spmd::MemView<Scalar> resid_all = d_resid.view();

    // Main kernel over this device's slice; residuals are written
    // bandwidth-major within the slice (k groups of `rows`).
    const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(rows, tpb);
    const std::size_t base = slice.begin;
    device.launch("cv_sweep_slice", cfg,
                  [&, base, rows, n, k](const spmd::ThreadCtx& t) {
      const std::size_t r = t.global_idx();
      if (r >= rows) {
        return;
      }
      const std::size_t obs = base + r;
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
        dist = dist_all.subspan(r * n, n);
        yrow = ymat_all.subspan(r * n, n);
      }
      detail::sweep_thread<Scalar>(
          xs, ys, hs, poly, obs, dist, yrow, sum_y_all.subview(r * k, k),
          sum_w_all.subview(r * k, k),
          [&](std::size_t b, Scalar sq) { resid_all[b * rows + r] = sq; });
    });

    // Per-bandwidth slice reductions on this device, in one launch.
    spmd::MemView<Scalar> scores = d_scores.view();
    spmd::reduce_sum_rows<Scalar>(device, resid_all,
                                  spmd::RowLayout::contiguous(k, rows), scores,
                                  tpb, config.reduce_variant);
    for (std::size_t b = 0; b < k; ++b) {
      combined[b] += static_cast<double>(scores[b]);
    }
  }

  // Final argmin on device 0, as the published program does with its single
  // GPU (host-combined partials are uploaded as the reduction input).
  std::vector<Scalar> combined_scalar(k);
  for (std::size_t b = 0; b < k; ++b) {
    combined_scalar[b] = static_cast<Scalar>(combined[b]);
  }
  spmd::Device& primary = *devices.front();
  spmd::DeviceBuffer<Scalar> d_combined =
      primary.alloc_global<Scalar>(k, "combined-scores");
  primary.copy_to_device(d_combined, std::span<const Scalar>(combined_scalar));
  const spmd::ArgminResult<Scalar> best = spmd::reduce_argmin<Scalar>(
      primary, spmd::MemView<const Scalar>(d_combined.view()),
      std::min(config.threads_per_block,
               primary.properties().max_threads_per_block));

  SelectionResult result;
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    cv[b] = combined[b] / static_cast<double>(n);
  }
  result.bandwidth = grid[best.index];
  result.cv_score = cv[best.index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

}  // namespace

SelectionResult MultiDeviceGridSelector::select(
    const data::Dataset& data, const BandwidthGrid& grid) const {
  data.validate();
  if (data.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: empty dataset");
  }
  if (!is_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "MultiDeviceGridSelector: kernel '" +
        std::string(to_string(config_.kernel)) +
        "' is not supported by the device sweep");
  }
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    return selection_from_profile(
        grid, detail::window_device_profile(devices_, config_, data, grid),
        name());
  }
  return config_.precision == Precision::kFloat
             ? run_multi_device<float>(devices_, config_, data, grid, name())
             : run_multi_device<double>(devices_, config_, data, grid, name());
}

std::string MultiDeviceGridSelector::name() const {
  std::string n = "multi-device-grid(devices=" +
                  std::to_string(devices_.size()) + ",";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.precision);
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
