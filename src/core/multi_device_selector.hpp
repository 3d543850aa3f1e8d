#pragma once

#include <vector>

#include "core/spmd_selector.hpp"

namespace kreg {

/// Grid selection across multiple SPMD devices.
///
/// The paper's test machine carried *two* Tesla S10 GPUs but the published
/// program used one; this selector implements the natural extension it
/// leaves on the table. Observations are partitioned into contiguous
/// slices, one per device. Each device runs the same main kernel on its
/// slice (the full X/Y arrays are replicated — they are O(n); the n×n
/// matrices shrink to slice×n, so d devices multiply the feasible sample
/// size by ~√d), reduces its slice's squared residuals per bandwidth, and
/// the host combines the partial sums before the final argmin reduction on
/// device 0.
///
/// Uses the same SpmdSelectorConfig as the single-device selector. The
/// above is the per-row sort, and its streaming mode composes with it. With
/// the window algorithm (the config default) the shards become
/// (device × n-block × k-block), run by detail::window_device_profile: each
/// device sweeps its slice of the sorted positions under a plan sized to
/// its own memory budget (see core/streaming.hpp), so heterogeneous devices
/// each stream at their own block size, and each bandwidth's running score
/// total carries from one device's slice to the next, so the profile is the
/// single-device one (and window_cv_profile's) bit for bit.
class MultiDeviceGridSelector final : public Selector {
 public:
  /// All devices must outlive the selector. Throws std::invalid_argument
  /// when `devices` is empty or contains a null pointer.
  MultiDeviceGridSelector(std::vector<spmd::Device*> devices,
                          SpmdSelectorConfig config = {});

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

  /// Per-device footprint for an (n, k) problem split across `devices`
  /// devices (worst slice). For the window algorithm, `k_block` is the
  /// resident bandwidth block (0 = the whole grid) and the estimate covers
  /// the replicated sorted arrays, the slice's carried window state (only
  /// when k_block < k), and one slice×k_block residual block with its
  /// running totals.
  static std::size_t estimated_bytes_per_device(
      std::size_t n, std::size_t k, std::size_t devices, Precision precision,
      bool streaming, SweepAlgorithm algorithm = SweepAlgorithm::kPerRowSort,
      std::size_t k_block = 0, KernelType kernel = KernelType::kEpanechnikov);

 private:
  std::vector<spmd::Device*> devices_;
  SpmdSelectorConfig config_;
};

}  // namespace kreg
