#pragma once

#include "core/kde_sweep.hpp"
#include "core/sorted_sweep.hpp"
#include "core/streaming.hpp"
#include "core/types.hpp"
#include "spmd/device.hpp"
#include "spmd/reduce.hpp"

namespace kreg {

/// Configuration for the device KDE selector (subset of the regression
/// selector's knobs; the paper's defaults again).
struct SpmdKdeConfig {
  KernelType kernel = KernelType::kEpanechnikov;
  std::size_t threads_per_block = 512;
  /// Harris schedule of the per-row path's row reductions. kPerRowSort
  /// only — the window path folds each bandwidth's partials in ascending
  /// observation order.
  spmd::ReduceVariant reduce_variant = spmd::ReduceVariant::kSequential;
  /// Per-thread sweep, mirroring SpmdSelectorConfig::algorithm. kWindow
  /// (the default): X is sorted once on the host; device threads grow two
  /// admission windows (supports h and 2h) over the sorted array — no n×n
  /// row matrix, no per-thread sort, and a single n×k LSCV-partial matrix
  /// instead of the two contribution matrices, lifting the per-row path's
  /// device-memory sample limit. kPerRowSort keeps the paper-style
  /// per-thread quicksort as the ablation baseline.
  SweepAlgorithm algorithm = SweepAlgorithm::kWindow;
  /// 2-D (n-block × k-block) streaming of the window sweep (see
  /// core/streaming.hpp): k-blocks keep only one n×k_block LSCV-partial
  /// block resident (window state carried in O(n) buffers); n-blocks tile
  /// the observations too, uploading only a halo-padded slab of the sorted
  /// X per block — the halo covers both admission windows at h_max — and
  /// carrying each bandwidth's running partial total, so nothing O(n)
  /// stays resident. Every tiling matches the resident profile bitwise.
  /// Defaults engage each streaming dimension only when the previous plan
  /// would not fit the device (or an explicit/KREG_MEMORY_BUDGET budget).
  StreamingConfig stream;
};

/// KDE LSCV bandwidth selection on the simulated SPMD device — the paper's
/// §II extension ("optimal bandwidth selection for kernel density
/// estimation") executed with the paper's own GPU recipe:
///
///   1. X and the contribution matrices in global memory; the bandwidth
///      grid in constant memory (same 8 KB / 2,048-value cap). Per-row
///      mode stages an n×n |Δ| row matrix and two n×k contribution
///      matrices; window mode uploads the host-sorted X and keeps only one
///      n×k matrix of per-(i, h) LSCV partials.
///   2. Main kernel, one thread per observation. Per-row: sort the
///      thread's |Δ| row (iterative quicksort), then sweep the ascending
///      grid with two admission pointers (supports h and 2h), writing
///      per-(i, h) leave-one-out and convolution sums, bandwidth-major.
///      Window: grow the two admission windows over the globally sorted X
///      (detail::KdeWindow, run by the device window driver
///      detail::device_window_totals) and write the combined LSCV partial.
///   3. Per-row: single-block Harris reductions (2k) produce the
///      per-bandwidth totals. Window: the driver's ordered fold sums each
///      bandwidth's partials in ascending observation order. The LSCV
///      scores assemble on the host, which picks the first argmin
///      (selection_from_profile).
///
/// Only double precision is offered (LSCV subtracts two near-equal O(1)
/// terms, where float's 7 digits are marginal). Requires
/// is_kde_sweepable(kernel).
class SpmdKdeSelector {
 public:
  explicit SpmdKdeSelector(spmd::Device& device, SpmdKdeConfig config = {});

  SelectionResult select(std::span<const double> xs,
                         const BandwidthGrid& grid) const;
  std::string name() const;

  /// Predicted device-memory footprint of an (n, k) problem in bytes —
  /// what select() will ask the ledger for (doubles throughout). The
  /// per-row path carries the n×n row matrix that caps n; the window path
  /// is O(n + n·k).
  static std::size_t estimated_bytes(
      std::size_t n, std::size_t k,
      SweepAlgorithm algorithm = SweepAlgorithm::kWindow);

  /// Predicted device-memory footprint of the *streamed* window plan with
  /// the given k-block: sorted X, the carried window state of both
  /// admission sweeps, and one n×k_block LSCV-partial block with its
  /// running totals. `k_block = 0` gives the k-independent base cost alone.
  static std::size_t estimated_streamed_bytes(std::size_t n,
                                              std::size_t k_block);

 private:
  spmd::Device& device_;
  SpmdKdeConfig config_;
};

}  // namespace kreg
