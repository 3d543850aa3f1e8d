#pragma once

#include <cstddef>
#include <string>

#include "core/batched_sweep.hpp"
#include "core/selectors.hpp"
#include "core/streaming.hpp"
#include "spmd/device.hpp"
#include "spmd/reduce.hpp"

namespace kreg {

/// Memory layout of the squared-residual matrix (paper §IV-B).
enum class ResidualLayout {
  /// n groups of k: natural for the per-thread bandwidth loop that writes.
  kObservationMajor,
  /// k groups of n — the paper's choice: "the matrix indices are switched
  /// at this stage… the array is indexed as k separate groups of n" so each
  /// per-bandwidth reduction reads a contiguous run.
  kBandwidthMajor,
};
std::string_view to_string(ResidualLayout layout) noexcept;

/// Configuration of the SPMD (device) grid selector.
struct SpmdSelectorConfig {
  KernelType kernel = KernelType::kEpanechnikov;
  /// The paper computes in single precision; kDouble is this library's
  /// extension. Note the constant-memory cap halves for doubles
  /// (1,024 bandwidths instead of 2,048).
  Precision precision = Precision::kFloat;
  /// Paper: "the fastest performance was found with threads per block set
  /// to 512, the maximum possible on the GPU being used".
  std::size_t threads_per_block = 512;
  ResidualLayout layout = ResidualLayout::kBandwidthMajor;
  spmd::ReduceVariant reduce_variant = spmd::ReduceVariant::kSequential;
  /// Extension (the paper's stated future work): stream each observation's
  /// distance row through thread-local scratch instead of materializing the
  /// two n×n global-memory matrices, lifting the n ≤ 20,000 limit. Only
  /// meaningful for kPerRowSort — the window sweep has no rows to stream.
  bool streaming = false;
  /// Per-thread sweep algorithm. kWindow (the default, after parity soak):
  /// threads index into the host-sorted X/Y in device-global memory with a
  /// two-pointer window — no private rows, no per-thread sort, and no n×n
  /// matrices, lifting the paper's §IV-A n ≤ 20,000 allocation limit
  /// without streaming. kPerRowSort stays selectable as the paper-faithful
  /// §IV-B ablation baseline.
  SweepAlgorithm algorithm = SweepAlgorithm::kWindow;
  /// 2-D (n-block × k-block) streaming of the window sweep (see
  /// core/streaming.hpp): k-blocks tile the bandwidth grid so only one
  /// n×k_block residual block is resident (window state carried in O(n)
  /// buffers); n-blocks tile the observations too, uploading only a
  /// halo-padded slab of the sorted arrays per block and carrying score
  /// totals in per-lane accumulators, so nothing O(n) stays resident.
  /// Defaults keep small problems on the resident path and engage each
  /// streaming dimension automatically only when the previous plan would
  /// exceed the device's global memory (or an explicit/KREG_MEMORY_BUDGET
  /// budget). Streaming also lifts the constant-cache cap on k: only one
  /// block of bandwidths occupies constant memory at a time. Every tiling
  /// is bitwise identical to the resident sweep. Window algorithm only.
  StreamingConfig stream;
  /// Lane batching of the window kernels (see core/detail/window_pass.hpp):
  /// kLaneWidth (the default) has each device dispatch step kLaneWidth
  /// consecutive sorted observations in lockstep, the batch interpretation
  /// of SIMT execution; 1 runs the scalar one-thread-at-a-time kernels, the
  /// reference the parity suites hold the lane batch to. Residuals and
  /// carried window state stay keyed by observation, so both widths are
  /// bitwise identical. Any other value throws. Window algorithm only.
  std::size_t lane_width = kLaneWidth;
};

/// Throws std::invalid_argument unless `lane_width` is 1 or kLaneWidth.
void validate_lane_width(std::size_t lane_width);

/// **Program 4** — "CUDA on GPU": the paper's parallel grid search on the
/// simulated SPMD device.
///
/// Faithful (non-streaming) mode reproduces the paper's §IV memory plan and
/// kernel sequence exactly:
///   1. X, Y and two n×n matrices (|X_i − X_l| and Y) in global memory; the
///      bandwidth grid in constant memory (≤ 8 KB ⇒ k ≤ 2,048 floats).
///   2. Main kernel, one thread per observation, 512 threads/block: fill
///      the thread's rows, sort them with the iterative quicksort (Y as the
///      auxiliary variable), sweep the ascending grid accumulating the
///      bandwidth-specific sums into two n×k matrices, then loop over the k
///      bandwidths computing (Y_j − ĝ₋ⱼ(X_j))²·M(X_j) into an n×k residual
///      matrix with transposed (bandwidth-major) indexing.
///   3. k single-block Harris-style sum reductions (one per bandwidth, all
///      k as the blocks of one launch) produce the CV scores; one argmin
///      reduction with index payload picks the winner.
///
/// Because the device charges every allocation against its 4 GB ledger,
/// the paper's capacity cliff reproduces: with float matrices the largest
/// feasible sample is ≈ 20,000 observations, and larger n throws
/// spmd::DeviceAllocError (catchable; see bench_memory_limit). Streaming
/// mode removes the n×n matrices and the limit.
class SpmdGridSelector final : public Selector {
 public:
  /// The device must outlive the selector.
  explicit SpmdGridSelector(spmd::Device& device,
                            SpmdSelectorConfig config = {});

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

  const SpmdSelectorConfig& config() const noexcept { return config_; }

  /// The memory plan select() runs for `data` and `grid` on this selector's
  /// device: resident, n-resident k-blocks, or 2-D (n-block × k-block)
  /// tiles. Only the window algorithm streams; the per-row sort always
  /// reports the resident plan.
  StreamingPlan streaming_plan(const data::Dataset& data,
                               const BandwidthGrid& grid) const;

  /// Predicted device-memory footprint of a (n, k) problem in bytes —
  /// what select() will ask the ledger for. Used by the memory-limit bench
  /// to chart the paper's n > 20,000 failure (and the window sweep's
  /// removal of it).
  static std::size_t estimated_bytes(
      std::size_t n, std::size_t k, Precision precision, bool streaming,
      SweepAlgorithm algorithm = SweepAlgorithm::kPerRowSort);

  /// Predicted device-memory footprint of the *streamed* window plan with
  /// the given k-block: the O(n) sorted arrays and carry state plus one
  /// n×k_block residual block. `k_block = 0` gives the k-independent base
  /// cost alone (what resolve_streaming sizes blocks against).
  static std::size_t estimated_streamed_bytes(
      std::size_t n, std::size_t k_block, Precision precision,
      KernelType kernel = KernelType::kEpanechnikov);

 private:
  spmd::Device& device_;
  SpmdSelectorConfig config_;
};

}  // namespace kreg
