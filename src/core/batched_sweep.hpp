#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/batch_stats.hpp"
#include "core/kernels.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg {

/// Lanes per batch of the batched window sweep, on the host and on the
/// device: 8 consecutive sorted observations step in lockstep. 8 doubles
/// fill one AVX-512 register (two AVX2), 8 floats one AVX2 register.
inline constexpr std::size_t kLaneWidth = 8;

/// The order in which sigma_batch_order arranges a scope's rows. The sweep
/// itself always batches consecutive sorted observations; these orders
/// remain only for the benchmark's σ-prep layer probe and their tests.
enum class SigmaPolicy : std::uint8_t {
  /// Identity order (ascending sorted position).
  kNone = 0,
  /// Two-key: primary by admission-window *position* (the window's lo
  /// index at h_max, bucketed to cache-line-sized ranges, ascending),
  /// secondary by window length (descending), stable.
  kPositionLength,
};

/// Position-bucket width for SigmaPolicy::kPositionLength: one 64-byte
/// cache line of elements (8 doubles, 16 floats).
constexpr std::size_t sigma_position_bucket(std::size_t scalar_bytes) {
  return 64 / scalar_bytes;
}

/// Per-observation admission windows at h_max on the sorted array: `lo[pos]`
/// is the smallest index with |x_lo − x_pos| ≤ h_max (the σ position key)
/// and `length[pos]` = |{l : |x_l − x_pos| ≤ h_max}| (the σ length key and
/// the exact number of elements the sweep will admit for that observation
/// across the whole grid). One O(n) two-pointer pass (both bounds are
/// monotone in pos).
struct AdmissionWindows {
  std::vector<std::size_t> lo;
  std::vector<std::size_t> length;
};

template <class Scalar>
AdmissionWindows admission_windows(std::span<const Scalar> xs_sorted,
                                   Scalar h_max);

extern template AdmissionWindows admission_windows<float>(
    std::span<const float>, float);
extern template AdmissionWindows admission_windows<double>(
    std::span<const double>, double);

/// The length component alone (kept for call sites that only need the
/// element counts, e.g. the bench's exact work accounting).
template <class Scalar>
std::vector<std::size_t> admission_window_lengths(
    std::span<const Scalar> xs_sorted, Scalar h_max);

extern template std::vector<std::size_t> admission_window_lengths<float>(
    std::span<const float>, float);
extern template std::vector<std::size_t> admission_window_lengths<double>(
    std::span<const double>, double);

/// The σ-sorted batch order for rows [begin, end): returns row indices
/// *relative to begin*, grouped in σ-scopes of `scope` rows (the last
/// scope may be short; 0 = one scope spanning the whole range), each scope
/// stably ordered per `policy`. `los` is only read under kPositionLength
/// (pass AdmissionWindows::lo; it must cover [begin, end) then);
/// `position_bucket` is the position-key bucket width in elements
/// (sigma_position_bucket(sizeof(Scalar)); values < 1 are clamped to 1).
std::vector<std::uint32_t> sigma_batch_order(
    std::span<const std::size_t> lengths, std::span<const std::size_t> los,
    std::size_t begin, std::size_t end, std::size_t scope,
    SigmaPolicy policy, std::size_t position_bucket);

/// The batched window-sweep CV profile: same contract as
/// `window_cv_profile_tiled` (tiles scheduled across the pool, k-blocks
/// innermost, deterministic tile-order combination), with each tile's
/// observations executed as kLaneWidth-wide lane batches of consecutive
/// sorted observations. Residuals are staged per tile and folded in
/// ascending observation order, so the result is **bitwise identical** to
/// `window_cv_profile_tiled` with the same tiling — and to the sequential
/// `window_cv_profile` whenever one tile covers the dataset. `stats`, when
/// non-null, receives the summed contiguous-run / gather step ledger of
/// every tile.
std::vector<double> window_cv_profile_batched(
    const data::Dataset& data, std::span<const double> grid,
    KernelType kernel, Precision precision = Precision::kDouble,
    HostTiling tiling = {}, parallel::ThreadPool* pool = nullptr,
    BatchRunStats* stats = nullptr);

}  // namespace kreg
