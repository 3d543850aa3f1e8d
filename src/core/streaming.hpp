#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string_view>

namespace kreg {

/// How a window-sweep backend tiles the bandwidth grid through memory.
///
/// The window sweep keeps one n×k partial matrix (LSCV partials on the KDE
/// path, squared residuals on the regression path) resident while it runs.
/// That matrix — not time — is what caps the feasible sample size on the
/// device, the same wall the paper's Tesla S10 hit at n = 20,000. Streaming
/// mode tiles the grid into k-blocks: one n×k_block buffer stays resident,
/// blocks of bandwidths stream through it, and each block is folded into
/// its bandwidths' running score totals immediately, so only the k totals
/// survive. Per-observation window state (the
/// two pointers and the moment sums) is carried across blocks in O(n)
/// buffers, so the streamed sweep performs the *same* arithmetic in the
/// same order as the resident sweep — profiles agree bitwise.
///
/// n-blocks remove the remaining O(n) resident state: observations are
/// tiled into n-blocks, and each block uploads only a *slab* of the sorted
/// arrays — the block itself plus a halo wide enough to cover the block's
/// largest admission window at h_max (computed host-side by binary search
/// on the sorted X, so no device out-of-core sort is needed). The block's
/// pointers and moment sums live in O(n_block) buffers, and each
/// bandwidth's running score total carries from block to block in
/// ascending observation order, so the full 2-D (n-block × k-block) tiling
/// still matches the resident profile bitwise.
struct StreamingConfig {
  /// Explicit bandwidth-block size. Nonzero forces the streamed path with
  /// exactly this block (clamped to the grid size); 0 derives the block
  /// from the memory budget.
  std::size_t k_block = 0;
  /// Explicit observation-block size. Nonzero forces the n-streamed (2-D
  /// tiled) path with exactly this block (clamped to the observation
  /// count); 0 derives it from the memory budget — staying n-resident
  /// whenever the O(n) carry state fits.
  std::size_t n_block = 0;
  /// Device-memory budget in bytes the plan must fit. 0 = derive: the
  /// KREG_MEMORY_BUDGET environment variable when set (auto_tune only),
  /// otherwise the device's own capacity
  /// (DeviceProperties::memory_budget()). Budgets above the device capacity
  /// are clamped to it — memory that does not exist cannot be planned for.
  std::size_t memory_budget_bytes = 0;
  /// When true (the default) a backend stays resident while the resident
  /// plan fits the budget and switches to streamed k-blocks only when it
  /// would not — so small problems run exactly as before and large ones no
  /// longer die with DeviceAllocError. When false and neither knob above is
  /// set, the backend always runs resident (the pre-streaming behaviour,
  /// allocation failures included) and KREG_MEMORY_BUDGET is ignored — an
  /// in-code opt-out beats the ambient environment.
  bool auto_tune = true;
};

/// A resolved streaming decision for one (n, k) problem on one device.
struct StreamingPlan {
  /// Bandwidths resident per pass; == k when not streamed.
  std::size_t k_block = 0;
  /// Observations resident per pass; == n when the plan is n-resident.
  std::size_t n_block = 0;
  /// True when the backend should take the k-block streaming path.
  bool streamed = false;
  /// True when the backend should take the 2-D (n-block × k-block) tiled
  /// path: observations stream through a halo slab and score totals carry
  /// across blocks. Implies `streamed`.
  bool n_streamed = false;
  /// The budget the plan was sized against (0 = none consulted).
  std::size_t budget_bytes = 0;

  std::size_t blocks(std::size_t k) const noexcept {
    return k_block == 0 ? 0 : (k + k_block - 1) / k_block;
  }
  std::size_t n_blocks(std::size_t n) const noexcept {
    return n_block == 0 ? 0 : (n + n_block - 1) / n_block;
  }
};

/// Thrown by resolve_streaming_2d when the budget cannot fit even the
/// minimal (n_block = 1, k_block = 1) tile — a degenerate budget must fail
/// diagnosably instead of producing a zero-sized plan or letting the ledger
/// throw an unexplained DeviceAllocError later.
class StreamingBudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses a human-readable byte size: a decimal count with an optional
/// binary suffix ("1MiB", "256KiB", "2GiB", "4096", "512K", "64MB"; K/M/G
/// with or without the trailing "B"/"iB" all mean the binary multiple).
/// Throws std::invalid_argument on anything else — including empty or
/// whitespace-only input, zero budgets ("0" would silently mean "derive
/// from the environment" downstream), and values that overflow size_t
/// (either in the digits or after applying the suffix multiplier).
std::size_t parse_memory_budget(std::string_view text);

/// KREG_MEMORY_BUDGET from the environment via parse_memory_budget, or 0
/// when the variable is unset or empty.
std::size_t env_memory_budget();

/// Resolves a StreamingConfig against one problem's byte model:
/// `resident_bytes` is the footprint of the resident (full n×k) plan,
/// `base_bytes` the streamed plan's k-independent allocations (data, carry
/// state), `per_k_bytes` the marginal cost of keeping one more bandwidth
/// resident, and `device_capacity_bytes` the budget of last resort
/// (DeviceProperties::memory_budget().global_bytes). The returned block is
/// always in [1, k]; a budget too small even for base_bytes degrades to the
/// k_block = 1 plan and lets the device ledger have the final word.
/// (The 1-D resolver; ignores StreamingConfig::n_block.)
StreamingPlan resolve_streaming(const StreamingConfig& config, std::size_t k,
                                std::size_t resident_bytes,
                                std::size_t base_bytes,
                                std::size_t per_k_bytes,
                                std::size_t device_capacity_bytes);

/// Byte model of one candidate 2-D tile: the modeled device footprint of a
/// plan holding `n_block` observations and `k_block` bandwidths resident
/// (slab + halo, carry state, residual block and its running score
/// totals).
using TileBytesFn =
    std::function<std::size_t(std::size_t n_block, std::size_t k_block)>;

/// Resolves a StreamingConfig into a 2-D (n-block × k-block) plan.
///
/// Explicit blocks win: a nonzero `config.k_block`/`config.n_block` is
/// clamped to [1, k]/[1, n] and used verbatim (an explicit n_block forces
/// the n-streamed path even when one block covers all observations — that
/// is how tests pin the n_block ∈ {n, n+13} degenerate cases to the same
/// code as n_block = 1). Otherwise the budget decides: resident while
/// `resident_bytes` fits; n-resident k-blocks while `tile_bytes(n, 1)`
/// fits (sized exactly as resolve_streaming would); else the halving
/// candidates n/2, n/4, …, 1 whose `tile_bytes(n_block, 1)` fits each take
/// their largest fitting k_block, and the candidate with the fewest
/// n_blocks × k_blocks tiles wins (ties to the larger n_block). A budget
/// below `tile_bytes(1, 1)` throws
/// StreamingBudgetError naming both numbers. The auto-resolved plan's
/// modeled bytes never exceed the budget, and its blocks tile
/// [0, n) × [0, k) exactly once.
StreamingPlan resolve_streaming_2d(const StreamingConfig& config,
                                   std::size_t n, std::size_t k,
                                   std::size_t resident_bytes,
                                   const TileBytesFn& tile_bytes,
                                   std::size_t device_capacity_bytes);

}  // namespace kreg
