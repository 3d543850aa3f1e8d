#pragma once

#include <cstdint>

namespace kreg {

/// Execution ledger for the batched window sweep's phase-2 inner loops:
/// how many vector steps were served by the contiguous-run transpose fast
/// path (one block load + in-register transpose) versus per-lane gathers.
/// One "step" is one lane-batch-wide iteration of a left- or
/// right-admission run. Purely observational — the counters never
/// influence scheduling — so profiles are bitwise identical with or
/// without a ledger attached.
struct BatchRunStats {
  std::uint64_t contig_steps = 0;  ///< steps served by contiguous block loads
  std::uint64_t gather_steps = 0;  ///< steps served by per-lane gathers

  constexpr BatchRunStats& operator+=(const BatchRunStats& other) {
    contig_steps += other.contig_steps;
    gather_steps += other.gather_steps;
    return *this;
  }

  /// Fraction of phase-2 steps on the contiguous fast path (0 when idle).
  constexpr double contig_rate() const {
    const std::uint64_t total = contig_steps + gather_steps;
    return total == 0 ? 0.0
                      : static_cast<double>(contig_steps) /
                            static_cast<double>(total);
  }
};

}  // namespace kreg
