#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace kreg::parallel {

/// Half-open index range [begin, end).
struct BlockedRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const noexcept { return end - begin; }
  bool empty() const noexcept { return begin >= end; }
};

/// Splits [0, n) into at most `parts` contiguous ranges whose sizes differ
/// by at most one. Fewer than `parts` ranges are returned when n < parts.
inline std::vector<BlockedRange> partition_evenly(std::size_t n,
                                                  std::size_t parts) {
  std::vector<BlockedRange> out;
  if (n == 0 || parts == 0) {
    return out;
  }
  if (parts > n) {
    parts = n;
  }
  out.reserve(parts);
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  std::size_t begin = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t len = base + (p < extra ? 1 : 0);
    out.push_back({begin, begin + len});
    begin += len;
  }
  return out;
}

}  // namespace kreg::parallel
