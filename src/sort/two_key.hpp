#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace kreg::sort {

/// Stable indexed two-key sort: reorders `order` (a range of indices into
/// some external table) so that `primary(i)` is ascending and ties are
/// broken by `secondary(i)` descending; rows equal under both keys keep
/// their incoming relative order. sigma_batch_order uses it to group rows
/// by admission-window *position* bucket, then by *length* within a bucket
/// — but the helper is key-agnostic.
///
/// Implemented as a bottom-up merge over a caller-provided scratch buffer
/// (resized as needed), so per-scope invocations inside a tiled sweep reuse
/// one allocation. O(count · log count) comparisons, stable by
/// construction: the merge takes from the left run on ties.
template <class Index, class Primary, class Secondary>
void two_key_argsort(std::span<Index> order, Primary&& primary,
                     Secondary&& secondary, std::vector<Index>& scratch) {
  const std::size_t count = order.size();
  if (count < 2) {
    return;
  }
  if (scratch.size() < count) {
    scratch.resize(count);
  }
  const auto before = [&](Index a, Index b) {
    const auto pa = primary(a);
    const auto pb = primary(b);
    if (pa != pb) {
      return pa < pb;
    }
    return secondary(a) > secondary(b);
  };
  Index* src = order.data();
  Index* dst = scratch.data();
  for (std::size_t width = 1; width < count; width *= 2) {
    for (std::size_t lo = 0; lo < count; lo += 2 * width) {
      const std::size_t mid = lo + width < count ? lo + width : count;
      const std::size_t hi = lo + 2 * width < count ? lo + 2 * width : count;
      std::size_t i = lo;
      std::size_t j = mid;
      std::size_t o = lo;
      while (i < mid && j < hi) {
        // Strictly-before from the right run only: equal rows come from the
        // left run first, which is what makes the sort stable.
        dst[o++] = before(src[j], src[i]) ? src[j++] : src[i++];
      }
      while (i < mid) {
        dst[o++] = src[i++];
      }
      while (j < hi) {
        dst[o++] = src[j++];
      }
    }
    std::swap(src, dst);
  }
  if (src != order.data()) {
    for (std::size_t i = 0; i < count; ++i) {
      order[i] = src[i];
    }
  }
}

/// Convenience overload with a local scratch buffer.
template <class Index, class Primary, class Secondary>
void two_key_argsort(std::span<Index> order, Primary&& primary,
                     Secondary&& secondary) {
  std::vector<Index> scratch;
  two_key_argsort(order, std::forward<Primary>(primary),
                  std::forward<Secondary>(secondary), scratch);
}

}  // namespace kreg::sort
