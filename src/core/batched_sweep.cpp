#include "core/batched_sweep.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sort/two_key.hpp"

namespace kreg {

template <class Scalar>
AdmissionWindows admission_windows(std::span<const Scalar> xs_sorted,
                                   Scalar h_max) {
  const std::size_t n = xs_sorted.size();
  AdmissionWindows win;
  win.lo.resize(n);
  win.length.resize(n);
  // Both window bounds at h_max are monotone in pos, so one two-pointer
  // pass computes every (lo, length) — the same O(n) discipline as the
  // sweep itself, using its exact admission predicate.
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Scalar x = xs_sorted[pos];
    while (x - xs_sorted[lo] > h_max) {
      ++lo;
    }
    if (hi < pos) {
      hi = pos;
    }
    while (hi + 1 < n && xs_sorted[hi + 1] - x <= h_max) {
      ++hi;
    }
    win.lo[pos] = lo;
    win.length[pos] = hi - lo + 1;
  }
  return win;
}

template AdmissionWindows admission_windows<float>(std::span<const float>,
                                                   float);
template AdmissionWindows admission_windows<double>(std::span<const double>,
                                                    double);

template <class Scalar>
std::vector<std::size_t> admission_window_lengths(
    std::span<const Scalar> xs_sorted, Scalar h_max) {
  return admission_windows<Scalar>(xs_sorted, h_max).length;
}

template std::vector<std::size_t> admission_window_lengths<float>(
    std::span<const float>, float);
template std::vector<std::size_t> admission_window_lengths<double>(
    std::span<const double>, double);

std::vector<std::uint32_t> sigma_batch_order(
    std::span<const std::size_t> lengths, std::span<const std::size_t> los,
    std::size_t begin, std::size_t end, std::size_t scope,
    SigmaPolicy policy, std::size_t position_bucket) {
  const std::size_t count = end - begin;
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (policy == SigmaPolicy::kNone || count == 0) {
    return order;
  }
  if (los.size() < end) {
    throw std::invalid_argument(
        "sigma_batch_order: position-length policy needs window lo indices "
        "covering [begin, end)");
  }
  const std::size_t bucket = position_bucket == 0 ? 1 : position_bucket;
  const std::size_t step = scope == 0 ? count : scope;
  std::vector<std::uint32_t> scratch;
  for (std::size_t s0 = 0; s0 < count; s0 += step) {
    const std::size_t s1 = std::min(s0 + step, count);
    // Two-key: position bucket ascending, length descending inside a
    // bucket, stable (rows equal under both keys keep ascending order —
    // deterministic).
    sort::two_key_argsort(
        std::span<std::uint32_t>(order.data() + s0, s1 - s0),
        [&](std::uint32_t r) { return los[begin + r] / bucket; },
        [&](std::uint32_t r) { return lengths[begin + r]; }, scratch);
  }
  return order;
}

}  // namespace kreg
