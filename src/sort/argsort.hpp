#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "parallel/blocked_range.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg::sort {

/// Rows per part of the radix sort. n rows split into
/// min(pool workers, ⌈n / kRadixGrain⌉) contiguous parts, so a sample of at
/// most kRadixGrain rows (the paper's samples among them) sorts inline on
/// the calling thread and never touches the pool. Below about 32 rows per
/// part and bucket the parts' scatters share cache lines, and on a 4-vCPU
/// Xeon four parts of 16,384 rows ran slower than one part. A call from one
/// of the pool's own workers runs its parts in order on that worker; every
/// part count gives the same result.
inline constexpr std::size_t kRadixGrain = 65536;

/// The order-preserving image of a double's bits: the images ascend as
/// unsigned integers with the values, −0.0 sits just below +0.0, NaNs sit
/// beyond ±∞ by their sign bit, and equal images mean equal bits.
inline std::uint64_t ordered_bits(double v) noexcept {
  const auto u = std::bit_cast<std::uint64_t>(v);
  return (u >> 63) != 0 ? ~u : u | (std::uint64_t{1} << 63);
}

class Ordering;

template <class TieLess>
Ordering argsort(std::span<const double> keys, TieLess&& tie_less,
                 parallel::ThreadPool* pool = nullptr);

namespace detail {

/// Runs body(p) for every part p: inline for one part, else on the pool.
template <class Body>
void run_parts(std::size_t parts, Body&& body, parallel::ThreadPool* pool) {
  if (parts == 1) {
    body(0);
    return;
  }
  parallel::parallel_for(parts, body, pool);
}

/// The stable LSD radix sort of `keys` by ordered_bits; with `with_rows` it
/// also records each position's input row, equal keys in input order.
inline Ordering radix_order(std::span<const double> keys, bool with_rows,
                            parallel::ThreadPool* pool);

}  // namespace detail

/// The ascending order of n rows by one double key each: position p holds
/// keys()[p], the key of the row for_each hands with p. Built by argsort or
/// sorted_keys.
class Ordering {
 public:
  std::size_t size() const noexcept { return keys_.size(); }

  /// The keys, ascending by ordered_bits.
  std::span<const double> keys() const noexcept { return keys_; }

  /// The sorted keys, moved out: a caller whose sorted column is the keys
  /// themselves takes this storage instead of copying it.
  std::vector<double> take_keys() && { return std::move(keys_); }

  /// Calls body(p, row) for every position p, with the input row placed
  /// there, in the sort's contiguous parts on its pool: the gather of a
  /// sorted sample's columns (argsort orderings only). Calls for distinct
  /// parts run concurrently, so `body` may write only position p of its
  /// outputs.
  template <class Body>
  void for_each(Body&& body) const {
    std::visit(
        [&](const auto& rows) {
          const std::vector<parallel::BlockedRange> chunks =
              parallel::partition_evenly(rows.size(), parts_);
          detail::run_parts(
              chunks.size(),
              [&](std::size_t part) {
                for (std::size_t p = chunks[part].begin; p < chunks[part].end;
                     ++p) {
                  body(p, static_cast<std::size_t>(rows[p]));
                }
              },
              pool_);
        },
        rows_);
  }

 private:
  friend Ordering detail::radix_order(std::span<const double>, bool,
                                      parallel::ThreadPool*);
  template <class TieLess>
  friend Ordering argsort(std::span<const double>, TieLess&&,
                          parallel::ThreadPool*);

  /// Sorts the rows of every run of equal keys by tie_less(row, row). Part
  /// bounds move past the runs they would split, so each run is one part's.
  template <class TieLess>
  void order_ties(TieLess& tie_less) {
    const std::size_t n = size();
    const auto same = [this](std::size_t a, std::size_t b) {
      return std::bit_cast<std::uint64_t>(keys_[a]) ==
             std::bit_cast<std::uint64_t>(keys_[b]);
    };
    std::vector<std::size_t> bounds;
    for (const parallel::BlockedRange& chunk :
         parallel::partition_evenly(n, parts_)) {
      std::size_t b = std::max(chunk.begin, bounds.empty() ? 0 : bounds.back());
      while (b > 0 && b < n && same(b - 1, b)) {
        ++b;
      }
      bounds.push_back(b);
    }
    bounds.push_back(n);
    std::visit(
        [&](auto& rows) {
          using Index = typename std::decay_t<decltype(rows)>::value_type;
          detail::run_parts(
              bounds.size() - 1,
              [&](std::size_t part) {
                const std::size_t end = bounds[part + 1];
                for (std::size_t i = bounds[part]; i < end;) {
                  std::size_t j = i + 1;
                  while (j < end && same(i, j)) {
                    ++j;
                  }
                  if (j - i > 1) {
                    std::sort(rows.begin() + i, rows.begin() + j,
                              [&](Index a, Index b) {
                                return tie_less(static_cast<std::size_t>(a),
                                                static_cast<std::size_t>(b));
                              });
                  }
                  i = j;
                }
              },
              pool_);
        },
        rows_);
  }

  std::vector<double> keys_;
  /// 32-bit rows below 2³² rows, 64-bit above.
  std::variant<std::vector<std::uint32_t>, std::vector<std::uint64_t>> rows_;
  std::size_t parts_ = 1;
  parallel::ThreadPool* pool_ = nullptr;
};

namespace detail {

inline constexpr unsigned kDigitBits = 11;
inline constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
inline constexpr unsigned kDigits = (64 + kDigitBits - 1) / kDigitBits;

inline std::size_t bucket(double v, unsigned shift) noexcept {
  return static_cast<std::size_t>(ordered_bits(v) >> shift) & (kBuckets - 1);
}

/// One stable scatter of a part's rows [begin, end) by the digit at
/// `shift`: `next` holds the part's first free position per bucket.
template <class Index, class RowOf>
void scatter(const double* src, std::size_t begin, std::size_t end,
             unsigned shift, Index* next, double* dst, Index* dst_rows,
             RowOf row_of) {
  for (std::size_t i = begin; i < end; ++i) {
    const double v = src[i];
    const Index pos = next[bucket(v, shift)]++;
    dst[pos] = v;
    if constexpr (!std::is_same_v<RowOf, std::nullptr_t>) {
      dst_rows[pos] = row_of(i);
    }
  }
}

/// The passes, `Index` wide: counts per part of every digit over the input
/// order, the digits whose counts put every row in one bucket dropped, then
/// one counted, scanned and scattered pass per remaining digit, least
/// significant first. The passes alternate between `keys`/`rows` and one
/// scratch half; the first pass writes wherever makes the last one land in
/// `keys`/`rows`, and the scratch half dies on return.
template <class Index>
void radix_passes(std::span<const double> in, bool with_rows,
                  const std::vector<parallel::BlockedRange>& chunks,
                  parallel::ThreadPool* pool, std::vector<double>& keys,
                  std::vector<Index>& rows) {
  const std::size_t n = in.size();
  const std::size_t parts = chunks.size();
  std::vector<Index> counts(parts * kDigits * kBuckets, Index{0});
  run_parts(
      parts,
      [&](std::size_t p) {
        Index* c = counts.data() + p * kDigits * kBuckets;
        for (std::size_t i = chunks[p].begin; i < chunks[p].end; ++i) {
          const std::uint64_t u = ordered_bits(in[i]);
          for (unsigned d = 0; d < kDigits; ++d) {
            ++c[d * kBuckets + ((u >> (d * kDigitBits)) & (kBuckets - 1))];
          }
        }
      },
      pool);
  std::vector<unsigned> digits;
  for (unsigned d = 0; d < kDigits; ++d) {
    const std::size_t b = bucket(in[0], d * kDigitBits);
    std::size_t total = 0;
    for (std::size_t p = 0; p < parts; ++p) {
      total += counts[(p * kDigits + d) * kBuckets + b];
    }
    if (total != n) {
      digits.push_back(d);
    }
  }

  keys.resize(n);
  if (with_rows) {
    rows.resize(n);
  }
  if (digits.empty()) {  // every key has the same bits
    std::copy(in.begin(), in.end(), keys.begin());
    std::iota(rows.begin(), rows.end(), Index{0});
    return;
  }
  std::unique_ptr<double[]> spare_keys;
  std::unique_ptr<Index[]> spare_rows;
  if (digits.size() > 1) {
    spare_keys = std::make_unique_for_overwrite<double[]>(n);
    if (with_rows) {
      spare_rows = std::make_unique_for_overwrite<Index[]>(n);
    }
  }
  std::vector<Index> next(parts * kBuckets);
  for (std::size_t j = 0; j < digits.size(); ++j) {
    const unsigned shift = digits[j] * kDigitBits;
    const bool into_result = (digits.size() - 1 - j) % 2 == 0;
    double* dst = into_result ? keys.data() : spare_keys.get();
    Index* dst_rows = into_result ? rows.data() : spare_rows.get();
    const double* src = j == 0 ? in.data()
                        : into_result ? spare_keys.get()
                                      : keys.data();
    const Index* src_rows = into_result ? spare_rows.get() : rows.data();
    // The input-order counts hold for the first pass, and for every pass
    // when one part spans all rows.
    if (j == 0 || parts == 1) {
      for (std::size_t p = 0; p < parts; ++p) {
        const Index* c = counts.data() + (p * kDigits + digits[j]) * kBuckets;
        std::copy(c, c + kBuckets, next.data() + p * kBuckets);
      }
    } else {
      run_parts(
          parts,
          [&](std::size_t p) {
            Index* c = next.data() + p * kBuckets;
            std::fill(c, c + kBuckets, Index{0});
            for (std::size_t i = chunks[p].begin; i < chunks[p].end; ++i) {
              ++c[bucket(src[i], shift)];
            }
          },
          pool);
    }
    // Exclusive scan in (bucket, part) order: part p's rows of bucket b go
    // after every row of a lower bucket and after earlier parts' rows of b.
    Index sum = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      for (std::size_t p = 0; p < parts; ++p) {
        const Index c = next[p * kBuckets + b];
        next[p * kBuckets + b] = sum;
        sum += c;
      }
    }
    run_parts(
        parts,
        [&](std::size_t p) {
          const std::size_t begin = chunks[p].begin;
          const std::size_t end = chunks[p].end;
          Index* part_next = next.data() + p * kBuckets;
          if (!with_rows) {
            scatter<Index>(src, begin, end, shift, part_next, dst, nullptr,
                           nullptr);
          } else if (j == 0) {
            scatter<Index>(src, begin, end, shift, part_next, dst, dst_rows,
                           [](std::size_t i) { return static_cast<Index>(i); });
          } else {
            scatter<Index>(src, begin, end, shift, part_next, dst, dst_rows,
                           [src_rows](std::size_t i) { return src_rows[i]; });
          }
        },
        pool);
  }
}

inline Ordering radix_order(std::span<const double> keys, bool with_rows,
                            parallel::ThreadPool* pool) {
  Ordering order;
  const std::size_t n = keys.size();
  if (n == 0) {
    return order;
  }
  const std::size_t wanted = (n - 1) / kRadixGrain + 1;
  if (wanted > 1) {
    if (pool == nullptr) {
      pool = &parallel::ThreadPool::global();
    }
    order.parts_ = std::max<std::size_t>(1, std::min(wanted, pool->size()));
    order.pool_ = pool;
  }
  const std::vector<parallel::BlockedRange> chunks =
      parallel::partition_evenly(n, order.parts_);
  if (n <= std::numeric_limits<std::uint32_t>::max()) {
    radix_passes(keys, with_rows, chunks, pool, order.keys_,
                 order.rows_.emplace<std::vector<std::uint32_t>>());
  } else {
    radix_passes(keys, with_rows, chunks, pool, order.keys_,
                 order.rows_.emplace<std::vector<std::uint64_t>>());
  }
  return order;
}

}  // namespace detail

/// The one global sort of a sample: the rows of `keys` ascending by
/// ordered_bits, rows with equal keys ordered by tie_less(a, b) on their
/// input row indices (called concurrently; it must only read). When the
/// tie order leaves only rows that are identical in everything the caller
/// gathers, the gathered columns depend on the sample and not on its row
/// order. An LSD radix sort over 11-bit digits on `pool` (nullptr = the
/// global pool): per-part digit counts, one exclusive scan, a stable
/// scatter per digit, digits constant over the input skipped. Scratch is
/// one more half of keys and rows, freed before this returns.
template <class TieLess>
Ordering argsort(std::span<const double> keys, TieLess&& tie_less,
                 parallel::ThreadPool* pool) {
  Ordering order = detail::radix_order(keys, /*with_rows=*/true, pool);
  order.order_ties(tie_less);
  return order;
}

/// The keys-only form: `keys` ascending by ordered_bits.
inline std::vector<double> sorted_keys(std::span<const double> keys,
                                       parallel::ThreadPool* pool = nullptr) {
  return detail::radix_order(keys, /*with_rows=*/false, pool).take_keys();
}

}  // namespace kreg::sort
