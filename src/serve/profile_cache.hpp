#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/job.hpp"
#include "serve/fingerprint.hpp"

namespace kreg::serve {

/// Identity of a cached selection profile. Two jobs share an entry exactly
/// when they would provably compute the same bits: same dataset content
/// (dual fingerprint + exact length), same estimator/kernel/precision, and
/// the same grid *in the same order* (the grid digest is order-sensitive,
/// so a permuted grid misses). Streaming knobs are deliberately absent —
/// every plan they induce is bitwise identical for a fixed key (the
/// streaming parity contract) — and so is the backend: for every estimator
/// the host sweep, the host tiled profile and the device all fold each grid
/// entry's residuals in ascending observation order, so their profiles are
/// bitwise equal and one entry serves all three.
struct CacheKey {
  Fingerprint128 data_fp;
  std::size_t n = 0;
  EstimatorKind estimator = EstimatorKind::kNadarayaWatson;
  KernelType kernel = KernelType::kEpanechnikov;
  Precision precision = Precision::kDouble;
  Fingerprint128 grid_fp;
  std::size_t grid_size = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// Builds the key for a (validated) job. The dataset fingerprint is
/// recomputed from content — two distinct handles to equal data share the
/// entry.
CacheKey cache_key(const SelectionJob& job);

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const noexcept;
};

/// Monotone counters; `resident_bytes`/`resident_entries` are gauges.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_oversize = 0;  ///< entries larger than the budget
  std::size_t resident_bytes = 0;
  std::size_t resident_entries = 0;
};

/// LRU profile cache under a byte budget.
///
/// Entries are charged their modeled footprint (entry_bytes: key + vector
/// payloads + method string + index overhead). An insert that would exceed
/// the budget evicts from the LRU end until it fits; a single entry larger
/// than the whole budget is rejected (counted, not stored). A budget of 0
/// disables the cache entirely: every lookup misses, every insert is
/// rejected. Not internally synchronized — the scheduler serializes access
/// (all cache decisions happen on the dispatch thread, which is what makes
/// hit/miss/eviction sequences deterministic and exactly assertable).
class ProfileCache {
 public:
  explicit ProfileCache(std::size_t budget_bytes);

  /// Returns the cached profile (a copy — caller owns it) and promotes the
  /// entry to most-recently-used. std::nullopt on miss.
  std::optional<SelectionProfile> lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry and returns the keys evicted to make
  /// room, in eviction order (least recently used first).
  std::vector<CacheKey> insert(const CacheKey& key,
                               const SelectionProfile& profile);

  /// Modeled footprint an entry with this profile is charged.
  static std::size_t entry_bytes(const SelectionProfile& profile);

  std::size_t budget_bytes() const noexcept { return budget_; }
  std::size_t resident_bytes() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return lru_.size(); }
  const CacheStats& stats() const noexcept { return stats_; }

  /// Keys most-recently-used first — the exact eviction order reversed,
  /// for tests that pin LRU behaviour.
  std::vector<CacheKey> keys_mru_first() const;

  void clear();

 private:
  struct Entry {
    CacheKey key;
    SelectionProfile profile;
    std::size_t bytes = 0;
  };

  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_;
  CacheStats stats_;
};

}  // namespace kreg::serve
