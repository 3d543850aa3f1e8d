#include "serve/profile_cache.hpp"

#include <utility>

namespace kreg::serve {

namespace {

// Chain the key's words through the same splitmix64-style permutation the
// fingerprints use, so the table hash covers every identity field (the
// fingerprints alone are not the identity — lengths and enums are too).
constexpr std::uint64_t mix(std::uint64_t state, std::uint64_t word) noexcept {
  std::uint64_t z = state + word + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

CacheKey cache_key(const SelectionJob& job) {
  CacheKey key;
  key.data_fp = fingerprint_dataset(*job.data);
  key.n = job.data->size();
  key.estimator = job.estimator;
  key.kernel = job.kernel;
  key.precision = job.precision;
  if (job.estimator == EstimatorKind::kKnn) {
    key.grid_fp = fingerprint_counts(job.neighbor_grid);
    key.grid_size = job.neighbor_grid.size();
  } else {
    key.grid_fp = fingerprint_span(job.bandwidth_grid);
    key.grid_size = job.bandwidth_grid.size();
  }
  return key;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const noexcept {
  std::uint64_t h = 0x70726f6663616368ULL;  // "profcach"
  h = mix(h, key.data_fp.lo);
  h = mix(h, key.data_fp.hi);
  h = mix(h, key.n);
  h = mix(h, static_cast<std::uint64_t>(key.estimator));
  h = mix(h, static_cast<std::uint64_t>(key.kernel));
  h = mix(h, static_cast<std::uint64_t>(key.precision));
  h = mix(h, key.grid_fp.lo);
  h = mix(h, key.grid_fp.hi);
  h = mix(h, key.grid_size);
  return static_cast<std::size_t>(h);
}

ProfileCache::ProfileCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

std::size_t ProfileCache::entry_bytes(const SelectionProfile& profile) {
  // Key + profile payloads + per-entry index/list overhead. The constant
  // covers the list node and hash-bucket bookkeeping; the exact value only
  // has to be deterministic and monotone in payload size for the eviction
  // tests to pin behaviour.
  constexpr std::size_t kNodeOverhead = 128;
  return kNodeOverhead + sizeof(CacheKey) + sizeof(SelectionProfile) +
         profile.grid.size() * sizeof(double) +
         profile.scores.size() * sizeof(double) + profile.method.size();
}

std::optional<SelectionProfile> ProfileCache::lookup(const CacheKey& key) {
  ++stats_.lookups;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->profile;
}

std::vector<CacheKey> ProfileCache::insert(const CacheKey& key,
                                           const SelectionProfile& profile) {
  std::vector<CacheKey> evicted;
  const std::size_t bytes = entry_bytes(profile);
  if (bytes > budget_) {  // covers budget_ == 0: cache disabled
    ++stats_.rejected_oversize;
    return evicted;
  }
  if (const auto it = index_.find(key); it != index_.end()) {
    // Refresh in place: same key means provably the same bits, but keep
    // the accounting honest and promote to MRU.
    bytes_ -= it->second->bytes;
    it->second->profile = profile;
    it->second->bytes = bytes;
    bytes_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, profile, bytes});
    index_.emplace(key, lru_.begin());
    bytes_ += bytes;
    ++stats_.insertions;
  }
  while (bytes_ > budget_) {
    Entry& victim = lru_.back();
    evicted.push_back(victim.key);
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  stats_.resident_bytes = bytes_;
  stats_.resident_entries = lru_.size();
  return evicted;
}

std::vector<CacheKey> ProfileCache::keys_mru_first() const {
  std::vector<CacheKey> keys;
  keys.reserve(lru_.size());
  for (const Entry& entry : lru_) {
    keys.push_back(entry.key);
  }
  return keys;
}

void ProfileCache::clear() {
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  stats_.resident_bytes = 0;
  stats_.resident_entries = 0;
}

}  // namespace kreg::serve
