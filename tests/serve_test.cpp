// kreg-serve suite: the async selection scheduler, its profile cache, the
// line protocol, and the strict server knobs.
//
// The deterministic executor mode is the load-bearing test surface — wave
// formation and commit are single-threaded in *both* executor modes, so
// every scheduling decision (cache hit/miss, within-wave coalescing,
// co-schedule grouping, admission deferral, solo-override, eviction order)
// is pinned here as an exact event sequence, and the threaded executor is
// differential-tested against it (same submissions → same decisions, same
// bits). Every profile a scheduler returns is required to be bitwise
// identical to a direct run_job call — the contract that makes the cache
// and co-scheduling safe at all.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/grid.hpp"
#include "core/job.hpp"
#include "core/knn_sweep.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "serve/fingerprint.hpp"
#include "serve/knobs.hpp"
#include "serve/profile_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::EstimatorKind;
using kreg::JobBackend;
using kreg::JobContext;
using kreg::KernelType;
using kreg::Precision;
using kreg::SelectionJob;
using kreg::SelectionProfile;
using kreg::serve::CacheKey;
using kreg::serve::cache_key;
using kreg::serve::CacheKeyHash;
using kreg::serve::Event;
using kreg::serve::EventKind;
using kreg::serve::Fingerprint128;
using kreg::serve::JobOutcome;
using kreg::serve::ProfileCache;
using kreg::serve::Scheduler;
using kreg::serve::SchedulerConfig;
using kreg::serve::ServeContext;

std::shared_ptr<const kreg::data::Dataset> make_data(std::size_t n,
                                                     std::uint64_t seed) {
  kreg::rng::Stream stream(seed);
  return std::make_shared<const kreg::data::Dataset>(
      kreg::data::paper_dgp(n, stream));
}

SelectionJob make_job(std::shared_ptr<const kreg::data::Dataset> data,
                      EstimatorKind estimator = EstimatorKind::kNadarayaWatson,
                      JobBackend backend = JobBackend::kDevice,
                      std::size_t grid_size = 12) {
  SelectionJob job;
  job.data = std::move(data);
  job.estimator = estimator;
  job.backend = backend;
  if (estimator == EstimatorKind::kKnn) {
    job.neighbor_grid = kreg::default_neighbor_grid(job.data->size(),
                                                    grid_size);
  } else {
    job.bandwidth_grid =
        kreg::BandwidthGrid(0.05, 1.0, grid_size).values();
  }
  return job;
}

SelectionProfile direct_run(const SelectionJob& job) {
  kreg::spmd::Device device;
  JobContext ctx;
  ctx.device = &device;
  return kreg::run_job(job, ctx);
}

void expect_profiles_bitwise(const SelectionProfile& got,
                             const SelectionProfile& want) {
  ASSERT_EQ(got.grid.size(), want.grid.size());
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (std::size_t i = 0; i < got.grid.size(); ++i) {
    EXPECT_EQ(got.grid[i], want.grid[i]) << "grid[" << i << "]";
  }
  for (std::size_t i = 0; i < got.scores.size(); ++i) {
    EXPECT_EQ(got.scores[i], want.scores[i]) << "scores[" << i << "]";
  }
  EXPECT_EQ(got.argmin, want.argmin);
  EXPECT_EQ(got.selected, want.selected);
  EXPECT_EQ(got.cv_score, want.cv_score);
  EXPECT_EQ(got.estimator, want.estimator);
}

std::vector<EventKind> kinds(const std::vector<Event>& events) {
  std::vector<EventKind> out;
  out.reserve(events.size());
  for (const Event& e : events) {
    out.push_back(e.kind);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(Fingerprint, DeterministicAndContentSensitive) {
  const std::vector<double> a = {0.1, 0.2, 0.3};
  const std::vector<double> b = {0.1, 0.2, 0.30000000000000004};
  EXPECT_EQ(kreg::serve::fingerprint_span(a), kreg::serve::fingerprint_span(a));
  EXPECT_NE(kreg::serve::fingerprint_span(a), kreg::serve::fingerprint_span(b));
}

TEST(Fingerprint, OrderSensitive) {
  const std::vector<double> fwd = {0.1, 0.2, 0.3};
  const std::vector<double> rev = {0.3, 0.2, 0.1};
  EXPECT_NE(kreg::serve::fingerprint_span(fwd),
            kreg::serve::fingerprint_span(rev));
}

TEST(Fingerprint, NegativeZeroIsBitwiseDistinct) {
  const std::vector<double> pos = {0.0};
  const std::vector<double> neg = {-0.0};
  EXPECT_NE(kreg::serve::fingerprint_span(pos),
            kreg::serve::fingerprint_span(neg));
}

TEST(Fingerprint, DatasetDependsOnBothCoordinates) {
  auto base = make_data(64, 7);
  kreg::data::Dataset other_y = *base;
  other_y.y[10] = other_y.y[10] + 1e-9;
  kreg::data::Dataset swapped = *base;
  std::swap(swapped.x, swapped.y);
  const Fingerprint128 fp = kreg::serve::fingerprint_dataset(*base);
  EXPECT_NE(fp, kreg::serve::fingerprint_dataset(other_y));
  EXPECT_NE(fp, kreg::serve::fingerprint_dataset(swapped));
}

// ---------------------------------------------------------------------------
// Cache keys

TEST(CacheKeyTest, EqualContentDistinctHandlesShareKey) {
  const auto job_a = make_job(make_data(96, 3));
  auto job_b = job_a;
  job_b.data = make_data(96, 3);  // same bits, different handle
  ASSERT_NE(job_a.data.get(), job_b.data.get());
  EXPECT_EQ(cache_key(job_a), cache_key(job_b));
  EXPECT_EQ(CacheKeyHash{}(cache_key(job_a)), CacheKeyHash{}(cache_key(job_b)));
}

TEST(CacheKeyTest, DifferentYMisses) {
  const auto job_a = make_job(make_data(96, 3));
  auto modified = *job_a.data;
  modified.y[0] += 1.0;
  auto job_b = job_a;
  job_b.data = std::make_shared<const kreg::data::Dataset>(std::move(modified));
  EXPECT_NE(cache_key(job_a), cache_key(job_b));
}

TEST(CacheKeyTest, PermutedGridMisses) {
  const auto job_a = make_job(make_data(96, 3));
  auto job_b = job_a;
  std::swap(job_b.bandwidth_grid.front(), job_b.bandwidth_grid.back());
  EXPECT_NE(cache_key(job_a), cache_key(job_b));
}

TEST(CacheKeyTest, EstimatorKernelPrecisionDisambiguate) {
  const auto data = make_data(96, 3);
  const auto nw = make_job(data);
  auto other = nw;
  other.kernel = KernelType::kUniform;
  EXPECT_NE(cache_key(nw), cache_key(other));
  other = nw;
  other.precision = Precision::kFloat;
  EXPECT_NE(cache_key(nw), cache_key(other));
  EXPECT_NE(cache_key(nw),
            cache_key(make_job(data, EstimatorKind::kOscv)));
}

TEST(CacheKeyTest, KnobsCollapseIntoBitwiseFamilies) {
  // Streaming/batching knobs never split the key (every plan they induce
  // is bitwise identical), and backends collapse into numeric families:
  // the NW host sweeps share one family, the NW device reduction is its
  // own, and knn/oscv reproduce one bit pattern on every backend.
  const auto data = make_data(96, 3);
  SelectionJob nw_device = make_job(data);
  auto knobs = nw_device;
  knobs.stream.memory_budget_bytes = 1 << 16;
  knobs.stream.k_block = 3;
  EXPECT_EQ(cache_key(nw_device), cache_key(knobs));
  SelectionJob nw_sweep = nw_device;
  nw_sweep.backend = JobBackend::kHostSweep;
  SelectionJob nw_tiled = nw_device;
  nw_tiled.backend = JobBackend::kHostTiled;
  EXPECT_EQ(cache_key(nw_sweep), cache_key(nw_tiled));
  EXPECT_NE(cache_key(nw_device), cache_key(nw_sweep));
  SelectionJob oscv_device = make_job(data, EstimatorKind::kOscv);
  SelectionJob oscv_host = oscv_device;
  oscv_host.backend = JobBackend::kHostSweep;
  EXPECT_EQ(cache_key(oscv_device), cache_key(oscv_host));
}

// ---------------------------------------------------------------------------
// Profile cache

SelectionProfile tiny_profile(double seed_value, std::size_t grid_size = 4) {
  SelectionProfile profile;
  for (std::size_t i = 0; i < grid_size; ++i) {
    profile.grid.push_back(0.1 * static_cast<double>(i + 1));
    profile.scores.push_back(seed_value + static_cast<double>(i));
  }
  profile.argmin = 0;
  profile.selected = profile.grid[0];
  profile.cv_score = profile.scores[0];
  profile.method = "job:nw:device:epanechnikov:double";
  return profile;
}

CacheKey manual_key(std::uint64_t tag) {
  CacheKey key;
  key.data_fp = Fingerprint128{tag, ~tag};
  key.n = 96;
  key.grid_fp = Fingerprint128{tag * 3, tag * 5};
  key.grid_size = 4;
  return key;
}

TEST(ProfileCacheTest, RepeatHitIsBitwiseIdenticalAndCounted) {
  const SelectionProfile profile = tiny_profile(1.5);
  ProfileCache cache(1 << 20);
  const CacheKey key = manual_key(1);
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, profile);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  expect_profiles_bitwise(*hit, profile);
  EXPECT_EQ(cache.stats().lookups, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(ProfileCacheTest, EvictsInExactLruOrder) {
  const SelectionProfile profile = tiny_profile(2.0);
  const std::size_t entry = ProfileCache::entry_bytes(profile);
  ProfileCache cache(3 * entry);
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    EXPECT_TRUE(cache.insert(manual_key(tag), profile).empty());
  }
  // Key 1 is now LRU; inserting a fourth evicts exactly it.
  const std::vector<CacheKey> evicted = cache.insert(manual_key(4), profile);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], manual_key(1));
  const std::vector<CacheKey> mru = cache.keys_mru_first();
  ASSERT_EQ(mru.size(), 3u);
  EXPECT_EQ(mru[0], manual_key(4));
  EXPECT_EQ(mru[1], manual_key(3));
  EXPECT_EQ(mru[2], manual_key(2));
}

TEST(ProfileCacheTest, LookupPromotesToMru) {
  const SelectionProfile profile = tiny_profile(2.5);
  ProfileCache cache(3 * ProfileCache::entry_bytes(profile));
  for (std::uint64_t tag = 1; tag <= 3; ++tag) {
    cache.insert(manual_key(tag), profile);
  }
  ASSERT_TRUE(cache.lookup(manual_key(1)).has_value());  // promote the LRU
  const std::vector<CacheKey> evicted = cache.insert(manual_key(4), profile);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], manual_key(2));  // 2 became LRU after the touch
}

TEST(ProfileCacheTest, ByteAccountingTracksResidentEntries) {
  const SelectionProfile profile = tiny_profile(3.0);
  const std::size_t entry = ProfileCache::entry_bytes(profile);
  ProfileCache cache(10 * entry);
  for (std::uint64_t tag = 1; tag <= 4; ++tag) {
    cache.insert(manual_key(tag), profile);
  }
  EXPECT_EQ(cache.resident_bytes(), 4 * entry);
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().resident_bytes, 4 * entry);
  EXPECT_EQ(cache.stats().resident_entries, 4u);
  cache.clear();
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProfileCacheTest, OversizeEntryRejectedNotStored) {
  const SelectionProfile profile = tiny_profile(4.0, 64);
  ProfileCache cache(ProfileCache::entry_bytes(profile) - 1);
  EXPECT_TRUE(cache.insert(manual_key(1), profile).empty());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_FALSE(cache.lookup(manual_key(1)).has_value());
}

TEST(ProfileCacheTest, ZeroBudgetDisablesTheCache) {
  ProfileCache cache(0);
  const SelectionProfile profile = tiny_profile(5.0);
  cache.insert(manual_key(1), profile);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().rejected_oversize, 1u);
  EXPECT_FALSE(cache.lookup(manual_key(1)).has_value());
}

TEST(ProfileCacheTest, RefreshInPlaceReaccountsBytes) {
  ProfileCache cache(1 << 20);
  const SelectionProfile small = tiny_profile(6.0, 4);
  const SelectionProfile large = tiny_profile(6.0, 24);
  cache.insert(manual_key(1), small);
  cache.insert(manual_key(1), large);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), ProfileCache::entry_bytes(large));
  const auto hit = cache.lookup(manual_key(1));
  ASSERT_TRUE(hit.has_value());
  expect_profiles_bitwise(*hit, large);
}

TEST(ProfileCacheTest, FingerprintCollisionRegression) {
  // Even a full 128-bit fingerprint collision (manufactured here) must not
  // alias entries: the key also carries exact lengths, and equality
  // compares every field.
  CacheKey a = manual_key(1);
  CacheKey b = a;
  b.n = a.n + 1;
  CacheKey c = a;
  c.grid_size = a.grid_size + 1;
  ASSERT_EQ(a.data_fp, b.data_fp);
  ASSERT_EQ(a.grid_fp, c.grid_fp);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  ProfileCache cache(1 << 20);
  cache.insert(a, tiny_profile(1.0));
  cache.insert(b, tiny_profile(2.0));
  cache.insert(c, tiny_profile(3.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.lookup(a)->scores[0], 1.0);
  EXPECT_EQ(cache.lookup(b)->scores[0], 2.0);
  EXPECT_EQ(cache.lookup(c)->scores[0], 3.0);
}

// ---------------------------------------------------------------------------
// Server knobs (strict validators)

TEST(ParseWorkerCount, AcceptsDigitsInRange) {
  const struct {
    const char* text;
    std::size_t want;
  } ok[] = {{"1", 1}, {"8", 8}, {"07", 7}, {"256", 256}};
  for (const auto& row : ok) {
    EXPECT_EQ(kreg::serve::parse_worker_count(row.text), row.want)
        << "text=" << row.text;
  }
}

TEST(ParseWorkerCount, RejectsEmptyZeroGarbageAndOverflow) {
  const char* bad[] = {"",   "0",   "-1",  " 4", "4 ",
                       "4x", "x4",  "+2",  "1e2", "0.5",
                       "257", "99999", "184467440737095516160"};
  for (const char* text : bad) {
    EXPECT_THROW(kreg::serve::parse_worker_count(text), std::invalid_argument)
        << "text='" << text << "'";
  }
}

TEST(ResolveWorkerCount, SentinelConsultsEnvironment) {
  ::unsetenv("KREG_SERVE_WORKERS");
  EXPECT_EQ(kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 0),
            0u);
  ::setenv("KREG_SERVE_WORKERS", "", 1);
  EXPECT_EQ(kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 3),
            3u);
  ::setenv("KREG_SERVE_WORKERS", "12", 1);
  EXPECT_EQ(kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 0),
            12u);
  ::setenv("KREG_SERVE_WORKERS", "0", 1);
  EXPECT_THROW(kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 0),
               std::invalid_argument);
  ::setenv("KREG_SERVE_WORKERS", "lots", 1);
  EXPECT_THROW(kreg::serve::resolve_worker_count(kreg::serve::kServeFromEnv, 0),
               std::invalid_argument);
  ::unsetenv("KREG_SERVE_WORKERS");
  // Explicit values: 0 means fallback; above the cap throws.
  EXPECT_EQ(kreg::serve::resolve_worker_count(0, 5), 5u);
  EXPECT_EQ(kreg::serve::resolve_worker_count(16, 0), 16u);
  EXPECT_THROW(kreg::serve::resolve_worker_count(257, 0),
               std::invalid_argument);
}

TEST(ParseCacheBudget, KeywordsSuffixesAndRejects) {
  EXPECT_EQ(kreg::serve::parse_cache_budget("0"), 0u);
  EXPECT_EQ(kreg::serve::parse_cache_budget("off"), 0u);
  EXPECT_EQ(kreg::serve::parse_cache_budget("none"), 0u);
  EXPECT_EQ(kreg::serve::parse_cache_budget("disabled"), 0u);
  EXPECT_EQ(kreg::serve::parse_cache_budget("4096"), 4096u);
  EXPECT_EQ(kreg::serve::parse_cache_budget("64K"), std::size_t{64} << 10);
  EXPECT_EQ(kreg::serve::parse_cache_budget("2MiB"), std::size_t{2} << 20);
  // parse_memory_budget tolerates surrounding whitespace (established
  // library behaviour); everything else about it is strict.
  EXPECT_EQ(kreg::serve::parse_cache_budget(" 4 "), 4u);
  const char* bad[] = {"", "OFF", "-1", "1.5M", "1QB", "4x4"};
  for (const char* text : bad) {
    EXPECT_THROW(kreg::serve::parse_cache_budget(text), std::invalid_argument)
        << "text='" << text << "'";
  }
}

TEST(ResolveCacheBudget, SentinelConsultsEnvironment) {
  ::unsetenv("KREG_SERVE_CACHE_BUDGET");
  EXPECT_EQ(kreg::serve::resolve_cache_budget(kreg::serve::kServeFromEnv),
            kreg::serve::kDefaultCacheBudgetBytes);
  ::setenv("KREG_SERVE_CACHE_BUDGET", "off", 1);
  EXPECT_EQ(kreg::serve::resolve_cache_budget(kreg::serve::kServeFromEnv), 0u);
  ::setenv("KREG_SERVE_CACHE_BUDGET", "2M", 1);
  EXPECT_EQ(kreg::serve::resolve_cache_budget(kreg::serve::kServeFromEnv),
            std::size_t{2} << 20);
  ::setenv("KREG_SERVE_CACHE_BUDGET", "junk", 1);
  EXPECT_THROW(kreg::serve::resolve_cache_budget(kreg::serve::kServeFromEnv),
               std::invalid_argument);
  ::unsetenv("KREG_SERVE_CACHE_BUDGET");
  // Explicit values — including 0, cache off — pass through verbatim.
  EXPECT_EQ(kreg::serve::resolve_cache_budget(0), 0u);
  EXPECT_EQ(kreg::serve::resolve_cache_budget(1234), 1234u);
}

TEST(ValidateSocketPath, AcceptsAbsoluteRejectsTheRest) {
  EXPECT_NO_THROW(kreg::serve::validate_socket_path("/tmp/kreg.sock"));
  EXPECT_THROW(kreg::serve::validate_socket_path(""), std::invalid_argument);
  EXPECT_THROW(kreg::serve::validate_socket_path("relative.sock"),
               std::invalid_argument);
  EXPECT_THROW(
      kreg::serve::validate_socket_path("/" + std::string(107, 'a') + ".sock"),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ParseRequest, VerbsAndStrictArity) {
  using kreg::serve::RequestKind;
  EXPECT_EQ(kreg::serve::parse_request("ping").kind, RequestKind::kPing);
  EXPECT_EQ(kreg::serve::parse_request("  stats ").kind, RequestKind::kStats);
  EXPECT_EQ(kreg::serve::parse_request("shutdown").kind,
            RequestKind::kShutdown);
  EXPECT_THROW(kreg::serve::parse_request(""), std::invalid_argument);
  EXPECT_THROW(kreg::serve::parse_request("ping now"), std::invalid_argument);
  EXPECT_THROW(kreg::serve::parse_request("selec"), std::invalid_argument);
}

TEST(ParseRequest, SelectDefaults) {
  const kreg::serve::Request request = kreg::serve::parse_request("select");
  EXPECT_EQ(request.kind, kreg::serve::RequestKind::kSelect);
  EXPECT_EQ(request.estimator, EstimatorKind::kNadarayaWatson);
  EXPECT_EQ(request.kernel, KernelType::kEpanechnikov);
  EXPECT_EQ(request.precision, Precision::kDouble);
  EXPECT_EQ(request.dgp, "paper");
  EXPECT_EQ(request.n, 512u);
  EXPECT_EQ(request.seed, 1u);
  EXPECT_FALSE(request.grid.set);
  EXPECT_EQ(request.backend, JobBackend::kDevice);
}

TEST(ParseRequest, SelectFullLine) {
  const kreg::serve::Request request = kreg::serve::parse_request(
      "select estimator=oscv kernel=uniform precision=float dgp=paper "
      "n=300 seed=42 grid=0.1:0.9:17 backend=tiled budget=2MiB");
  EXPECT_EQ(request.estimator, EstimatorKind::kOscv);
  EXPECT_EQ(request.kernel, KernelType::kUniform);
  EXPECT_EQ(request.precision, Precision::kFloat);
  EXPECT_EQ(request.n, 300u);
  EXPECT_EQ(request.seed, 42u);
  ASSERT_TRUE(request.grid.set);
  EXPECT_EQ(request.grid.lo, 0.1);
  EXPECT_EQ(request.grid.hi, 0.9);
  EXPECT_EQ(request.grid.count, 17u);
  EXPECT_EQ(request.backend, JobBackend::kHostTiled);
  EXPECT_EQ(request.budget_bytes, std::size_t{2} << 20);
}

TEST(ParseRequest, RejectsMalformedSelects) {
  const char* bad[] = {
      "select nonsense",          "select =value",
      "select unknown=1",         "select estimator=ols",
      "select n=1",               "select n=abc",
      "select grid=0.1:0.9",      "select grid=0.1:0.9:0",
      "select grid=1:2:3:4",      "select backend=gpu",
      "select precision=half",    "select kernel=boxcar",
      "select dgp=",              "select budget=1.5X",
      "select lane=8",
  };
  for (const char* line : bad) {
    EXPECT_THROW(kreg::serve::parse_request(line), std::invalid_argument)
        << "line='" << line << "'";
  }
}

TEST(ParseKernelAndPrecision, RoundTripsAndRejects) {
  for (const KernelType kernel : kreg::kAllKernels) {
    EXPECT_EQ(kreg::serve::parse_kernel(kreg::to_string(kernel)), kernel);
  }
  EXPECT_THROW(kreg::serve::parse_kernel("epan"), std::invalid_argument);
  EXPECT_EQ(kreg::serve::parse_precision("float"), Precision::kFloat);
  EXPECT_EQ(kreg::serve::parse_precision("single"), Precision::kFloat);
  EXPECT_EQ(kreg::serve::parse_precision("double"), Precision::kDouble);
  EXPECT_THROW(kreg::serve::parse_precision("Double"), std::invalid_argument);
}

TEST(FormatOutcome, RoundTripsSelectedBitwise) {
  JobOutcome outcome;
  outcome.id = 7;
  outcome.ok = true;
  outcome.cache_hit = true;
  outcome.profile = tiny_profile(0.1);
  outcome.profile.selected = 0.12345678901234567;
  const std::string line = kreg::serve::format_outcome(outcome);
  EXPECT_EQ(line.rfind("ok id=7 ", 0), 0u);
  EXPECT_NE(line.find(" cache=hit"), std::string::npos);
  const std::size_t pos = line.find("selected=");
  ASSERT_NE(pos, std::string::npos);
  const double parsed = std::strtod(line.c_str() + pos + 9, nullptr);
  EXPECT_EQ(parsed, outcome.profile.selected);  // %.17g round-trips bitwise
  JobOutcome failed;
  failed.id = 9;
  failed.error = "boom";
  EXPECT_EQ(kreg::serve::format_outcome(failed), "error id=9 boom");
}

// ---------------------------------------------------------------------------
// Job layer

TEST(JobBackendTest, ParseToStringRoundTrip) {
  for (const JobBackend backend :
       {JobBackend::kHostSweep, JobBackend::kHostTiled, JobBackend::kDevice}) {
    EXPECT_EQ(kreg::parse_job_backend(kreg::to_string(backend)), backend);
  }
  EXPECT_THROW(kreg::parse_job_backend("gpu"), std::invalid_argument);
  EXPECT_THROW(kreg::parse_job_backend(""), std::invalid_argument);
}

TEST(ValidateJob, ErrorTable) {
  const auto data = make_data(64, 1);
  {
    SelectionJob job = make_job(data);
    job.data = nullptr;
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);
  }
  {
    SelectionJob job = make_job(data);
    job.bandwidth_grid.clear();
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);
  }
  {
    SelectionJob job = make_job(data);
    std::swap(job.bandwidth_grid.front(), job.bandwidth_grid.back());
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);  // not ascending
  }
  {
    SelectionJob job = make_job(data);
    job.neighbor_grid = {2, 4};  // both grids set
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);
  }
  {
    SelectionJob job = make_job(data, EstimatorKind::kKnn);
    job.neighbor_grid.back() = data->size();  // count must stay <= n-1
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);
  }
  {
    SelectionJob job = make_job(data);
    job.kernel = KernelType::kGaussian;  // unbounded support: not sweepable
    EXPECT_THROW(kreg::validate_job(job), std::invalid_argument);
  }
  EXPECT_NO_THROW(kreg::validate_job(make_job(data)));
}

TEST(JobStreamedBytes, GrowsWithResidentGridBlock) {
  const SelectionJob job = make_job(make_data(128, 2));
  const std::size_t base = kreg::job_streamed_bytes(job, 0);
  const std::size_t one = kreg::job_streamed_bytes(job, 1);
  const std::size_t full = kreg::job_streamed_bytes(job, job.grid_size());
  EXPECT_GT(base, 0u);
  EXPECT_GE(one, base);
  EXPECT_GT(full, one);
}

// ---------------------------------------------------------------------------
// Scheduler, deterministic executor

SchedulerConfig deterministic_config() {
  SchedulerConfig config;
  config.deterministic = true;
  return config;
}

TEST(SchedulerTest, MatchesDirectRunJobAcrossEstimatorsAndBackends) {
  const auto data = make_data(128, 11);
  Scheduler scheduler(deterministic_config());
  for (const EstimatorKind estimator :
       {EstimatorKind::kNadarayaWatson, EstimatorKind::kKnn,
        EstimatorKind::kOscv}) {
    for (const JobBackend backend :
         {JobBackend::kHostSweep, JobBackend::kHostTiled,
          JobBackend::kDevice}) {
      SelectionJob job = make_job(data, estimator, backend);
      auto future = scheduler.submit(job);
      scheduler.drain();
      const JobOutcome outcome = future.get();
      ASSERT_TRUE(outcome.ok) << outcome.error;
      const SelectionProfile want = direct_run(job);
      expect_profiles_bitwise(outcome.profile, want);
      EXPECT_EQ(outcome.profile.method, want.method)
          << "estimator=" << static_cast<int>(estimator)
          << " backend=" << static_cast<int>(backend);
    }
  }
  // Across the 3×3 sweep one miss per bitwise family: knn and oscv each
  // miss once and hit twice (all backends share their family); NW misses
  // twice (host family, then the separate device family) and hits once.
  EXPECT_EQ(scheduler.stats().cache_misses, 4u);
  EXPECT_EQ(scheduler.stats().cache_hits, 5u);
}

TEST(SchedulerTest, CacheHitEventSequenceExact) {
  const auto data = make_data(96, 5);
  Scheduler scheduler(deterministic_config());
  auto first = scheduler.submit(make_job(data));
  scheduler.drain();
  auto second = scheduler.submit(make_job(data));
  scheduler.drain();
  EXPECT_TRUE(first.get().ok);
  const JobOutcome repeat = second.get();
  EXPECT_TRUE(repeat.ok);
  EXPECT_TRUE(repeat.cache_hit);
  const std::vector<EventKind> got = kinds(scheduler.events());
  const std::vector<EventKind> want = {
      EventKind::kSubmitted, EventKind::kCacheMiss, EventKind::kAdmitted,
      EventKind::kCompleted, EventKind::kSubmitted, EventKind::kCacheHit,
      EventKind::kCompleted};
  EXPECT_EQ(got, want);
}

TEST(SchedulerTest, CacheHitServesRequestersBackendMethod) {
  // OSCV is bitwise identical on every backend (one cache family), so a
  // host request can legitimately be served from a device-populated entry.
  const auto data = make_data(96, 6);
  Scheduler scheduler(deterministic_config());
  auto device_future = scheduler.submit(make_job(data, EstimatorKind::kOscv));
  scheduler.drain();
  SelectionJob host_job = make_job(data, EstimatorKind::kOscv);
  host_job.backend = JobBackend::kHostSweep;
  auto host_future = scheduler.submit(host_job);
  scheduler.drain();
  const JobOutcome device_outcome = device_future.get();
  const JobOutcome host_outcome = host_future.get();
  ASSERT_TRUE(host_outcome.ok);
  EXPECT_TRUE(host_outcome.cache_hit);
  // The payload is the cached device launch bit-for-bit, but the method
  // names what *this* request asked for.
  expect_profiles_bitwise(host_outcome.profile, device_outcome.profile);
  EXPECT_EQ(host_outcome.profile.method, kreg::job_method(host_job));
  EXPECT_NE(host_outcome.profile.method, device_outcome.profile.method);
}

TEST(SchedulerTest, WithinWaveDuplicateCoalescesOntoOneLaunch) {
  const auto data = make_data(96, 7);
  Scheduler scheduler(deterministic_config());
  auto a = scheduler.submit(make_job(data));
  auto b = scheduler.submit(make_job(data));
  scheduler.drain();
  const JobOutcome first = a.get();
  const JobOutcome twin = b.get();
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(twin.ok);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(twin.cache_hit);  // served from its executing twin
  expect_profiles_bitwise(twin.profile, first.profile);
  EXPECT_EQ(scheduler.stats().coalesced, 1u);
  EXPECT_EQ(scheduler.stats().launches, 1u);
}

TEST(SchedulerTest, CoSchedulesCompatibleSmallJobsOntoOneLaunch) {
  // OSCV: its device fold is bitwise invariant under grid composition, so
  // two different grids may share one merged launch.
  const auto data = make_data(96, 8);
  SelectionJob a = make_job(data, EstimatorKind::kOscv);
  SelectionJob b = make_job(data, EstimatorKind::kOscv);
  b.bandwidth_grid = kreg::BandwidthGrid(0.07, 0.8, 9).values();
  Scheduler scheduler(deterministic_config());
  auto fa = scheduler.submit(a);
  auto fb = scheduler.submit(b);
  scheduler.drain();
  const JobOutcome oa = fa.get();
  const JobOutcome ob = fb.get();
  ASSERT_TRUE(oa.ok) << oa.error;
  ASSERT_TRUE(ob.ok) << ob.error;
  EXPECT_EQ(scheduler.stats().launches, 1u);
  EXPECT_EQ(scheduler.stats().co_scheduled, 1u);
  bool saw_co_schedule = false;
  for (const Event& event : scheduler.events()) {
    saw_co_schedule = saw_co_schedule || event.kind == EventKind::kCoScheduled;
  }
  EXPECT_TRUE(saw_co_schedule);
  // Extraction from the merged launch must reproduce the solo runs exactly.
  expect_profiles_bitwise(oa.profile, direct_run(a));
  expect_profiles_bitwise(ob.profile, direct_run(b));
}

TEST(SchedulerTest, NwDeviceJobsNeverGridMerge) {
  // An NW score's bits depend on the grid's other members (see
  // NwSweepScoresDependOnTheOtherGridPoints). Merging two NW grids would
  // change both jobs' last-ulp bits; the scheduler must launch them
  // separately, and each launch must match its solo run.
  const auto data = make_data(96, 8);
  SelectionJob a = make_job(data);
  SelectionJob b = make_job(data);
  b.bandwidth_grid = kreg::BandwidthGrid(0.07, 0.8, 9).values();
  Scheduler scheduler(deterministic_config());
  auto fa = scheduler.submit(a);
  auto fb = scheduler.submit(b);
  scheduler.drain();
  const JobOutcome oa = fa.get();
  const JobOutcome ob = fb.get();
  ASSERT_TRUE(oa.ok) << oa.error;
  ASSERT_TRUE(ob.ok) << ob.error;
  EXPECT_EQ(scheduler.stats().launches, 2u);
  EXPECT_EQ(scheduler.stats().co_scheduled, 0u);
  expect_profiles_bitwise(oa.profile, direct_run(a));
  expect_profiles_bitwise(ob.profile, direct_run(b));
}

TEST(SchedulerTest, NwSweepScoresDependOnTheOtherGridPoints) {
  // Why NW never grid-merges, shown on the sequential host sweep, which has
  // no lanes and no device reduction. At each bandwidth the sweep admits
  // the left run and then the right run into one set of moment sums. A
  // merged grid point between two of a job's bandwidths splits both runs,
  // so the same elements are added in another order and the score at the
  // next shared bandwidth can change in its last bits. Same data and grids
  // as the test above.
  const auto data = make_data(96, 8);
  const std::vector<double> a = make_job(data).bandwidth_grid;
  const std::vector<double> b = kreg::BandwidthGrid(0.07, 0.8, 9).values();
  std::vector<double> merged;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  for (const Precision precision : {Precision::kDouble, Precision::kFloat}) {
    const std::vector<double> solo = kreg::window_cv_profile(
        *data, a, KernelType::kEpanechnikov, precision);
    const std::vector<double> joint = kreg::window_cv_profile(
        *data, merged, KernelType::kEpanechnikov, precision);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto at = std::lower_bound(merged.begin(), merged.end(), a[i]);
      ASSERT_EQ(*at, a[i]);
      changed += joint[static_cast<std::size_t>(at - merged.begin())] !=
                         solo[i]
                     ? 1
                     : 0;
    }
    EXPECT_GT(changed, 0u) << kreg::to_string(precision);
  }
}

TEST(SchedulerTest, CoScheduleLimitOneDisablesMerging) {
  const auto data = make_data(96, 8);
  SelectionJob a = make_job(data, EstimatorKind::kOscv);
  SelectionJob b = make_job(data, EstimatorKind::kOscv);
  b.bandwidth_grid = kreg::BandwidthGrid(0.07, 0.8, 9).values();
  SchedulerConfig config = deterministic_config();
  config.co_schedule_limit = 1;
  Scheduler scheduler(config);
  auto fa = scheduler.submit(a);
  auto fb = scheduler.submit(b);
  scheduler.drain();
  EXPECT_TRUE(fa.get().ok);
  EXPECT_TRUE(fb.get().ok);
  EXPECT_EQ(scheduler.stats().launches, 2u);
  EXPECT_EQ(scheduler.stats().co_scheduled, 0u);
}

TEST(SchedulerTest, AdmissionDefersWhenTheLedgerShareIsSpent) {
  // Both jobs pin k_block = 1, so each reservation is exactly the minimum
  // streaming footprint. Capacity = 1.5× that: the first job fits, the
  // second (different dataset, so not co-schedulable) cannot reserve its
  // minimum in the remaining half-share and waits for the next wave.
  SelectionJob probe = make_job(make_data(256, 21),
                                EstimatorKind::kNadarayaWatson,
                                JobBackend::kDevice, 48);
  probe.stream.k_block = 1;
  const std::size_t minimum = kreg::job_streamed_bytes(probe, 1);
  SchedulerConfig config = deterministic_config();
  config.device_budget_bytes = minimum + minimum / 2;
  Scheduler scheduler(config);
  SelectionJob second = make_job(make_data(256, 22),
                                 EstimatorKind::kNadarayaWatson,
                                 JobBackend::kDevice, 48);
  second.stream.k_block = 1;
  auto fa = scheduler.submit(probe);
  auto fb = scheduler.submit(second);
  scheduler.drain();
  const JobOutcome oa = fa.get();
  const JobOutcome ob = fb.get();
  ASSERT_TRUE(oa.ok) << oa.error;
  ASSERT_TRUE(ob.ok) << ob.error;
  EXPECT_GE(scheduler.stats().deferrals, 1u);
  EXPECT_GE(scheduler.stats().waves, 2u);
  bool saw_deferred = false;
  for (const Event& event : scheduler.events()) {
    saw_deferred = saw_deferred || event.kind == EventKind::kDeferred;
  }
  EXPECT_TRUE(saw_deferred);
}

TEST(SchedulerTest, SoloOverrideGuaranteesProgress) {
  // A budget below even the minimum streaming footprint: admission can
  // never fit the job, so the solo-override path must run it anyway
  // (where the streaming planner itself resolves or reports the truth)
  // instead of deferring forever.
  const SelectionJob job = make_job(make_data(256, 23));
  SchedulerConfig config = deterministic_config();
  config.device_budget_bytes = kreg::job_streamed_bytes(job, 0) / 2;
  Scheduler scheduler(config);
  auto future = scheduler.submit(job);
  scheduler.drain();
  const JobOutcome outcome = future.get();  // ok or a real planner error —
  EXPECT_GE(scheduler.stats().solo_overrides, 1u);  // never a hang
  EXPECT_EQ(scheduler.stats().deferrals, 0u);
  if (!outcome.ok) {
    EXPECT_FALSE(outcome.error.empty());
  }
}

TEST(SchedulerTest, EvictionHappensAtCommitAndIsRecorded) {
  const auto data = make_data(96, 9);
  SelectionJob first = make_job(data);
  // Budget sized to hold exactly one profile of this shape.
  Scheduler probe(deterministic_config());
  auto probe_future = probe.submit(first);
  probe.drain();
  const std::size_t one_entry =
      ProfileCache::entry_bytes(probe_future.get().profile);
  SchedulerConfig config = deterministic_config();
  config.cache_budget_bytes = one_entry + 64;
  Scheduler scheduler(config);
  auto fa = scheduler.submit(first);
  scheduler.drain();
  SelectionJob second = make_job(data);
  second.bandwidth_grid = kreg::BandwidthGrid(0.06, 0.9, 12).values();
  auto fb = scheduler.submit(second);
  scheduler.drain();
  EXPECT_TRUE(fa.get().ok);
  EXPECT_TRUE(fb.get().ok);
  EXPECT_GE(scheduler.cache_stats().evictions, 1u);
  EXPECT_EQ(scheduler.cache_stats().resident_entries, 1u);
  bool saw_evicted = false;
  for (const Event& event : scheduler.events()) {
    saw_evicted = saw_evicted || event.kind == EventKind::kEvicted;
  }
  EXPECT_TRUE(saw_evicted);
}

TEST(SchedulerTest, ZeroCacheBudgetNeverHits) {
  const auto data = make_data(96, 10);
  SchedulerConfig config = deterministic_config();
  config.cache_budget_bytes = 0;
  Scheduler scheduler(config);
  auto fa = scheduler.submit(make_job(data));
  scheduler.drain();
  auto fb = scheduler.submit(make_job(data));
  scheduler.drain();
  const JobOutcome oa = fa.get();
  const JobOutcome ob = fb.get();
  ASSERT_TRUE(oa.ok);
  ASSERT_TRUE(ob.ok);
  EXPECT_FALSE(ob.cache_hit);
  EXPECT_EQ(scheduler.stats().cache_hits, 0u);
  EXPECT_EQ(scheduler.stats().launches, 2u);
  expect_profiles_bitwise(ob.profile, oa.profile);  // still the same bits
}

TEST(SchedulerTest, ValidationErrorFailsTheJobNotTheScheduler) {
  Scheduler scheduler(deterministic_config());
  SelectionJob bad = make_job(make_data(64, 12));
  bad.bandwidth_grid.clear();
  auto fb = scheduler.submit(bad);
  auto fg = scheduler.submit(make_job(make_data(64, 12)));
  scheduler.drain();
  const JobOutcome outcome = fb.get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("SelectionJob"), std::string::npos);
  EXPECT_TRUE(fg.get().ok);  // the wave carries on past the failed member
  EXPECT_EQ(scheduler.stats().failed, 1u);
  EXPECT_EQ(scheduler.stats().completed, 1u);
  // The failed member never reaches the cache or a device; commit delivers
  // outcomes in submission order, failure first.
  const std::vector<EventKind> want = {
      EventKind::kSubmitted, EventKind::kSubmitted, EventKind::kCacheMiss,
      EventKind::kAdmitted,  EventKind::kFailed,    EventKind::kCompleted};
  EXPECT_EQ(kinds(scheduler.events()), want);
}

TEST(SchedulerTest, DestructorFailsOrphanedJobs) {
  std::future<JobOutcome> orphan;
  {
    Scheduler scheduler(deterministic_config());
    orphan = scheduler.submit(make_job(make_data(64, 13)));
    // no drain — destroyed with the job still queued
  }
  const JobOutcome outcome = orphan.get();
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("destroyed"), std::string::npos);
}

TEST(SchedulerTest, ThreadedExecutorMatchesDeterministicDecisions) {
  // Same submission order → same waves → same decision sequence and the
  // same bits, whether groups execute inline or on the worker pool.
  const auto data_a = make_data(96, 14);
  const auto data_b = make_data(96, 15);
  const auto submit_all = [&](Scheduler& scheduler) {
    std::vector<std::future<JobOutcome>> futures;
    futures.push_back(scheduler.submit(make_job(data_a)));
    futures.push_back(
        scheduler.submit(make_job(data_b, EstimatorKind::kOscv)));
    futures.push_back(scheduler.submit(make_job(data_a)));  // coalesces
    SelectionJob wide = make_job(data_b, EstimatorKind::kOscv);
    wide.bandwidth_grid = kreg::BandwidthGrid(0.07, 0.8, 9).values();
    futures.push_back(scheduler.submit(wide));  // co-schedules with data_b
    futures.push_back(
        scheduler.submit(make_job(data_a, EstimatorKind::kKnn)));
    scheduler.drain();
    return futures;
  };
  Scheduler deterministic(deterministic_config());
  SchedulerConfig threaded_config;
  threaded_config.deterministic = false;
  threaded_config.workers = 4;
  Scheduler threaded(threaded_config);
  auto det_futures = submit_all(deterministic);
  auto thr_futures = submit_all(threaded);
  ASSERT_EQ(det_futures.size(), thr_futures.size());
  for (std::size_t i = 0; i < det_futures.size(); ++i) {
    const JobOutcome det = det_futures[i].get();
    const JobOutcome thr = thr_futures[i].get();
    ASSERT_TRUE(det.ok) << det.error;
    ASSERT_TRUE(thr.ok) << thr.error;
    EXPECT_EQ(det.cache_hit, thr.cache_hit) << "job " << i;
    expect_profiles_bitwise(thr.profile, det.profile);
    EXPECT_EQ(thr.profile.method, det.profile.method);
  }
  EXPECT_EQ(kinds(threaded.events()), kinds(deterministic.events()));
  const kreg::serve::SchedulerStats det_stats = deterministic.stats();
  const kreg::serve::SchedulerStats thr_stats = threaded.stats();
  EXPECT_EQ(thr_stats.launches, det_stats.launches);
  EXPECT_EQ(thr_stats.cache_hits, det_stats.cache_hits);
  EXPECT_EQ(thr_stats.cache_misses, det_stats.cache_misses);
  EXPECT_EQ(thr_stats.coalesced, det_stats.coalesced);
  EXPECT_EQ(thr_stats.co_scheduled, det_stats.co_scheduled);
}

// ---------------------------------------------------------------------------
// ServeContext (the daemon minus the sockets)

SchedulerConfig pumpable_config() {
  SchedulerConfig config;
  config.deterministic = true;  // pump drains inline, still deterministic
  return config;
}

TEST(ServeContextTest, DatasetRegistrySharesHandles) {
  ServeContext context(pumpable_config());
  const auto a = context.dataset("paper", 128, 3);
  const auto b = context.dataset("paper", 128, 3);
  EXPECT_EQ(a.get(), b.get());  // same handle → co-schedulable requests
  EXPECT_NE(a.get(), context.dataset("paper", 128, 4).get());
  EXPECT_THROW(context.dataset("nope", 128, 3), std::invalid_argument);
}

TEST(ServeContextTest, HandleLineControlVerbs) {
  ServeContext context(pumpable_config());
  bool shutdown = false;
  EXPECT_EQ(context.handle_line("ping", &shutdown), "ok pong");
  EXPECT_FALSE(shutdown);
  EXPECT_EQ(context.handle_line("stats", &shutdown).rfind("ok submitted=", 0),
            0u);
  EXPECT_EQ(context.handle_line("shutdown", &shutdown), "ok shutting down");
  EXPECT_TRUE(shutdown);
  EXPECT_EQ(context.handle_line("bogus", nullptr).rfind("error ", 0), 0u);
  EXPECT_EQ(context.handle_line("select n=1", nullptr).rfind("error ", 0), 0u);
}

TEST(ServeContextTest, SelectMatchesDirectRunJobBitwise) {
  ServeContext context(pumpable_config());
  context.scheduler().start_pump();
  const std::string response = context.handle_line(
      "select estimator=nw n=128 seed=5 grid=0.05:1.0:12 backend=device",
      nullptr);
  context.scheduler().stop_pump();
  ASSERT_EQ(response.rfind("ok ", 0), 0u) << response;
  // Reconstruct the same job and compare the wire-formatted selected value
  // bitwise (%.17g round-trips doubles exactly).
  SelectionJob job = make_job(context.dataset("paper", 128, 5));
  const SelectionProfile want = direct_run(job);
  const std::size_t pos = response.find("selected=");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(std::strtod(response.c_str() + pos + 9, nullptr), want.selected);
  EXPECT_NE(response.find("method=" + want.method), std::string::npos);
}

TEST(ServeContextTest, KnnGridSpecRoundsToAscendingCounts) {
  ServeContext context(pumpable_config());
  kreg::serve::Request request =
      kreg::serve::parse_request("select estimator=knn n=64 grid=2:10:5");
  const SelectionJob job = context.job_from_request(request);
  const std::vector<std::size_t> want = {2, 4, 6, 8, 10};
  EXPECT_EQ(job.neighbor_grid, want);
  EXPECT_TRUE(job.bandwidth_grid.empty());
  kreg::serve::Request bad =
      kreg::serve::parse_request("select estimator=knn n=64 grid=0:10:5");
  EXPECT_THROW(context.job_from_request(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Server (the daemon over a live UNIX socket)

/// A Server on a fresh socket path with its accept loop on a background
/// thread. stop() ends the accept loop and shuts down the read side of every
/// open connection, so destruction does not wait for clients to hang up.
class LiveServer {
 public:
  LiveServer()
      : server_(kreg::serve::ServerConfig{
            "/tmp/kreg_serve_test_" + std::to_string(::getpid()) + ".sock",
            SchedulerConfig{}}),
        thread_([this] {
          server_.run();
          run_returned_.set_value();
        }) {}
  ~LiveServer() {
    server_.stop();
    thread_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Whether the accept loop's run() has returned within `timeout`.
  bool run_returns_within(std::chrono::seconds timeout) const {
    return returned_.wait_for(timeout) == std::future_status::ready;
  }

  int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, server_.socket_path().c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

 private:
  kreg::serve::Server server_;
  std::promise<void> run_returned_;
  std::future<void> returned_ = run_returned_.get_future();
  std::thread thread_;
};

/// Sends as much of `data` as the peer takes; stops quietly once it hangs
/// up (MSG_NOSIGNAL: a closed peer must not kill the test either).
void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t wrote =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (wrote <= 0) {
      return;
    }
    data.remove_prefix(static_cast<std::size_t>(wrote));
  }
}

/// One reply line without its newline ("" when the peer closed first).
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1 && c != '\n') {
    line.push_back(c);
  }
  return line;
}

std::string request(int fd, std::string_view line) {
  send_all(fd, std::string(line) + "\n");
  return read_line(fd);
}

TEST(ServerTest, ClientHangingUpBeforeItsReplyLeavesTheDaemonUp) {
  LiveServer live;
  const int quitter = live.connect();
  ASSERT_GE(quitter, 0);
  send_all(quitter,
           "select estimator=nw n=4096 seed=21 grid=0.01:1.0:48 "
           "backend=device\n");
  ::close(quitter);

  // Once the job completes, its handler writes the reply to the closed
  // socket; give it a moment, then the daemon must still answer.
  const int probe = live.connect();
  ASSERT_GE(probe, 0);
  bool completed = false;
  for (int i = 0; i < 1000 && !completed; ++i) {
    completed = request(probe, "stats").find(" completed=1 ") !=
                std::string::npos;
    if (!completed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(completed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(request(probe, "ping"), "ok pong");
  ::close(probe);

  const int fresh = live.connect();
  ASSERT_GE(fresh, 0);
  EXPECT_EQ(request(fresh, "ping"), "ok pong");
  ::close(fresh);
}

TEST(ServerTest, ShutdownReturnsWhileAnIdleClientIsConnected) {
  LiveServer live;
  const int idle = live.connect();
  ASSERT_GE(idle, 0);
  EXPECT_EQ(request(idle, "ping"), "ok pong");  // its handler now waits
  const int quitter = live.connect();
  ASSERT_GE(quitter, 0);
  EXPECT_EQ(request(quitter, "shutdown"), "ok shutting down");

  const bool returned = live.run_returns_within(std::chrono::seconds(5));
  EXPECT_TRUE(returned) << "run() is still waiting on the idle client";
  if (returned) {
    // Its handler saw EOF and closed the connection.
    char c = 0;
    EXPECT_EQ(::read(idle, &c, 1), 0);
  }
  ::close(quitter);
  ::close(idle);  // lets a hung run() finish, so a failure cannot hang
}

/// Lines of /proc/self/<name>: one per thread for "task" (a directory),
/// one per memory mapping for "maps".
std::size_t proc_self_count(const char* name) {
  const std::string path = std::string("/proc/self/") + name;
  std::size_t count = 0;
  if (std::filesystem::is_directory(path)) {
    for (const auto& entry : std::filesystem::directory_iterator(path)) {
      (void)entry;
      ++count;
    }
  } else {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      ++count;
    }
  }
  return count;
}

TEST(ServerTest, FinishedConnectionThreadsAreJoined) {
  LiveServer live;
  const auto ping_once = [&live] {
    const int fd = live.connect();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(request(fd, "ping"), "ok pong");
    ::close(fd);
  };
  for (int i = 0; i < 8; ++i) {
    ping_once();  // warm the thread-stack cache and the malloc arenas
  }
  const std::size_t tasks = proc_self_count("task");
  const std::size_t maps = proc_self_count("maps");
  for (int i = 0; i < 200; ++i) {
    ping_once();
  }
  ping_once();  // its accept joins the handlers that just finished
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(proc_self_count("task"), tasks + 4);
  // The kernel drops an exited thread from /proc/self/task at once, but an
  // unjoined thread keeps its stack (and guard) mapping until the join: 200
  // piled-up handlers would add about 400 mappings.
  EXPECT_LE(proc_self_count("maps"), maps + 50);
}

TEST(ServerTest, OverlongRequestLineIsRefusedAndDisconnected) {
  LiveServer live;
  const int fd = live.connect();
  ASSERT_GE(fd, 0);
  // 2 MiB with no newline, twice the cap: the daemon replies with an error
  // and hangs up instead of buffering all of it.
  send_all(fd, std::string(2 * kreg::serve::kMaxRequestLineBytes, 'x'));
  const std::string reply = read_line(fd);
  EXPECT_EQ(reply.rfind("error ", 0), 0u) << reply;
  EXPECT_NE(reply.find("exceeds"), std::string::npos) << reply;
  char c = 0;
  EXPECT_LE(::read(fd, &c, 1), 0);  // the connection is closed
  ::close(fd);

  const int next = live.connect();
  ASSERT_GE(next, 0);
  EXPECT_EQ(request(next, "ping"), "ok pong");
  ::close(next);
}

}  // namespace
