// Tests for 2-D (n-block × k-block) streaming: plan resolution and budget
// parsing, the streamed device regression/KDE window sweeps (bitwise parity
// with the resident paths across both tiling dimensions), halo-slab
// construction, the multi-device (device × n-block × k-block) sharding, the
// cache-blocked host kernel, and the memory-cliff lifts under small budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/detail/device_sweep.hpp"
#include "core/grid.hpp"
#include "core/multi_device_selector.hpp"
#include "core/spmd_kde.hpp"
#include "core/spmd_selector.hpp"
#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"
#include "spmd/errors.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::MultiDeviceGridSelector;
using kreg::Precision;
using kreg::ResidualLayout;
using kreg::SelectionResult;
using kreg::SpmdGridSelector;
using kreg::SpmdKdeConfig;
using kreg::SpmdKdeSelector;
using kreg::SpmdSelectorConfig;
using kreg::StreamingConfig;
using kreg::StreamingPlan;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;
using kreg::spmd::DeviceProperties;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

std::vector<double> kde_sample(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = s.uniform() < 0.5 ? s.gaussian(-1.0, 0.4) : s.gaussian(1.0, 0.6);
  }
  return xs;
}

SpmdSelectorConfig resident_cfg(Precision precision = Precision::kDouble) {
  SpmdSelectorConfig cfg;
  cfg.precision = precision;
  cfg.stream.auto_tune = false;  // pin the pre-streaming resident path
  return cfg;
}

void expect_same_selection(const SelectionResult& streamed,
                           const SelectionResult& resident) {
  EXPECT_DOUBLE_EQ(streamed.bandwidth, resident.bandwidth);
  EXPECT_DOUBLE_EQ(streamed.cv_score, resident.cv_score);
  ASSERT_EQ(streamed.scores.size(), resident.scores.size());
  for (std::size_t b = 0; b < resident.scores.size(); ++b) {
    EXPECT_DOUBLE_EQ(streamed.scores[b], resident.scores[b]) << "b=" << b;
  }
}

// --- parse_memory_budget ---------------------------------------------------

TEST(ParseMemoryBudget, AcceptsPlainBytesAndBinarySuffixes) {
  EXPECT_EQ(kreg::parse_memory_budget("4096"), 4096u);
  EXPECT_EQ(kreg::parse_memory_budget("512K"), 512u << 10);
  EXPECT_EQ(kreg::parse_memory_budget("512kb"), 512u << 10);
  EXPECT_EQ(kreg::parse_memory_budget("256KiB"), 256u << 10);
  EXPECT_EQ(kreg::parse_memory_budget("64MB"), 64u << 20);
  EXPECT_EQ(kreg::parse_memory_budget("1MiB"), 1u << 20);
  EXPECT_EQ(kreg::parse_memory_budget("2GiB"), std::size_t{2} << 30);
  EXPECT_EQ(kreg::parse_memory_budget("1gb"), std::size_t{1} << 30);
  EXPECT_EQ(kreg::parse_memory_budget("128b"), 128u);
  EXPECT_EQ(kreg::parse_memory_budget(" 16m "), 16u << 20);
}

TEST(ParseMemoryBudget, RejectsGarbage) {
  EXPECT_THROW(kreg::parse_memory_budget(""), std::invalid_argument);
  EXPECT_THROW(kreg::parse_memory_budget("MB"), std::invalid_argument);
  EXPECT_THROW(kreg::parse_memory_budget("12XB"), std::invalid_argument);
  EXPECT_THROW(kreg::parse_memory_budget("12 34"), std::invalid_argument);
}

TEST(ParseMemoryBudget, EdgeCasesRejectedWithDiagnosableErrors) {
  // Table of inputs that once parsed silently wrong (overflowing the byte
  // counter, or producing a 0 that downstream reads as "no budget").
  struct Case {
    const char* text;
    const char* why;
  };
  const Case rejected[] = {
      {"", "empty input"},
      {"   ", "whitespace only"},
      {"0", "zero bytes means un-setting the knob"},
      {"0MiB", "zero with a suffix"},
      {"00", "zero with leading zeros"},
      {"99999999999999999999999", "digit accumulation overflows size_t"},
      {"18446744073709551615KiB", "suffix multiply overflows size_t"},
      {"17179869184GiB", "suffix multiply overflows size_t"},
  };
  for (const Case& c : rejected) {
    EXPECT_THROW((void)kreg::parse_memory_budget(c.text),
                 std::invalid_argument)
        << "'" << c.text << "' (" << c.why << ")";
  }
  // The largest representable values still parse.
  EXPECT_EQ(kreg::parse_memory_budget("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(kreg::parse_memory_budget("16777215GiB"),
            std::size_t{16777215} << 30);
}

// --- resolve_streaming -----------------------------------------------------

TEST(ResolveStreaming, ExplicitKBlockAlwaysStreams) {
  StreamingConfig cfg;
  cfg.k_block = 3;
  const StreamingPlan plan =
      kreg::resolve_streaming(cfg, 10, 1 << 20, 1 << 10, 1 << 8, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_EQ(plan.k_block, 3u);
  EXPECT_EQ(plan.blocks(10), 4u);

  cfg.k_block = 17;  // clamped to the grid
  const StreamingPlan clamped =
      kreg::resolve_streaming(cfg, 10, 1 << 20, 1 << 10, 1 << 8, 1 << 30);
  EXPECT_TRUE(clamped.streamed);
  EXPECT_EQ(clamped.k_block, 10u);
  EXPECT_EQ(clamped.blocks(10), 1u);
}

TEST(ResolveStreaming, AutoTuneOffStaysResidentWithoutBudget) {
  StreamingConfig cfg;
  cfg.auto_tune = false;
  const StreamingPlan plan = kreg::resolve_streaming(
      cfg, 8, /*resident=*/1 << 30, /*base=*/1 << 10, 1 << 8, /*cap=*/1 << 20);
  EXPECT_FALSE(plan.streamed);
  EXPECT_EQ(plan.k_block, 8u);
}

TEST(ResolveStreaming, EnvBudgetIgnoredWhenAutoTuneOff) {
  ASSERT_EQ(setenv("KREG_MEMORY_BUDGET", "2KiB", 1), 0);
  StreamingConfig cfg;
  cfg.auto_tune = false;
  const StreamingPlan plan = kreg::resolve_streaming(
      cfg, 8, /*resident=*/1 << 30, /*base=*/1 << 10, 1 << 8, /*cap=*/1 << 20);
  unsetenv("KREG_MEMORY_BUDGET");
  EXPECT_FALSE(plan.streamed);
  EXPECT_EQ(plan.k_block, 8u);
}

TEST(ResolveStreaming, BudgetAboveDeviceCapacityIsClamped) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = std::size_t{1} << 30;  // far beyond the ledger
  const StreamingPlan plan = kreg::resolve_streaming(
      cfg, 100, /*resident=*/1 << 20, /*base=*/4'000, /*per_k=*/500,
      /*cap=*/10'000);
  EXPECT_TRUE(plan.streamed);
  EXPECT_EQ(plan.budget_bytes, 10'000u);
  EXPECT_EQ(plan.k_block, 12u);  // sized against the clamped ledger
}

TEST(ResolveStreaming, ResidentWhenItFitsTheBudget) {
  const StreamingPlan plan = kreg::resolve_streaming(
      StreamingConfig{}, 8, /*resident=*/1 << 16, 1 << 10, 1 << 8,
      /*cap=*/1 << 20);
  EXPECT_FALSE(plan.streamed);
  EXPECT_EQ(plan.k_block, 8u);
}

TEST(ResolveStreaming, SizesBlockFromBudgetWhenResidentOverflows) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 10'000;
  const StreamingPlan plan = kreg::resolve_streaming(
      cfg, 100, /*resident=*/1 << 20, /*base=*/4'000, /*per_k=*/500, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_EQ(plan.k_block, 12u);  // (10000 - 4000) / 500
}

TEST(ResolveStreaming, BudgetBelowBaseDegradesToSingleBandwidth) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 1'000;
  const StreamingPlan plan = kreg::resolve_streaming(
      cfg, 100, 1 << 20, /*base=*/4'000, /*per_k=*/500, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_EQ(plan.k_block, 1u);
}

TEST(ResolveStreaming, EmptyGridThrows) {
  EXPECT_THROW(
      kreg::resolve_streaming(StreamingConfig{}, 0, 1, 1, 1, 1 << 20),
      std::invalid_argument);
}

// --- resolve_streaming_2d --------------------------------------------------

// A synthetic but monotone byte model: slab overhead decays as blocks
// shrink, the residual tile grows in both dimensions.
std::size_t fake_tile_bytes(std::size_t nb, std::size_t kb) {
  return 1'000 + nb * 80 + nb * kb * 8;
}

TEST(ResolveStreaming2d, ResidentWhenItFits) {
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      StreamingConfig{}, 100, 10, /*resident=*/50'000, fake_tile_bytes,
      /*cap=*/1 << 20);
  EXPECT_FALSE(plan.streamed);
  EXPECT_FALSE(plan.n_streamed);
  EXPECT_EQ(plan.n_block, 100u);
  EXPECT_EQ(plan.k_block, 10u);
}

TEST(ResolveStreaming2d, KBlocksFirstWhenCarryFits) {
  // Resident over budget but tile_bytes(n, 1) under it: n stays resident.
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 10'000;
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      cfg, 100, 10, /*resident=*/1 << 20, fake_tile_bytes, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_FALSE(plan.n_streamed);
  EXPECT_EQ(plan.n_block, 100u);
  EXPECT_LE(fake_tile_bytes(plan.n_block, plan.k_block), 10'000u);
  // Largest fitting block: one more bandwidth would overflow.
  EXPECT_TRUE(plan.k_block == 10 ||
              fake_tile_bytes(plan.n_block, plan.k_block + 1) > 10'000u);
}

TEST(ResolveStreaming2d, NBlocksWhenCarryOverflows) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 3'000;  // tile(100, 1) = 1000+8000+800 > 3000
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      cfg, 100, 10, /*resident=*/1 << 20, fake_tile_bytes, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_TRUE(plan.n_streamed);
  EXPECT_LT(plan.n_block, 100u);
  EXPECT_GE(plan.n_block, 1u);
  // The plan's modeled bytes never exceed the budget.
  EXPECT_LE(fake_tile_bytes(plan.n_block, plan.k_block), 3'000u);
}

TEST(ResolveStreaming2d, PlanTilesCoverExactlyOnce) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 3'000;
  const std::size_t n = 100;
  const std::size_t k = 10;
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      cfg, n, k, 1 << 20, fake_tile_bytes, 1 << 30);
  // Walk the 2-D tiling the backends execute and count coverage.
  std::vector<int> n_cover(n, 0);
  std::vector<int> k_cover(k, 0);
  for (std::size_t n0 = 0; n0 < n; n0 += plan.n_block) {
    const std::size_t nb = std::min(plan.n_block, n - n0);
    for (std::size_t i = n0; i < n0 + nb; ++i) {
      ++n_cover[i];
    }
  }
  for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
    const std::size_t kb = std::min(plan.k_block, k - b0);
    for (std::size_t b = b0; b < b0 + kb; ++b) {
      ++k_cover[b];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(n_cover[i], 1) << "observation " << i;
  }
  for (std::size_t b = 0; b < k; ++b) {
    EXPECT_EQ(k_cover[b], 1) << "bandwidth " << b;
  }
  EXPECT_EQ(plan.n_blocks(n), (n + plan.n_block - 1) / plan.n_block);
  EXPECT_EQ(plan.blocks(k), (k + plan.k_block - 1) / plan.k_block);
}

TEST(ResolveStreaming2d, DegenerateBudgetThrowsDiagnosableError) {
  StreamingConfig cfg;
  cfg.memory_budget_bytes = 500;  // below fake_tile_bytes(1, 1) = 1088
  try {
    (void)kreg::resolve_streaming_2d(cfg, 100, 10, 1 << 20, fake_tile_bytes,
                                     1 << 30);
    FAIL() << "expected StreamingBudgetError";
  } catch (const kreg::StreamingBudgetError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("500"), std::string::npos) << what;   // the budget
    EXPECT_NE(what.find("1088"), std::string::npos) << what;  // minimal tile
  }
}

TEST(ResolveStreaming2d, ExplicitNBlockForcesNStreamedPath) {
  // Even when one block covers everything — that is how tests pin the
  // n_block ∈ {n, n+13} degenerates to the same code as n_block = 1.
  StreamingConfig cfg;
  cfg.n_block = 150;  // > n: clamped but still n-streamed
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      cfg, 100, 10, /*resident=*/1'000, fake_tile_bytes, 1 << 30);
  EXPECT_TRUE(plan.n_streamed);
  EXPECT_EQ(plan.n_block, 100u);
}

TEST(ResolveStreaming2d, ExplicitKBlockAloneKeepsNResident) {
  StreamingConfig cfg;
  cfg.k_block = 3;
  const StreamingPlan plan = kreg::resolve_streaming_2d(
      cfg, 100, 10, /*resident=*/1'000, fake_tile_bytes, 1 << 30);
  EXPECT_TRUE(plan.streamed);
  EXPECT_FALSE(plan.n_streamed);
  EXPECT_EQ(plan.n_block, 100u);
  EXPECT_EQ(plan.k_block, 3u);
}

TEST(ResolveStreaming2d, EmptyInputsThrow) {
  EXPECT_THROW(kreg::resolve_streaming_2d(StreamingConfig{}, 0, 10, 1,
                                          fake_tile_bytes, 1 << 20),
               std::invalid_argument);
  EXPECT_THROW(kreg::resolve_streaming_2d(StreamingConfig{}, 10, 0, 1,
                                          fake_tile_bytes, 1 << 20),
               std::invalid_argument);
}

TEST(ResolveStreaming2d, StreamOneMillionTakesTheFewestTilePlan) {
  // The benchmark's stream-1m shape through the selector's own tile-byte
  // model: n = 10^6 paper-DGP points, a k = 32 grid over [1e-5, 1e-4],
  // double, 24 MiB. Stopping at the first fitting halving candidate gives
  // (250,000, 2) = 64 tiles; (62,500, 32) fits the same budget in 16.
  DeviceProperties props = DeviceProperties::tesla_s10();
  props.global_memory_bytes = std::size_t{24} << 20;
  Device dev(props);
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  cfg.stream.memory_budget_bytes = props.global_memory_bytes;
  const Dataset d = paper_data(1'000'000, 1);
  const BandwidthGrid grid(1e-5, 1e-4, 32);
  const StreamingPlan plan = SpmdGridSelector(dev, cfg).streaming_plan(d, grid);
  EXPECT_TRUE(plan.n_streamed);
  EXPECT_EQ(plan.n_block, 62'500u);
  EXPECT_EQ(plan.k_block, 32u);
  EXPECT_EQ(plan.n_blocks(d.size()) * plan.blocks(grid.size()), 16u);
}

TEST(ResolveStreaming2d, AutoPlanFitsCoversOnceAndHasFewestHalvingTiles) {
  // Property sweep over budgets with a halo-slab tile model shaped like the
  // selector's: every n-streamed auto plan fits, tiles [0, n) × [0, k)
  // exactly once, and no halving candidate n/2, n/4, …, 1 — each with its
  // largest fitting k-block — needs fewer tiles.
  const std::size_t n = 2'000;
  const std::size_t k = 24;
  Stream s(55);
  std::vector<double> xs(n);
  for (double& x : xs) {
    x = s.uniform() < 0.8 ? s.uniform() : s.uniform(0.4, 0.45);  // a cluster
  }
  std::sort(xs.begin(), xs.end());
  const double reach = 0.02;
  std::map<std::size_t, std::size_t> slabs;
  const auto tile_bytes = [&](std::size_t nb, std::size_t kb) -> std::size_t {
    if (nb >= n) {
      return 2 * n * 8 + n * 64 + n * kb * 8;  // n-resident: no slab, lanes
    }
    auto [it, fresh] = slabs.try_emplace(nb, 0);
    if (fresh) {
      it->second = kreg::detail::max_halo_span(std::span<const double>(xs), 0,
                                               n, nb, reach);
    }
    return 2 * it->second * 8 + nb * 64 + nb * kb * 8 + k * 64 * 8;
  };
  const auto fewest_k_blocks = [&](std::size_t nb, std::size_t budget) {
    std::size_t kb = k;
    while (kb > 1 && tile_bytes(nb, kb) > budget) {
      --kb;
    }
    return (k + kb - 1) / kb;
  };
  std::size_t checked = 0;
  for (std::size_t budget = tile_bytes(1, 1); budget < tile_bytes(n, 1);
       budget += budget / 16 + 1) {
    StreamingConfig cfg;
    cfg.memory_budget_bytes = budget;
    const StreamingPlan plan = kreg::resolve_streaming_2d(
        cfg, n, k, std::numeric_limits<std::size_t>::max(), tile_bytes,
        std::size_t{1} << 40);
    SCOPED_TRACE("budget=" + std::to_string(budget));
    ASSERT_TRUE(plan.n_streamed);
    ASSERT_GE(plan.n_block, 1u);
    ASSERT_GE(plan.k_block, 1u);
    EXPECT_LE(tile_bytes(plan.n_block, plan.k_block), budget);
    std::vector<int> n_cover(n, 0);
    for (std::size_t n0 = 0; n0 < n; n0 += plan.n_block) {
      for (std::size_t i = n0; i < std::min(n, n0 + plan.n_block); ++i) {
        ++n_cover[i];
      }
    }
    std::vector<int> k_cover(k, 0);
    for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
      for (std::size_t b = b0; b < std::min(k, b0 + plan.k_block); ++b) {
        ++k_cover[b];
      }
    }
    EXPECT_EQ(std::count(n_cover.begin(), n_cover.end(), 1),
              static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(std::count(k_cover.begin(), k_cover.end(), 1),
              static_cast<std::ptrdiff_t>(k));
    const std::size_t tiles = plan.n_blocks(n) * plan.blocks(k);
    for (std::size_t nb = n / 2; nb >= 1; nb /= 2) {
      if (tile_bytes(nb, 1) <= budget) {
        EXPECT_LE(tiles, ((n + nb - 1) / nb) * fewest_k_blocks(nb, budget))
            << "n_block " << nb << " beats the plan's " << plan.n_block;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 20u);
}

// --- halo-slab construction ------------------------------------------------

TEST(HaloSlab, SlabContainsEveryAdmissibleIndex) {
  // Property: for every pos in the block and every l the device's admission
  // predicate (|xs[l] − xs[pos]| <= reach, evaluated as the sweep's own
  // subtractions) accepts, l lies inside [halo_begin, halo_end).
  Stream s(404);
  std::vector<double> xs(257);
  for (auto& x : xs) {
    x = s.uniform();
  }
  std::sort(xs.begin(), xs.end());
  const std::span<const double> span(xs);
  for (const double reach : {0.0, 0.01, 0.1, 0.5, 2.0}) {
    for (const std::size_t n0 : {std::size_t{0}, std::size_t{100},
                                 std::size_t{250}}) {
      const std::size_t nb = std::min<std::size_t>(32, xs.size() - n0);
      const std::size_t begin = kreg::detail::halo_begin(span, n0, reach);
      const std::size_t end =
          kreg::detail::halo_end(span, n0 + nb - 1, reach);
      ASSERT_LE(begin, n0);
      ASSERT_GE(end, n0 + nb);
      for (std::size_t pos = n0; pos < n0 + nb; ++pos) {
        for (std::size_t l = 0; l < xs.size(); ++l) {
          const bool admitted = l < pos ? xs[pos] - xs[l] <= reach
                                        : xs[l] - xs[pos] <= reach;
          if (admitted) {
            EXPECT_GE(l, begin) << "pos=" << pos << " reach=" << reach;
            EXPECT_LT(l, end) << "pos=" << pos << " reach=" << reach;
          }
        }
      }
      // Tightness: the slab's first excluded neighbours really are
      // inadmissible from the block's edges.
      if (begin > 0) {
        EXPECT_GT(xs[n0] - xs[begin - 1], reach);
      }
      if (end < xs.size()) {
        EXPECT_GT(xs[end] - xs[n0 + nb - 1], reach);
      }
    }
  }
}

TEST(HaloSlab, TiedAbscissaeStayInOneSlab) {
  // All-equal X: every index is admissible at any reach, so the slab must
  // be the whole array no matter the block.
  const std::vector<double> xs(16, 0.25);
  const std::span<const double> span(xs);
  EXPECT_EQ(kreg::detail::halo_begin(span, std::size_t{10}, 0.0),
            std::size_t{0});
  EXPECT_EQ(kreg::detail::halo_end(span, std::size_t{3}, 0.0), xs.size());
}

TEST(HaloSlab, MaxHaloSpanBoundsEveryBlock) {
  Stream s(405);
  std::vector<double> xs(200);
  for (auto& x : xs) {
    x = s.gaussian();
  }
  std::sort(xs.begin(), xs.end());
  const std::span<const double> span(xs);
  const double reach = 0.3;
  for (const std::size_t nb : {std::size_t{1}, std::size_t{7},
                               std::size_t{64}, std::size_t{200}}) {
    const std::size_t widest =
        kreg::detail::max_halo_span(span, 0, xs.size(), nb, reach);
    for (std::size_t n0 = 0; n0 < xs.size(); n0 += nb) {
      const std::size_t last = std::min(n0 + nb, xs.size()) - 1;
      const std::size_t slab = kreg::detail::halo_end(span, last, reach) -
                               kreg::detail::halo_begin(span, n0, reach);
      EXPECT_LE(slab, widest) << "n0=" << n0 << " nb=" << nb;
    }
  }
}

// --- streamed device regression sweep --------------------------------------

TEST(StreamedSelector, MatchesResidentBitwiseAcrossKBlocks) {
  const Dataset d = paper_data(257, 11);  // odd n: uneven last thread block
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 23);
  const std::size_t k = grid.size();

  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg()).select(d, grid);

  for (std::size_t kb : {std::size_t{1}, std::size_t{3}, k - 1, k, k + 7}) {
    Device dev;
    SpmdSelectorConfig cfg = resident_cfg();
    cfg.stream.k_block = kb;
    const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
    SCOPED_TRACE("k_block=" + std::to_string(kb));
    expect_same_selection(streamed, resident);
  }
}

TEST(StreamedSelector, FloatPathMatchesResidentBitwise) {
  const Dataset d = paper_data(180, 12);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 14);
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg(Precision::kFloat)).select(d, grid);
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg(Precision::kFloat);
  cfg.stream.k_block = 5;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid), resident);
}

TEST(StreamedSelector, ObservationMajorLayoutMatchesResident) {
  const Dataset d = paper_data(150, 13);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 11);
  SpmdSelectorConfig base = resident_cfg();
  base.layout = ResidualLayout::kObservationMajor;
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, base).select(d, grid);
  Device dev;
  SpmdSelectorConfig cfg = base;
  cfg.stream.k_block = 4;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid), resident);
}

TEST(StreamedSelector, MatchesHostWindowProfile) {
  const Dataset d = paper_data(220, 14);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 17);
  const std::vector<double> host =
      kreg::window_cv_profile(d, grid.values(), KernelType::kEpanechnikov);
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.stream.k_block = 6;
  const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(streamed.scores[b], host[b],
                1e-9 * std::max(1.0, host[b]));
  }
}

TEST(StreamedSelector, LaunchesOneKernelPerBlockAndNoDeviceArgmin) {
  const Dataset d = paper_data(90, 15);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.stream.k_block = 3;
  (void)SpmdGridSelector(dev, cfg).select(d, grid);
  // ceil(10 / 3) blocks, each one sweep + one ordered score fold; no tree
  // reduction, and the argmin runs on the host.
  EXPECT_EQ(dev.stats().kernel_launches, 4u + 4u);
  EXPECT_EQ(dev.stats().cooperative_launches, 0u);
}

TEST(StreamedSelector, TiedXAndTinyDatasetsWithKBlockOne) {
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.stream.k_block = 1;
  const Dataset ties{{0.5, 0.5, 0.5, 0.9}, {1.0, 2.0, 3.0, 4.0}};
  const BandwidthGrid grid(0.1, 1.0, 4);
  Device ref;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(ties, grid),
                        SpmdGridSelector(ref, resident_cfg()).select(ties, grid));

  Device dev2;
  const Dataset two{{0.1, 0.9}, {1.0, 2.0}};
  EXPECT_NO_THROW(SpmdGridSelector(dev2, cfg).select(two, grid));
}

TEST(StreamedSelector, PerRowAlgorithmIgnoresStreamConfig) {
  const Dataset d = paper_data(80, 16);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 6);
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  cfg.stream.k_block = 2;
  Device dev;
  Device ref;
  SpmdSelectorConfig plain = resident_cfg();
  plain.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid),
                        SpmdGridSelector(ref, plain).select(d, grid));
}

TEST(StreamedSelector, NameShowsStreamingKnobs) {
  Device dev;
  SpmdSelectorConfig cfg;
  cfg.stream.k_block = 8;
  cfg.stream.memory_budget_bytes = 1 << 20;
  const std::string name = SpmdGridSelector(dev, cfg).name();
  EXPECT_NE(name.find("kblock=8"), std::string::npos) << name;
  EXPECT_NE(name.find("budget=1048576"), std::string::npos) << name;
}

// --- budget-driven engagement ----------------------------------------------

TEST(StreamedSelector, ExplicitBudgetKeepsLedgerPeakUnderBudget) {
  const Dataset d = paper_data(1000, 17);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 30);
  const std::size_t budget = 200'000;
  ASSERT_GT(SpmdGridSelector::estimated_bytes(1000, 30, Precision::kDouble,
                                              false,
                                              kreg::SweepAlgorithm::kWindow),
            budget);
  Device dev;
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  cfg.stream.memory_budget_bytes = budget;
  const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
  EXPECT_LE(dev.global_peak(), budget);

  Device ref;
  expect_same_selection(streamed,
                        SpmdGridSelector(ref, resident_cfg()).select(d, grid));
}

TEST(StreamedSelector, AutoStreamsPastTheResidentCliff) {
  // A device whose global memory cannot hold the resident n×k plan: the
  // default config streams automatically instead of throwing.
  const std::size_t cap = 256 * 1024;
  const Dataset d = paper_data(1500, 18);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 20);
  ASSERT_GT(SpmdGridSelector::estimated_bytes(1500, 20, Precision::kDouble,
                                              false,
                                              kreg::SweepAlgorithm::kWindow),
            cap);
  Device dev(DeviceProperties::tiny(cap));
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
  EXPECT_LE(dev.global_peak(), cap);

  Device ref;
  expect_same_selection(streamed,
                        SpmdGridSelector(ref, resident_cfg()).select(d, grid));
}

TEST(StreamedSelector, EnvBudgetEngagesStreaming) {
  const Dataset d = paper_data(4000, 19);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 40);
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg()).select(d, grid);

  ASSERT_EQ(setenv("KREG_MEMORY_BUDGET", "1MiB", 1), 0);
  EXPECT_EQ(kreg::env_memory_budget(), std::size_t{1} << 20);
  Device dev;
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
  unsetenv("KREG_MEMORY_BUDGET");

  EXPECT_LE(dev.global_peak(), std::size_t{1} << 20);
  expect_same_selection(streamed, resident);
}

// --- n-streamed (2-D) device regression sweep --------------------------------

TEST(NStreamedSelector, MatchesResidentBitwiseAcrossNByKBlocks) {
  const std::size_t n = 237;  // odd: uneven lane distribution and last block
  const Dataset d = paper_data(n, 31);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 17);
  const std::size_t k = grid.size();
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg()).select(d, grid);

  for (std::size_t nb : {std::size_t{1}, std::size_t{7}, n - 1, n, n + 13}) {
    for (std::size_t kb : {std::size_t{1}, k}) {
      Device dev;
      SpmdSelectorConfig cfg = resident_cfg();
      cfg.stream.n_block = nb;
      cfg.stream.k_block = kb;
      SCOPED_TRACE("n_block=" + std::to_string(nb) +
                   " k_block=" + std::to_string(kb));
      expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid),
                            resident);
    }
  }
}

TEST(NStreamedSelector, FloatPathMatchesResidentBitwise) {
  const Dataset d = paper_data(190, 32);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 13);
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg(Precision::kFloat)).select(d, grid);
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg(Precision::kFloat);
  cfg.stream.n_block = 23;
  cfg.stream.k_block = 5;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid), resident);
}

TEST(NStreamedSelector, ObservationMajorLayoutMatchesResident) {
  const Dataset d = paper_data(151, 33);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 11);
  SpmdSelectorConfig base = resident_cfg();
  base.layout = ResidualLayout::kObservationMajor;
  Device ref;
  const SelectionResult resident = SpmdGridSelector(ref, base).select(d, grid);
  Device dev;
  SpmdSelectorConfig cfg = base;
  cfg.stream.n_block = 17;
  cfg.stream.k_block = 4;
  expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid), resident);
}

TEST(NStreamedSelector, WindowsStraddlingEveryBlockBoundary) {
  // hmax spans the whole X domain, so at the top of the grid every
  // observation's admission window covers all n observations — each window
  // straddles one, several, and finally all n-blocks as h ascends. With
  // n_block = 1 every slab is a pure halo.
  const Dataset d = paper_data(120, 34);
  const double domain = d.x_domain();
  const BandwidthGrid grid(domain / 40.0, domain, 12);
  Device ref;
  const SelectionResult resident =
      SpmdGridSelector(ref, resident_cfg()).select(d, grid);
  for (std::size_t nb : {std::size_t{1}, std::size_t{11}, std::size_t{40}}) {
    Device dev;
    SpmdSelectorConfig cfg = resident_cfg();
    cfg.stream.n_block = nb;
    cfg.stream.k_block = 3;
    SCOPED_TRACE("n_block=" + std::to_string(nb));
    expect_same_selection(SpmdGridSelector(dev, cfg).select(d, grid),
                          resident);
  }
}

TEST(NStreamedSelector, TiedXEveryObservationInEveryHalo) {
  // All-tied X: each single-observation block's halo is the entire dataset.
  Device dev;
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.stream.n_block = 1;
  cfg.stream.k_block = 2;
  const Dataset ties{{0.5, 0.5, 0.5, 0.5, 0.9}, {1.0, 2.0, 3.0, 4.0, 5.0}};
  const BandwidthGrid grid(0.1, 1.0, 5);
  Device ref;
  expect_same_selection(
      SpmdGridSelector(dev, cfg).select(ties, grid),
      SpmdGridSelector(ref, resident_cfg()).select(ties, grid));
}

TEST(NStreamedSelector, StreamsWhereTheResidentCarryAllocFails) {
  // Size the device so even the 1-D streamed plan's O(n) carry state cannot
  // fit: only the 2-D plan survives, and the ledger proves it stayed under.
  const std::size_t n = 4000;
  const Dataset d = paper_data(n, 35);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 24);
  const std::size_t cap = 96 * 1024;
  ASSERT_GT(SpmdGridSelector::estimated_streamed_bytes(n, 1,
                                                       Precision::kDouble),
            cap);
  Device dev(DeviceProperties::tiny(cap));
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  const SelectionResult streamed = SpmdGridSelector(dev, cfg).select(d, grid);
  EXPECT_LE(dev.global_peak(), cap);

  Device ref;
  expect_same_selection(streamed,
                        SpmdGridSelector(ref, resident_cfg()).select(d, grid));
}

TEST(NStreamedSelector, NameShowsNBlock) {
  Device dev;
  SpmdSelectorConfig cfg;
  cfg.stream.n_block = 37;
  cfg.stream.k_block = 8;
  const std::string name = SpmdGridSelector(dev, cfg).name();
  EXPECT_NE(name.find("nblock=37"), std::string::npos) << name;
  EXPECT_NE(name.find("kblock=8"), std::string::npos) << name;
}

// --- streamed device KDE sweep ---------------------------------------------

TEST(StreamedKde, MatchesResidentBitwiseAcrossKBlocks) {
  const auto xs = kde_sample(230, 21);
  const BandwidthGrid grid(0.05, 1.5, 18);
  const std::size_t k = grid.size();
  Device ref;
  SpmdKdeConfig base;
  base.stream.auto_tune = false;
  const SelectionResult resident = SpmdKdeSelector(ref, base).select(xs, grid);

  for (std::size_t kb : {std::size_t{1}, std::size_t{3}, k - 1, k, k + 7}) {
    Device dev;
    SpmdKdeConfig cfg = base;
    cfg.stream.k_block = kb;
    SCOPED_TRACE("k_block=" + std::to_string(kb));
    expect_same_selection(SpmdKdeSelector(dev, cfg).select(xs, grid),
                          resident);
  }
}

TEST(StreamedKde, UniformKernelMatchesResident) {
  const auto xs = kde_sample(160, 22);
  const BandwidthGrid grid(0.1, 1.0, 12);
  SpmdKdeConfig base;
  base.kernel = KernelType::kUniform;
  base.stream.auto_tune = false;
  Device ref;
  const SelectionResult resident = SpmdKdeSelector(ref, base).select(xs, grid);
  Device dev;
  SpmdKdeConfig cfg = base;
  cfg.stream.k_block = 5;
  expect_same_selection(SpmdKdeSelector(dev, cfg).select(xs, grid), resident);
}

TEST(StreamedKde, AutoStreamsPastTheResidentCliff) {
  const std::size_t cap = 512 * 1024;
  const auto xs = kde_sample(3000, 23);
  const BandwidthGrid grid(0.05, 1.5, 30);
  ASSERT_GT(SpmdKdeSelector::estimated_bytes(3000, 30), cap);
  Device dev(DeviceProperties::tiny(cap));
  const SelectionResult streamed = SpmdKdeSelector(dev).select(xs, grid);
  EXPECT_LE(dev.global_peak(), cap);

  Device ref;
  SpmdKdeConfig base;
  base.stream.auto_tune = false;
  expect_same_selection(streamed, SpmdKdeSelector(ref, base).select(xs, grid));
}

TEST(StreamedKde, NameShowsStreamingKnobs) {
  Device dev;
  SpmdKdeConfig cfg;
  cfg.stream.k_block = 4;
  const std::string name = SpmdKdeSelector(dev, cfg).name();
  EXPECT_NE(name.find("kblock=4"), std::string::npos) << name;
}

// --- n-streamed (2-D) device KDE sweep --------------------------------------

TEST(NStreamedKde, MatchesResidentBitwiseAcrossNByKBlocks) {
  const std::size_t n = 206;
  const auto xs = kde_sample(n, 41);
  const BandwidthGrid grid(0.05, 1.5, 14);
  const std::size_t k = grid.size();
  Device ref;
  SpmdKdeConfig base;
  base.stream.auto_tune = false;
  const SelectionResult resident = SpmdKdeSelector(ref, base).select(xs, grid);

  for (std::size_t nb : {std::size_t{1}, std::size_t{7}, n - 1, n, n + 13}) {
    for (std::size_t kb : {std::size_t{1}, k}) {
      Device dev;
      SpmdKdeConfig cfg = base;
      cfg.stream.n_block = nb;
      cfg.stream.k_block = kb;
      SCOPED_TRACE("n_block=" + std::to_string(nb) +
                   " k_block=" + std::to_string(kb));
      expect_same_selection(SpmdKdeSelector(dev, cfg).select(xs, grid),
                            resident);
    }
  }
}

TEST(NStreamedKde, ConvolutionReachIsWiderThanTheKernels) {
  // A kernel pair's convolution support (2h for compact kernels) is wider
  // than the kernel's own: the halo must be sized by the larger of the two
  // supports or far-pair convolution terms go missing.
  const auto xs = kde_sample(140, 42);
  const BandwidthGrid grid(0.1, 1.2, 10);
  SpmdKdeConfig base;
  base.kernel = KernelType::kUniform;
  base.stream.auto_tune = false;
  Device ref;
  const SelectionResult resident = SpmdKdeSelector(ref, base).select(xs, grid);
  Device dev;
  SpmdKdeConfig cfg = base;
  cfg.stream.n_block = 9;
  cfg.stream.k_block = 3;
  expect_same_selection(SpmdKdeSelector(dev, cfg).select(xs, grid), resident);
}

TEST(NStreamedKde, StreamsWhereTheResidentCarryAllocFails) {
  const std::size_t n = 4000;
  const auto xs = kde_sample(n, 43);
  const BandwidthGrid grid(0.05, 1.5, 20);
  const std::size_t cap = 128 * 1024;
  ASSERT_GT(SpmdKdeSelector::estimated_streamed_bytes(n, 1), cap);
  Device dev(DeviceProperties::tiny(cap));
  const SelectionResult streamed = SpmdKdeSelector(dev).select(xs, grid);
  EXPECT_LE(dev.global_peak(), cap);

  Device ref;
  SpmdKdeConfig base;
  base.stream.auto_tune = false;
  expect_same_selection(streamed, SpmdKdeSelector(ref, base).select(xs, grid));
}

TEST(NStreamedKde, NameShowsNBlock) {
  Device dev;
  SpmdKdeConfig cfg;
  cfg.stream.n_block = 19;
  const std::string name = SpmdKdeSelector(dev, cfg).name();
  EXPECT_NE(name.find("nblock=19"), std::string::npos) << name;
}

// --- multi-device (device × k-block) sharding ------------------------------

TEST(StreamedMultiDevice, MatchesMultiDeviceResidentBitwise) {
  const Dataset d = paper_data(301, 24);  // odd: uneven slices
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 15);
  const std::size_t k = grid.size();
  Device ra;
  Device rb;
  const SelectionResult resident =
      MultiDeviceGridSelector({&ra, &rb}, resident_cfg()).select(d, grid);

  for (std::size_t kb : {std::size_t{1}, std::size_t{7}, k}) {
    Device a;
    Device b;
    SpmdSelectorConfig cfg = resident_cfg();
    cfg.stream.k_block = kb;
    SCOPED_TRACE("k_block=" + std::to_string(kb));
    expect_same_selection(
        MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid), resident);
  }
}

TEST(StreamedMultiDevice, AgreesWithSingleDeviceWindowSweep) {
  const Dataset d = paper_data(240, 25);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 12);
  Device single;
  const SelectionResult one =
      SpmdGridSelector(single, resident_cfg()).select(d, grid);
  Device a;
  Device b;
  Device c;
  SpmdSelectorConfig cfg = resident_cfg();
  cfg.stream.k_block = 5;
  const SelectionResult multi =
      MultiDeviceGridSelector({&a, &b, &c}, cfg).select(d, grid);
  EXPECT_DOUBLE_EQ(multi.bandwidth, one.bandwidth);
  for (std::size_t g = 0; g < grid.size(); ++g) {
    EXPECT_NEAR(multi.scores[g], one.scores[g],
                1e-10 * std::max(1.0, one.scores[g]));
  }
}

TEST(StreamedMultiDevice, HeterogeneousBudgetsStreamPerDevice) {
  // One roomy device and one tiny one: each resolves its own k-block; the
  // combined profile still matches the all-resident reference.
  const Dataset d = paper_data(1200, 26);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 16);
  Device roomy;
  Device tiny(DeviceProperties::tiny(160 * 1024));
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  const SelectionResult mixed =
      MultiDeviceGridSelector({&roomy, &tiny}, cfg).select(d, grid);
  EXPECT_LE(tiny.global_peak(), 160u * 1024);

  Device ra;
  Device rb;
  expect_same_selection(
      mixed,
      MultiDeviceGridSelector({&ra, &rb}, resident_cfg()).select(d, grid));
}

// --- multi-device (device × n-block × k-block) sharding ----------------------

TEST(NStreamedMultiDevice, MatchesMultiDeviceResidentBitwise) {
  const std::size_t n = 301;  // 3 uneven slices of ~100
  const Dataset d = paper_data(n, 51);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 13);
  Device ra;
  Device rb;
  Device rc;
  const SelectionResult resident =
      MultiDeviceGridSelector({&ra, &rb, &rc}, resident_cfg()).select(d, grid);

  for (std::size_t nb : {std::size_t{1}, std::size_t{7}, n, n + 13}) {
    for (std::size_t kb : {std::size_t{1}, std::size_t{13}}) {
      Device a;
      Device b;
      Device c;
      SpmdSelectorConfig cfg = resident_cfg();
      cfg.stream.n_block = nb;
      cfg.stream.k_block = kb;
      SCOPED_TRACE("n_block=" + std::to_string(nb) +
                   " k_block=" + std::to_string(kb));
      expect_same_selection(
          MultiDeviceGridSelector({&a, &b, &c}, cfg).select(d, grid),
          resident);
    }
  }
}

TEST(NStreamedMultiDevice, FloatShardsMatchResidentBitwise) {
  const Dataset d = paper_data(250, 52);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  Device ra;
  Device rb;
  const SelectionResult resident =
      MultiDeviceGridSelector({&ra, &rb}, resident_cfg(Precision::kFloat))
          .select(d, grid);
  Device a;
  Device b;
  SpmdSelectorConfig cfg = resident_cfg(Precision::kFloat);
  cfg.stream.n_block = 29;
  cfg.stream.k_block = 4;
  expect_same_selection(
      MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid), resident);
}

TEST(NStreamedMultiDevice, TinyDevicesNStreamUnderTheirCaps) {
  // Both devices too small for even the 1-D carry: the per-device 2-D plans
  // engage, peaks stay under the caps, and the profile is unchanged.
  const std::size_t n = 6000;
  const Dataset d = paper_data(n, 53);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 18);
  // Big enough for the minimal tile (h_max spans the domain, so even a
  // one-observation block's halo slab is the whole slice), too small for
  // the 1-D plan's O(rows) carry state.
  const std::size_t cap = 128 * 1024;
  ASSERT_GT(SpmdGridSelector::estimated_streamed_bytes(n / 2, 1,
                                                       Precision::kDouble),
            cap);
  Device a(DeviceProperties::tiny(cap));
  Device b(DeviceProperties::tiny(cap));
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  const SelectionResult streamed =
      MultiDeviceGridSelector({&a, &b}, cfg).select(d, grid);
  EXPECT_LE(a.global_peak(), cap);
  EXPECT_LE(b.global_peak(), cap);

  Device ra;
  Device rb;
  expect_same_selection(
      streamed,
      MultiDeviceGridSelector({&ra, &rb}, resident_cfg()).select(d, grid));
}

TEST(NStreamedMultiDevice, NameShowsNBlock) {
  Device a;
  Device b;
  SpmdSelectorConfig cfg;
  cfg.stream.n_block = 21;
  const std::string name = MultiDeviceGridSelector({&a, &b}, cfg).name();
  EXPECT_NE(name.find("nblock=21"), std::string::npos) << name;
}

// --- one score order: the device fold is the host sweep's ----------------

/// Equal bit patterns: tells -0.0 from 0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `got` carries exactly the host profile's scores, and its selection is
/// the first argmin of them.
void expect_host_bits(const SelectionResult& got,
                      const std::vector<double>& host,
                      const BandwidthGrid& grid) {
  ASSERT_EQ(got.scores.size(), host.size());
  for (std::size_t b = 0; b < host.size(); ++b) {
    EXPECT_TRUE(same_bits(got.scores[b], host[b]))
        << "b=" << b << ": device " << got.scores[b] << " host " << host[b];
  }
  const std::size_t best = kreg::first_argmin(got.scores);
  EXPECT_EQ(got.bandwidth, grid[best]);
  EXPECT_TRUE(same_bits(got.cv_score, got.scores[best]));
}

TEST(DeviceScoreOrder, EveryNwPlanShardAndLaneWidthIsTheHostSweepBitwise) {
  // The device window driver folds each bandwidth's residuals in ascending
  // observation order, carrying the running total across k-blocks,
  // n-blocks and device slices — the sequential host sweep's order — so
  // every device profile is window_cv_profile bit for bit. k = 2,000 at
  // n = 1,000 is Table II's widest grid: two 512-thread blocks, which the
  // device splits across workers (n = 1,001 adds a one-lane batch). In
  // double that grid exceeds the constant cache: the resident plan throws,
  // and the default plan streams it in k-blocks of 1,024.
  const StreamingConfig resident{0, 0, 0, false};
  const StreamingConfig k_blocks{3, 0, 0, true};
  const StreamingConfig tiles{5, 37, 0, true};
  const StreamingConfig auto_plan{};
  const std::size_t constant_bytes =
      DeviceProperties::tesla_s10().constant_cache_bytes;
  for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{1, 17},
                            {257, 17},
                            {3000, 17},
                            {1000, 2000},
                            {1001, 2000}}) {
    const Dataset d = paper_data(n, 41 + n);
    const BandwidthGrid grid(0.02, 0.9, k);
    for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
      const std::vector<double> host = kreg::window_cv_profile(
          d, grid.values(), KernelType::kEpanechnikov, precision);
      const std::size_t grid_bytes =
          k * (precision == Precision::kFloat ? sizeof(float) : sizeof(double));
      for (const std::size_t width : {std::size_t{1}, kreg::kLaneWidth}) {
        for (const StreamingConfig& stream :
             {resident, k_blocks, tiles, auto_plan}) {
          SpmdSelectorConfig cfg;
          cfg.precision = precision;
          cfg.lane_width = width;
          cfg.stream = stream;
          SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                       " " + std::string(kreg::to_string(precision)) +
                       " lanes=" + std::to_string(width) +
                       " k_block=" + std::to_string(stream.k_block) +
                       " n_block=" + std::to_string(stream.n_block) +
                       " auto=" + std::to_string(stream.auto_tune));
          Device dev;
          if (!stream.auto_tune && grid_bytes > constant_bytes) {
            EXPECT_THROW(SpmdGridSelector(dev, cfg).select(d, grid),
                         kreg::spmd::ConstantCapacityError);
            continue;
          }
          expect_host_bits(SpmdGridSelector(dev, cfg).select(d, grid), host,
                           grid);
          for (const std::size_t shards : {1u, 2u, 3u}) {
            std::vector<std::unique_ptr<Device>> owned;
            std::vector<Device*> devices;
            for (std::size_t i = 0; i < shards; ++i) {
              owned.push_back(std::make_unique<Device>());
              devices.push_back(owned.back().get());
            }
            SCOPED_TRACE("shards=" + std::to_string(shards));
            expect_host_bits(
                MultiDeviceGridSelector(devices, cfg).select(d, grid), host,
                grid);
          }
        }
      }
    }
  }
}

TEST(DeviceScoreOrder, KdeResidentKBlockAndTiledProfilesAreBitwiseEqual) {
  const auto xs = kde_sample(700, 43);
  const BandwidthGrid grid(0.05, 1.5, 23);
  Device dev;
  SpmdKdeConfig resident;
  resident.stream.auto_tune = false;
  const SelectionResult want = SpmdKdeSelector(dev, resident).select(xs, grid);
  SpmdKdeConfig k_blocks;
  k_blocks.stream.k_block = 4;
  SpmdKdeConfig tiles;
  tiles.stream.k_block = 5;
  tiles.stream.n_block = 61;
  for (const SpmdKdeConfig& cfg : {k_blocks, tiles}) {
    const SelectionResult got = SpmdKdeSelector(dev, cfg).select(xs, grid);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (std::size_t b = 0; b < want.scores.size(); ++b) {
      EXPECT_TRUE(same_bits(got.scores[b], want.scores[b]))
          << "k_block=" << cfg.stream.k_block
          << " n_block=" << cfg.stream.n_block << " b=" << b;
    }
    EXPECT_EQ(got.bandwidth, want.bandwidth);
  }
}

// --- host tiled profile -----------------------------------------------------

// The tiled profile folds each bandwidth's rows in ascending order, so it
// is window_cv_profile bit for bit: n = 333 spans six 64-row tiles and
// k = 130 three 64-entry k-blocks.
TEST(TiledHostProfile, MatchesWindowProfileAcrossTilings) {
  const Dataset d = paper_data(333, 27);
  for (const std::size_t k : {21, 64, 130}) {
    const BandwidthGrid grid = BandwidthGrid::default_for(d, k);
    const std::vector<double> reference =
        kreg::window_cv_profile(d, grid.values(), KernelType::kEpanechnikov);
    const std::vector<double> tiled = kreg::window_cv_profile_tiled(
        d, grid.values(), KernelType::kEpanechnikov);
    ASSERT_EQ(tiled.size(), reference.size());
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_TRUE(same_bits(tiled[b], reference[b])) << "k=" << k << " b=" << b;
    }
  }
}

TEST(TiledHostProfile, FloatPrecisionMatchesFloatWindowProfile) {
  const Dataset d = paper_data(200, 28);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 9);
  const std::vector<double> reference = kreg::window_cv_profile(
      d, grid.values(), KernelType::kEpanechnikov, Precision::kFloat);
  const std::vector<double> tiled = kreg::window_cv_profile_tiled(
      d, grid.values(), KernelType::kEpanechnikov, Precision::kFloat);
  for (std::size_t b = 0; b < reference.size(); ++b) {
    EXPECT_TRUE(same_bits(tiled[b], reference[b])) << "b=" << b;
  }
}

TEST(TiledHostProfile, OtherSweepableKernelsAgree) {
  const Dataset d = paper_data(150, 29);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 8);
  for (const KernelType kernel : kreg::kAllKernels) {
    if (!kreg::is_sweepable(kernel)) {
      continue;
    }
    const std::vector<double> reference =
        kreg::window_cv_profile(d, grid.values(), kernel);
    const std::vector<double> tiled =
        kreg::window_cv_profile_tiled(d, grid.values(), kernel);
    for (std::size_t b = 0; b < reference.size(); ++b) {
      EXPECT_TRUE(same_bits(tiled[b], reference[b]))
          << kreg::to_string(kernel) << " b=" << b;
    }
  }
}

}  // namespace
