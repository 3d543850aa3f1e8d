// Tests for the device KDE selector and KDE confidence bands.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/grid.hpp"
#include "core/kde.hpp"
#include "core/kde_sweep.hpp"
#include "core/spmd_kde.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"
#include "spmd/errors.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::SpmdKdeConfig;
using kreg::SpmdKdeSelector;
using kreg::rng::Stream;
using kreg::spmd::Device;

std::vector<double> sample(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = s.uniform() < 0.5 ? s.gaussian(-1.0, 0.4) : s.gaussian(1.0, 0.6);
  }
  return xs;
}

TEST(SpmdKde, MatchesHostSweepProfile) {
  Device dev;
  const auto xs = sample(300, 90);
  const BandwidthGrid grid(0.05, 1.5, 30);
  const auto host = kreg::kde_select_sweep(xs, grid);
  const auto device = SpmdKdeSelector(dev).select(xs, grid);
  EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
  ASSERT_EQ(device.scores.size(), host.scores.size());
  for (std::size_t b = 0; b < host.scores.size(); ++b) {
    EXPECT_NEAR(device.scores[b], host.scores[b],
                1e-10 * std::max(1.0, std::abs(host.scores[b])));
  }
}

TEST(SpmdKde, MatchesDirectLscvAcrossBlockSizes) {
  const auto xs = sample(200, 91);
  const BandwidthGrid grid(0.1, 1.0, 12);
  for (std::size_t tpb : {32u, 512u}) {
    Device dev;
    SpmdKdeConfig cfg;
    cfg.threads_per_block = tpb;
    const auto r = SpmdKdeSelector(dev, cfg).select(xs, grid);
    for (std::size_t b = 0; b < grid.size(); ++b) {
      EXPECT_NEAR(r.scores[b], kreg::kde_lscv_score(xs, grid[b]),
                  1e-9 * std::max(1.0, std::abs(r.scores[b])))
          << "tpb=" << tpb;
    }
  }
}

TEST(SpmdKde, UniformKernelPath) {
  Device dev;
  const auto xs = sample(150, 92);
  const BandwidthGrid grid(0.1, 1.0, 10);
  SpmdKdeConfig cfg;
  cfg.kernel = KernelType::kUniform;
  const auto r = SpmdKdeSelector(dev, cfg).select(xs, grid);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(r.scores[b],
                kreg::kde_lscv_score(xs, grid[b], KernelType::kUniform),
                1e-10 * std::max(1.0, std::abs(r.scores[b])));
  }
}

TEST(SpmdKde, RejectsUnsupportedKernelAndTinySamples) {
  Device dev;
  const BandwidthGrid grid(0.1, 1.0, 5);
  SpmdKdeConfig cfg;
  cfg.kernel = KernelType::kGaussian;
  const auto xs = sample(50, 93);
  EXPECT_THROW(SpmdKdeSelector(dev, cfg).select(xs, grid),
               std::invalid_argument);
  const std::vector<double> one = {0.5};
  EXPECT_THROW(SpmdKdeSelector(dev).select(one, grid), std::invalid_argument);
}

// The resident plan (auto_tune = false) keeps the constant cap. The
// default plan streams past it in k-blocks of 1,024 doubles and folds in
// the same order as any other plan: bitwise an explicit k-block plan's.
TEST(SpmdKde, ConstantCapAppliesToDoubles) {
  Device dev;
  const auto xs = sample(300, 94);
  for (const std::size_t k : {1025, 2000}) {  // 1025 doubles > 8 KB
    const BandwidthGrid grid(1e-4, 1.0, k);
    SpmdKdeConfig resident;
    resident.stream.auto_tune = false;
    EXPECT_THROW(SpmdKdeSelector(dev, resident).select(xs, grid),
                 kreg::spmd::ConstantCapacityError);
    SpmdKdeConfig k_blocks;
    k_blocks.stream.k_block = 7;
    const auto want = SpmdKdeSelector(dev, k_blocks).select(xs, grid);
    const auto got = SpmdKdeSelector(dev).select(xs, grid);
    ASSERT_EQ(got.scores.size(), want.scores.size());
    for (std::size_t b = 0; b < k; ++b) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.scores[b]),
                std::bit_cast<std::uint64_t>(want.scores[b]))
          << "k=" << k << " b=" << b;
    }
  }
}

TEST(SpmdKde, MemoryReleasedAfterSelect) {
  Device dev;
  const auto xs = sample(100, 95);
  const BandwidthGrid grid(0.1, 1.0, 8);
  (void)SpmdKdeSelector(dev).select(xs, grid);
  EXPECT_EQ(dev.global_allocated(), 0u);
}

// ---- Window-sweep device algorithm --------------------------------------

TEST(SpmdKdeWindow, DefaultIsWindowAndMatchesHostWindowProfile) {
  SpmdKdeConfig def;
  EXPECT_EQ(def.algorithm, kreg::SweepAlgorithm::kWindow);

  Device dev;
  const auto xs = sample(300, 190);
  const BandwidthGrid grid(0.05, 1.5, 30);
  const auto host =
      kreg::kde_window_lscv_profile(xs, grid.values(),
                                    KernelType::kEpanechnikov);
  const auto device = SpmdKdeSelector(dev).select(xs, grid);
  ASSERT_EQ(device.scores.size(), host.size());
  for (std::size_t b = 0; b < host.size(); ++b) {
    EXPECT_NEAR(device.scores[b], host[b],
                1e-10 * std::max(1.0, std::abs(host[b])));
  }
}

TEST(SpmdKdeWindow, PerRowStaysSelectableAndAgrees) {
  Device dev;
  const auto xs = sample(250, 191);
  const BandwidthGrid grid(0.05, 1.2, 20);
  SpmdKdeConfig per_row;
  per_row.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  const auto p = SpmdKdeSelector(dev, per_row).select(xs, grid);
  const auto w = SpmdKdeSelector(dev).select(xs, grid);
  EXPECT_DOUBLE_EQ(p.bandwidth, w.bandwidth);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(w.scores[b], p.scores[b],
                1e-9 * std::max(1.0, std::abs(p.scores[b])));
  }
}

TEST(SpmdKdeWindow, UniformKernelAgreesWithDirectLscv) {
  Device dev;
  const auto xs = sample(150, 192);
  const BandwidthGrid grid(0.1, 1.0, 10);
  SpmdKdeConfig cfg;
  cfg.kernel = KernelType::kUniform;
  const auto r = SpmdKdeSelector(dev, cfg).select(xs, grid);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(r.scores[b],
                kreg::kde_lscv_score(xs, grid[b], KernelType::kUniform),
                1e-10 * std::max(1.0, std::abs(r.scores[b])));
  }
}

TEST(SpmdKdeWindow, LiftsThePerRowDeviceLimit) {
  // On a 1 MB device the per-row path's n×n double row matrix overflows
  // well before n = 512; the window path's O(n + n·k) plan sails through
  // and still matches the host profile.
  kreg::spmd::Device small_dev(kreg::spmd::DeviceProperties::tiny(1 << 20));
  const auto xs = sample(512, 193);
  const BandwidthGrid grid(0.1, 1.0, 8);

  SpmdKdeConfig per_row;
  per_row.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  EXPECT_THROW(SpmdKdeSelector(small_dev, per_row).select(xs, grid),
               kreg::spmd::DeviceAllocError);

  const auto r = SpmdKdeSelector(small_dev).select(xs, grid);
  const auto host =
      kreg::kde_window_lscv_profile(xs, grid.values(),
                                    KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(r.scores[b], host[b],
                1e-10 * std::max(1.0, std::abs(host[b])));
  }
}

TEST(SpmdKdeWindow, EstimatedBytesMatchesLedgerPeak) {
  const auto xs = sample(100, 194);
  const BandwidthGrid grid(0.1, 1.0, 10);
  {
    Device dev;
    (void)SpmdKdeSelector(dev).select(xs, grid);
    EXPECT_EQ(dev.global_peak(),
              SpmdKdeSelector::estimated_bytes(100, 10,
                                               kreg::SweepAlgorithm::kWindow));
  }
  {
    Device dev;
    SpmdKdeConfig cfg;
    cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
    (void)SpmdKdeSelector(dev, cfg).select(xs, grid);
    EXPECT_EQ(dev.global_peak(),
              SpmdKdeSelector::estimated_bytes(
                  100, 10, kreg::SweepAlgorithm::kPerRowSort));
  }
}

TEST(SpmdKdeWindow, NameReportsAlgorithm) {
  Device dev;
  SpmdKdeConfig cfg;
  EXPECT_NE(SpmdKdeSelector(dev, cfg).name().find("window"),
            std::string::npos);
  cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  EXPECT_EQ(SpmdKdeSelector(dev, cfg).name().find("window"),
            std::string::npos);
}

// ---- KDE confidence bands ----------------------------------------------

TEST(KdeBand, ShapeOrderingAndClamping) {
  const auto xs = sample(500, 96);
  const auto band = kreg::kde_confidence_band(xs, 0.3,
                                              KernelType::kEpanechnikov, 50,
                                              0.95);
  ASSERT_EQ(band.x.size(), 50u);
  for (std::size_t i = 0; i < band.x.size(); ++i) {
    EXPECT_GE(band.lower[i], 0.0);  // densities cannot be negative
    EXPECT_LE(band.lower[i], band.density[i]);
    EXPECT_GE(band.upper[i], band.density[i]);
  }
}

TEST(KdeBand, WidthShrinksWithSampleSize) {
  const auto small_sample = sample(200, 97);
  const auto large_sample = sample(5000, 97);
  const auto bs = kreg::kde_confidence_band(small_sample, 0.3);
  const auto bl = kreg::kde_confidence_band(large_sample, 0.3);
  // Compare max width: larger n -> tighter bands.
  double ws = 0.0;
  double wl = 0.0;
  for (std::size_t i = 0; i < bs.x.size(); ++i) {
    ws = std::max(ws, bs.upper[i] - bs.lower[i]);
  }
  for (std::size_t i = 0; i < bl.x.size(); ++i) {
    wl = std::max(wl, bl.upper[i] - bl.lower[i]);
  }
  EXPECT_LT(wl, ws);
}

TEST(KdeBand, CoversTrueDensityMostly) {
  Stream s(98);
  std::vector<double> xs(4000);
  for (auto& x : xs) {
    x = s.gaussian(0.0, 1.0);
  }
  const auto band = kreg::kde_confidence_band(xs, 0.35,
                                              KernelType::kEpanechnikov, 40,
                                              0.95);
  std::size_t covered = 0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < band.x.size(); ++i) {
    const double x = band.x[i];
    if (std::abs(x) > 2.0) {
      continue;  // tails: relative bias dominates
    }
    const double truth = std::exp(-0.5 * x * x) / std::sqrt(8.0 * std::atan(1.0));
    ++counted;
    covered += (truth >= band.lower[i] && truth <= band.upper[i]) ? 1 : 0;
  }
  ASSERT_GT(counted, 10u);
  EXPECT_GE(static_cast<double>(covered) / static_cast<double>(counted), 0.7);
}

TEST(KdeBand, ValidatesInputs) {
  const auto xs = sample(50, 99);
  EXPECT_THROW(kreg::kde_confidence_band(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(kreg::kde_confidence_band(xs, 0.3,
                                         KernelType::kEpanechnikov, 1),
               std::invalid_argument);
  EXPECT_THROW(kreg::kde_confidence_band(xs, 0.3,
                                         KernelType::kEpanechnikov, 10, 0.0),
               std::invalid_argument);
  const std::vector<double> empty;
  EXPECT_THROW(kreg::kde_confidence_band(empty, 0.3), std::invalid_argument);
}

}  // namespace
