// Tests for Program 4 (the SPMD device grid selector): agreement with the
// sequential sorted search (the paper's §IV-C check), layout/block-size
// invariance, float/double paths, streaming mode, and the paper's memory
// and constant-cache capacity behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/grid.hpp"
#include "core/selectors.hpp"
#include "core/spmd_selector.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/errors.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::Precision;
using kreg::ResidualLayout;
using kreg::SelectionResult;
using kreg::SortedGridSelector;
using kreg::SpmdGridSelector;
using kreg::SpmdSelectorConfig;
using kreg::SweepAlgorithm;
using kreg::WindowSweepSelector;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;
using kreg::spmd::DeviceProperties;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

SpmdSelectorConfig double_cfg() {
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  return cfg;
}

// ---- §IV-C protocol: CUDA program vs sequential C program ------------------

TEST(SpmdSelector, MatchesSequentialSortedSearchInDouble) {
  Device dev;
  const Dataset d = paper_data(300, 1);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  const SelectionResult host = SortedGridSelector().select(d, grid);
  const SelectionResult device =
      SpmdGridSelector(dev, double_cfg()).select(d, grid);
  EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
  ASSERT_EQ(device.scores.size(), host.scores.size());
  for (std::size_t b = 0; b < host.scores.size(); ++b) {
    EXPECT_NEAR(device.scores[b], host.scores[b],
                1e-9 * std::max(1.0, host.scores[b]))
        << "b=" << b;
  }
}

TEST(SpmdSelector, FloatPathSelectsSameBandwidth) {
  Device dev;
  const Dataset d = paper_data(400, 2);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  const SelectionResult host = SortedGridSelector().select(d, grid);
  SpmdSelectorConfig cfg;  // default float, like the paper
  const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
  EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
  for (std::size_t b = 0; b < host.scores.size(); ++b) {
    EXPECT_NEAR(device.scores[b], host.scores[b],
                1e-3 * std::max(1.0, host.scores[b]));
  }
}

// ---- Invariance over execution configuration -------------------------------

using InvarianceParam =
    std::tuple<std::size_t /*tpb*/, ResidualLayout, bool /*streaming*/>;

class SpmdInvarianceTest : public ::testing::TestWithParam<InvarianceParam> {};

TEST_P(SpmdInvarianceTest, SelectionIndependentOfExecutionConfig) {
  const auto [tpb, layout, streaming] = GetParam();
  Device dev;
  const Dataset d = paper_data(257, 3);  // odd size: exercises padding
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 25);

  SpmdSelectorConfig cfg = double_cfg();
  cfg.threads_per_block = tpb;
  cfg.layout = layout;
  cfg.streaming = streaming;
  const SelectionResult r = SpmdGridSelector(dev, cfg).select(d, grid);

  const SelectionResult reference =
      SpmdGridSelector(dev, double_cfg()).select(d, grid);
  EXPECT_DOUBLE_EQ(r.bandwidth, reference.bandwidth);
  for (std::size_t b = 0; b < reference.scores.size(); ++b) {
    EXPECT_NEAR(r.scores[b], reference.scores[b],
                1e-9 * std::max(1.0, reference.scores[b]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SpmdInvarianceTest,
    ::testing::Combine(::testing::Values<std::size_t>(32, 128, 512),
                       ::testing::Values(ResidualLayout::kObservationMajor,
                                         ResidualLayout::kBandwidthMajor),
                       ::testing::Bool()));

TEST(SpmdSelector, ReduceVariantDoesNotChangeResult) {
  Device dev;
  const Dataset d = paper_data(200, 4);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 20);
  SpmdSelectorConfig seq_cfg = double_cfg();
  seq_cfg.reduce_variant = kreg::spmd::ReduceVariant::kSequential;
  SpmdSelectorConfig inter_cfg = double_cfg();
  inter_cfg.reduce_variant = kreg::spmd::ReduceVariant::kInterleaved;
  const auto a = SpmdGridSelector(dev, seq_cfg).select(d, grid);
  const auto b = SpmdGridSelector(dev, inter_cfg).select(d, grid);
  EXPECT_DOUBLE_EQ(a.bandwidth, b.bandwidth);
}

TEST(SpmdSelector, WorksAcrossSweepableKernels) {
  Device dev;
  const Dataset d = paper_data(150, 5);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 15);
  for (KernelType k :
       {KernelType::kEpanechnikov, KernelType::kUniform,
        KernelType::kTriangular, KernelType::kBiweight,
        KernelType::kTriweight}) {
    SpmdSelectorConfig cfg = double_cfg();
    cfg.kernel = k;
    const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
    const SelectionResult host = SortedGridSelector(k).select(d, grid);
    EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth) << to_string(k);
  }
}

TEST(SpmdSelector, RejectsNonSweepableKernel) {
  Device dev;
  const Dataset d = paper_data(50, 6);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 5);
  SpmdSelectorConfig cfg;
  cfg.kernel = KernelType::kGaussian;
  EXPECT_THROW(SpmdGridSelector(dev, cfg).select(d, grid),
               std::invalid_argument);
}

// ---- Window-sweep device algorithm -----------------------------------------

TEST(SpmdWindowSweep, MatchesHostPathsInDouble) {
  Device dev;
  for (std::size_t n : {std::size_t{50}, std::size_t{1000}}) {
    const Dataset d = paper_data(n, 20);
    const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
    SpmdSelectorConfig cfg = double_cfg();
    cfg.algorithm = SweepAlgorithm::kWindow;
    const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
    const SelectionResult host = WindowSweepSelector().select(d, grid);
    const SelectionResult sorted = SortedGridSelector().select(d, grid);
    EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth) << "n=" << n;
    EXPECT_DOUBLE_EQ(device.bandwidth, sorted.bandwidth) << "n=" << n;
    ASSERT_EQ(device.scores.size(), host.scores.size());
    for (std::size_t b = 0; b < host.scores.size(); ++b) {
      EXPECT_NEAR(device.scores[b], host.scores[b],
                  1e-9 * std::max(1.0, host.scores[b]))
          << "n=" << n << " b=" << b;
    }
  }
}

TEST(SpmdWindowSweep, FloatPathSelectsSameBandwidth) {
  Device dev;
  const Dataset d = paper_data(400, 21);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  SpmdSelectorConfig cfg;  // float, like the paper
  cfg.algorithm = SweepAlgorithm::kWindow;
  const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
  const SelectionResult host = SortedGridSelector().select(d, grid);
  EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
}

TEST(SpmdWindowSweep, LayoutAndBlockSizeInvariant) {
  Device dev;
  const Dataset d = paper_data(257, 22);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 25);
  SpmdSelectorConfig base = double_cfg();
  base.algorithm = SweepAlgorithm::kWindow;
  const SelectionResult reference = SpmdGridSelector(dev, base).select(d, grid);
  for (std::size_t tpb : {std::size_t{32}, std::size_t{512}}) {
    for (ResidualLayout layout : {ResidualLayout::kObservationMajor,
                                  ResidualLayout::kBandwidthMajor}) {
      SpmdSelectorConfig cfg = base;
      cfg.threads_per_block = tpb;
      cfg.layout = layout;
      const SelectionResult r = SpmdGridSelector(dev, cfg).select(d, grid);
      EXPECT_DOUBLE_EQ(r.bandwidth, reference.bandwidth);
      for (std::size_t b = 0; b < reference.scores.size(); ++b) {
        EXPECT_NEAR(r.scores[b], reference.scores[b],
                    1e-9 * std::max(1.0, reference.scores[b]));
      }
    }
  }
}

TEST(SpmdWindowSweep, LiftsMemoryLimitWithoutStreaming) {
  // The same over-limit problem from GlobalMemoryOomReproducesOnSmallDevice
  // fits once the n×n matrices are gone — no streaming needed.
  Device dev(DeviceProperties::tiny(1 << 20));
  const BandwidthGrid grid(0.01, 1.0, 8);
  const Dataset big = paper_data(512, 23);
  SpmdSelectorConfig cfg;  // float
  cfg.algorithm = SweepAlgorithm::kWindow;
  EXPECT_NO_THROW(SpmdGridSelector(dev, cfg).select(big, grid));
}

TEST(SpmdWindowSweep, EstimatedBytesDropsQuadraticTerm) {
  // Per-row-sort needs two n×n matrices; window keeps only O(n + n·k).
  const std::size_t cap = 4ULL * 1024 * 1024 * 1024;
  EXPECT_GT(SpmdGridSelector::estimated_bytes(25000, 50, Precision::kFloat,
                                              false,
                                              SweepAlgorithm::kPerRowSort),
            cap);
  EXPECT_LT(SpmdGridSelector::estimated_bytes(25000, 50, Precision::kFloat,
                                              false, SweepAlgorithm::kWindow),
            cap);
  EXPECT_LT(SpmdGridSelector::estimated_bytes(1000000, 50, Precision::kFloat,
                                              false, SweepAlgorithm::kWindow),
            cap);
}

TEST(SpmdWindowSweep, EstimatedBytesMatchesLedgerPeak) {
  Device dev;
  const Dataset d = paper_data(100, 24);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  SpmdSelectorConfig cfg = double_cfg();
  cfg.algorithm = SweepAlgorithm::kWindow;
  (void)SpmdGridSelector(dev, cfg).select(d, grid);
  const std::size_t predicted = SpmdGridSelector::estimated_bytes(
      100, 10, Precision::kDouble, /*streaming=*/false,
      SweepAlgorithm::kWindow);
  EXPECT_EQ(dev.global_peak(), predicted);
}

TEST(SpmdWindowSweep, TiedXAndTinyDatasets) {
  Device dev;
  SpmdSelectorConfig cfg = double_cfg();
  cfg.algorithm = SweepAlgorithm::kWindow;
  {
    Dataset d{{0.5, 0.5, 0.5, 0.7}, {1.0, 2.0, 3.0, 4.0}};
    const BandwidthGrid grid(0.1, 0.8, 4);
    const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
    const SelectionResult host = SortedGridSelector().select(d, grid);
    EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
  }
  {
    Dataset d{{0.2, 0.8}, {1.0, 3.0}};
    const BandwidthGrid grid(0.1, 1.0, 4);
    const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
    const SelectionResult host = SortedGridSelector().select(d, grid);
    EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
  }
}

TEST(SpmdWindowSweep, PaperScaleBeyondPerRowLimit) {
  // n = 20,000 with k = 50 in float sits right at the per-row path's 4 GB
  // cliff (two n×n matrices = 3.2 GB). The window path needs ~4 MB and must
  // select the same bandwidth as the parallel host sweep.
  Device dev;
  const Dataset d = paper_data(20000, 25);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  SpmdSelectorConfig cfg;  // float
  cfg.algorithm = SweepAlgorithm::kWindow;
  const SelectionResult device = SpmdGridSelector(dev, cfg).select(d, grid);
  const SelectionResult host =
      WindowSweepSelector(KernelType::kEpanechnikov, Precision::kDouble,
                          /*parallel=*/true)
          .select(d, grid);
  EXPECT_DOUBLE_EQ(device.bandwidth, host.bandwidth);
}

TEST(SpmdWindowSweep, NameReportsAlgorithm) {
  Device dev;
  SpmdSelectorConfig cfg;
  cfg.algorithm = SweepAlgorithm::kWindow;
  EXPECT_NE(SpmdGridSelector(dev, cfg).name().find("window"),
            std::string::npos);
  EXPECT_EQ(std::string(kreg::to_string(SweepAlgorithm::kPerRowSort)),
            "per-row-sort");
  EXPECT_EQ(std::string(kreg::to_string(SweepAlgorithm::kWindow)), "window");
}

// ---- Capacity behaviour (paper §IV-A / §V) ----------------------------------

TEST(SpmdSelector, GlobalMemoryOomReproducesOnSmallDevice) {
  // Scale the paper's cliff down: a 1 MB device cannot hold two n×n float
  // matrices once n exceeds ~360.
  Device dev(DeviceProperties::tiny(1 << 20));
  const BandwidthGrid grid(0.01, 1.0, 8);
  const Dataset small = paper_data(128, 7);
  SpmdSelectorConfig cfg;  // float
  cfg.algorithm = SweepAlgorithm::kPerRowSort;  // the plan with the cliff
  EXPECT_NO_THROW(SpmdGridSelector(dev, cfg).select(small, grid));
  const Dataset big = paper_data(512, 8);
  EXPECT_THROW(SpmdGridSelector(dev, cfg).select(big, grid),
               kreg::spmd::DeviceAllocError);
}

TEST(SpmdSelector, StreamingModeLiftsTheLimit) {
  // The same over-limit problem succeeds in streaming mode (paper's stated
  // future work: drop the n×n matrices).
  Device dev(DeviceProperties::tiny(1 << 20));
  const BandwidthGrid grid(0.01, 1.0, 8);
  const Dataset big = paper_data(512, 9);
  SpmdSelectorConfig cfg;
  cfg.algorithm = SweepAlgorithm::kPerRowSort;
  cfg.streaming = true;
  EXPECT_NO_THROW(SpmdGridSelector(dev, cfg).select(big, grid));
}

// The paper's resident plan (auto_tune = false) uploads the whole grid:
// 2049 float bandwidths exceed the 8 KB constant working set. (The default
// auto plan streams past it in k-blocks of 2,048.)
TEST(SpmdSelector, ConstantCacheCapsBandwidthCount) {
  Device dev;
  const Dataset d = paper_data(64, 10);
  const BandwidthGrid grid(1e-4, 1.0, 2049);
  SpmdSelectorConfig cfg;
  cfg.stream.auto_tune = false;
  EXPECT_THROW(SpmdGridSelector(dev, cfg).select(d, grid),
               kreg::spmd::ConstantCapacityError);
}

TEST(SpmdSelector, DevicePrecisionHalvesConstantCapacity) {
  Device dev;
  const Dataset d = paper_data(64, 11);
  const BandwidthGrid grid(1e-4, 1.0, 1025);
  SpmdSelectorConfig cfg = double_cfg();
  cfg.stream.auto_tune = false;
  EXPECT_THROW(SpmdGridSelector(dev, cfg).select(d, grid),
               kreg::spmd::ConstantCapacityError);
}

TEST(SpmdSelector, MemoryIsReleasedAfterSelect) {
  Device dev;
  const Dataset d = paper_data(100, 12);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  (void)SpmdGridSelector(dev, double_cfg()).select(d, grid);
  EXPECT_EQ(dev.global_allocated(), 0u);
  EXPECT_GT(dev.global_peak(), 0u);
}

TEST(SpmdSelector, EstimatedBytesMatchesLedgerPeak) {
  Device dev;
  const Dataset d = paper_data(100, 13);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  SpmdSelectorConfig cfg = double_cfg();
  cfg.algorithm = SweepAlgorithm::kPerRowSort;
  (void)SpmdGridSelector(dev, cfg).select(d, grid);
  const std::size_t predicted = SpmdGridSelector::estimated_bytes(
      100, 10, Precision::kDouble, /*streaming=*/false,
      SweepAlgorithm::kPerRowSort);
  // Peak also includes the grid-reduction partials etc. if any; here the
  // faithful path allocates exactly the predicted set.
  EXPECT_EQ(dev.global_peak(), predicted);
}

TEST(SpmdSelector, WindowEstimatedBytesMatchesLedgerPeak) {
  Device dev;
  const Dataset d = paper_data(100, 13);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  (void)SpmdGridSelector(dev, double_cfg()).select(d, grid);  // window default
  const std::size_t predicted = SpmdGridSelector::estimated_bytes(
      100, 10, Precision::kDouble, /*streaming=*/false,
      SweepAlgorithm::kWindow);
  EXPECT_EQ(dev.global_peak(), predicted);
}

TEST(SpmdSelector, DefaultAlgorithmIsWindowAndMatchesPerRowSort) {
  // The flipped default (ROADMAP soak item): a default-constructed config
  // runs the window sweep, and on the paper's grid it picks the same
  // bandwidth as the paper-faithful per-row-sort path.
  SpmdSelectorConfig def;
  EXPECT_EQ(def.algorithm, SweepAlgorithm::kWindow);

  Device dev;
  const Dataset d = paper_data(300, 21);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  SpmdSelectorConfig window_cfg = double_cfg();
  SpmdSelectorConfig per_row_cfg = double_cfg();
  per_row_cfg.algorithm = SweepAlgorithm::kPerRowSort;
  const SelectionResult w = SpmdGridSelector(dev, window_cfg).select(d, grid);
  const SelectionResult p = SpmdGridSelector(dev, per_row_cfg).select(d, grid);
  EXPECT_DOUBLE_EQ(w.bandwidth, p.bandwidth);
  for (std::size_t b = 0; b < p.scores.size(); ++b) {
    EXPECT_NEAR(w.scores[b], p.scores[b], 1e-9 * std::max(1.0, p.scores[b]));
  }
}

TEST(SpmdSelector, EstimatedBytesPaperScale) {
  // At n = 20,000, k = 50, float: the two n×n matrices alone are 3.2 GB —
  // under the 4 GB ledger. At n = 25,000 they exceed it. This is the
  // paper's "cannot run at sample sizes greater than 20,000".
  const std::size_t cap = 4ULL * 1024 * 1024 * 1024;
  EXPECT_LT(SpmdGridSelector::estimated_bytes(20000, 50, Precision::kFloat,
                                              false),
            cap);
  EXPECT_GT(SpmdGridSelector::estimated_bytes(25000, 50, Precision::kFloat,
                                              false),
            cap);
  // Streaming removes the quadratic term entirely.
  EXPECT_LT(SpmdGridSelector::estimated_bytes(1000000, 50, Precision::kFloat,
                                              true),
            cap);
}

TEST(SpmdSelector, StatsShowMainKernelPlusReductions) {
  Device dev;
  const Dataset d = paper_data(100, 14);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  (void)SpmdGridSelector(dev, double_cfg()).select(d, grid);
  // The window sweep: one main kernel + the ordered score fold; no tree
  // reduction and no device argmin.
  EXPECT_EQ(dev.stats().kernel_launches, 1u + 1u);
  EXPECT_EQ(dev.stats().cooperative_launches, 0u);
}

TEST(SpmdSelector, PerRowStatsShowMainKernelPlusReductions) {
  Device dev;
  const Dataset d = paper_data(100, 14);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
  SpmdSelectorConfig cfg = double_cfg();
  cfg.algorithm = SweepAlgorithm::kPerRowSort;
  (void)SpmdGridSelector(dev, cfg).select(d, grid);
  EXPECT_EQ(dev.stats().kernel_launches, 1u);  // one main kernel
  // Program 4: the k sum reductions in one launch + 1 argmin.
  EXPECT_EQ(dev.stats().cooperative_launches, 1u + 1u);
}

TEST(SpmdSelector, SingleObservationDataset) {
  Device dev;
  Dataset d{{0.5}, {2.0}};
  const BandwidthGrid grid(0.1, 1.0, 4);
  const SelectionResult r = SpmdGridSelector(dev, double_cfg()).select(d, grid);
  for (double s : r.scores) {
    EXPECT_DOUBLE_EQ(s, 0.0);  // M(X_0) = 0 everywhere
  }
}

}  // namespace
