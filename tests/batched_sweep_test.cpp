// Tests for the batched window-sweep execution layer: the admission-window
// keys and the σ batch order perfbench's layer probe still uses,
// bitwise parity of the batched host profile with the scalar
// resident/tiled sweeps across ragged tails, precisions, kernels and
// streaming tilings — and the 8-lane device kernels against the scalar
// device kernels on uniform and clustered X. The LaneKernelParity tests
// hold both lane kernels (generic and AVX-512) to the scalar resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/detail/batched_lanes.hpp"
#include "core/detail/device_sweep.hpp"
#include "core/grid.hpp"
#include "core/multi_device_selector.hpp"
#include "core/spmd_selector.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::HostTiling;
using kreg::KernelType;
using kreg::MultiDeviceGridSelector;
using kreg::Precision;
using kreg::ResidualLayout;
using kreg::BatchRunStats;
using kreg::SelectionResult;
using kreg::SigmaPolicy;
using kreg::SpmdGridSelector;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

/// X uniform on [0, 1], or clustered — four tight clusters on a 1e-4
/// lattice, so exact duplicates (distance 0) occur too.
Dataset lane_dataset(bool clustered, std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  Dataset d;
  d.x.resize(n);
  d.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    d.x[i] = clustered ? 0.25 * static_cast<double>(s.index(4)) +
                             std::round(s.gaussian(0.0, 0.01) * 1e4) / 1e4
                       : s.uniform();
    d.y[i] = std::sin(6.0 * d.x[i]) + s.gaussian(0.0, 0.3);
  }
  return d;
}

std::vector<double> test_grid(std::size_t k = 24) {
  return BandwidthGrid(0.05, 1.2, k).values();
}

void expect_bitwise_profiles(const std::vector<double>& got,
                             const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_DOUBLE_EQ(got[b], want[b]) << "b=" << b;
  }
}

// --- admission_window_lengths ----------------------------------------------

TEST(AdmissionWindowLengths, MatchesBruteForceCount) {
  const Dataset data = paper_data(257, 11);
  const auto sorted = kreg::sort_dataset<double>(data.x, data.y);
  const double h_max = 0.9;
  const std::vector<std::size_t> lengths =
      kreg::admission_window_lengths<double>(sorted.x, h_max);
  ASSERT_EQ(lengths.size(), sorted.x.size());
  for (std::size_t i = 0; i < sorted.x.size(); ++i) {
    std::size_t count = 0;
    for (double xl : sorted.x) {
      const double d = xl < sorted.x[i] ? sorted.x[i] - xl : xl - sorted.x[i];
      if (d <= h_max) {
        ++count;
      }
    }
    EXPECT_EQ(lengths[i], count) << "i=" << i;
  }
}

TEST(AdmissionWindowLengths, FloatUsesFloatPredicate) {
  const Dataset data = paper_data(129, 7);
  const auto sorted = kreg::sort_dataset<float>(data.x, data.y);
  const float h_max = 0.5f;
  const std::vector<std::size_t> lengths =
      kreg::admission_window_lengths<float>(sorted.x, h_max);
  ASSERT_EQ(lengths.size(), sorted.x.size());
  for (std::size_t i = 0; i < sorted.x.size(); ++i) {
    std::size_t count = 0;
    for (float xl : sorted.x) {
      const float d = xl < sorted.x[i] ? sorted.x[i] - xl : xl - sorted.x[i];
      if (d <= h_max) {
        ++count;
      }
    }
    EXPECT_EQ(lengths[i], count) << "i=" << i;
  }
}

// --- sigma_batch_order -----------------------------------------------------
//
// With every lo in one position bucket, the two-key order reduces to its
// secondary key: window length, descending and stable.

std::vector<std::uint32_t> length_order(const std::vector<std::size_t>& lengths,
                                        std::size_t begin, std::size_t end,
                                        std::size_t scope) {
  const std::vector<std::size_t> los(lengths.size(), 0);
  return kreg::sigma_batch_order(lengths, los, begin, end, scope,
                                 SigmaPolicy::kPositionLength, 8);
}

TEST(SigmaBatchOrder, IdentityWhenSortDisabled) {
  const std::vector<std::size_t> lengths = {5, 1, 9, 3, 7};
  const auto order =
      kreg::sigma_batch_order(lengths, {}, 0, 5, 0, SigmaPolicy::kNone, 8);
  ASSERT_EQ(order.size(), 5u);
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(order[r], r);
  }
}

TEST(SigmaBatchOrder, SortsDescendingStableWithinScope) {
  const std::vector<std::size_t> lengths = {5, 1, 9, 5, 7};
  const auto order = length_order(lengths, 0, 5, 0);
  // Descending by length; ties (the two 5s) keep original order.
  const std::vector<std::uint32_t> want = {2, 4, 0, 3, 1};
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(order[r], want[r]) << "r=" << r;
  }
}

TEST(SigmaBatchOrder, ScopesSortIndependently) {
  const std::vector<std::size_t> lengths = {1, 9, 5, 2, 8, 3};
  // scope = 3: {1,9,5} and {2,8,3} sort independently.
  const auto order = length_order(lengths, 0, 6, 3);
  const std::vector<std::uint32_t> want = {1, 2, 0, 4, 5, 3};
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(order[r], want[r]) << "r=" << r;
  }
}

TEST(SigmaBatchOrder, RespectsBeginOffsetAndIsAPermutation) {
  const std::vector<std::size_t> lengths = {0, 0, 4, 6, 5, 2};
  const auto order = length_order(lengths, 2, 6, 0);
  ASSERT_EQ(order.size(), 4u);
  // Relative to begin = 2: lengths {4,6,5,2} → order {1,2,0,3}.
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_EQ(order[3], 3u);
  std::vector<std::uint32_t> sorted_order(order.begin(), order.end());
  std::sort(sorted_order.begin(), sorted_order.end());
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(sorted_order[r], r);
  }
}

// --- sigma_batch_order: two-key (position, length) policy --------------------

TEST(SigmaBatchOrderTwoKey, PolicyNoneIsIdentityAndIgnoresKeys) {
  const std::vector<std::size_t> lengths = {5, 1, 9, 3, 7};
  const std::vector<std::size_t> los = {40, 0, 20, 10, 30};
  const auto order = kreg::sigma_batch_order(lengths, los, 0, 5, 0,
                                             SigmaPolicy::kNone, 8);
  ASSERT_EQ(order.size(), 5u);
  for (std::uint32_t r = 0; r < 5; ++r) {
    EXPECT_EQ(order[r], r);
  }
}

TEST(SigmaBatchOrderTwoKey, PrimarySortsByPositionBucketAscending) {
  // Buckets of width 8: lo 17 → bucket 2, lo 9 → 1, lo 0 → 0, lo 25 → 3.
  const std::vector<std::size_t> lengths = {4, 4, 4, 4};
  const std::vector<std::size_t> los = {17, 9, 0, 25};
  const auto order = kreg::sigma_batch_order(
      lengths, los, 0, 4, 0, SigmaPolicy::kPositionLength, 8);
  const std::vector<std::uint32_t> want = {2, 1, 0, 3};
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(order[r], want[r]) << "r=" << r;
  }
}

TEST(SigmaBatchOrderTwoKey, SecondaryLengthDescendingWithinBucket) {
  // All four lo values land in bucket 0 (width 16) → pure length order.
  const std::vector<std::size_t> lengths = {5, 9, 1, 7};
  const std::vector<std::size_t> los = {3, 0, 15, 8};
  const auto order = kreg::sigma_batch_order(
      lengths, los, 0, 4, 0, SigmaPolicy::kPositionLength, 16);
  const std::vector<std::uint32_t> want = {1, 3, 0, 2};
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(order[r], want[r]) << "r=" << r;
  }
}

TEST(SigmaBatchOrderTwoKey, StableOnFullKeyTiesAndRespectsScopes) {
  // Rows 0/2/4 tie on (bucket 0, length 6): original order must survive.
  const std::vector<std::size_t> lengths = {6, 2, 6, 8, 6, 3};
  const std::vector<std::size_t> los = {1, 3, 2, 0, 5, 4};
  const auto order = kreg::sigma_batch_order(
      lengths, los, 0, 6, 0, SigmaPolicy::kPositionLength, 8);
  const std::vector<std::uint32_t> want = {3, 0, 2, 4, 5, 1};
  ASSERT_EQ(order.size(), want.size());
  for (std::size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(order[r], want[r]) << "r=" << r;
  }
  // scope = 3: {6,2,6} with lo {1,3,2} and {8,6,3} with lo {0,5,4} sort
  // independently (one bucket each → length order, stable).
  const auto scoped = kreg::sigma_batch_order(
      lengths, los, 0, 6, 3, SigmaPolicy::kPositionLength, 8);
  const std::vector<std::uint32_t> want_scoped = {0, 2, 1, 3, 4, 5};
  ASSERT_EQ(scoped.size(), want_scoped.size());
  for (std::size_t r = 0; r < want_scoped.size(); ++r) {
    EXPECT_EQ(scoped[r], want_scoped[r]) << "r=" << r;
  }
}

TEST(SigmaBatchOrderTwoKey, PositionLengthRequiresLoCoverage) {
  const std::vector<std::size_t> lengths = {5, 1, 9};
  const std::vector<std::size_t> los = {0, 1};  // too short for end = 3
  EXPECT_THROW(kreg::sigma_batch_order(lengths, los, 0, 3, 0,
                                       SigmaPolicy::kPositionLength, 8),
               std::invalid_argument);
}

// --- admission_windows -------------------------------------------------------

TEST(AdmissionWindowsTest, LoAndLengthMatchBruteForce) {
  const Dataset data = paper_data(193, 19);
  const auto sorted = kreg::sort_dataset<double>(data.x, data.y);
  const double h_max = 0.7;
  const kreg::AdmissionWindows win = kreg::admission_windows<double>(
      std::span<const double>(sorted.x), h_max);
  ASSERT_EQ(win.lo.size(), sorted.x.size());
  ASSERT_EQ(win.length.size(), sorted.x.size());
  for (std::size_t i = 0; i < sorted.x.size(); ++i) {
    std::size_t lo = i;
    while (lo > 0 && sorted.x[i] - sorted.x[lo - 1] <= h_max) {
      --lo;
    }
    std::size_t hi = i;
    while (hi + 1 < sorted.x.size() && sorted.x[hi + 1] - sorted.x[i] <= h_max) {
      ++hi;
    }
    EXPECT_EQ(win.lo[i], lo) << "i=" << i;
    EXPECT_EQ(win.length[i], hi - lo + 1) << "i=" << i;
  }
}

// --- host batched profile: bitwise parity ----------------------------------

// One tile covering the dataset ⇒ the batched profile must equal the
// sequential scalar profile bit for bit, including ragged tails
// (n mod 8 ≠ 0), on uniform and clustered X.
TEST(BatchedHostProfile, BitwiseEqualsScalarSingleTile) {
  const std::vector<double> grid = test_grid();
  for (const bool clustered : {false, true}) {
    for (const std::size_t n : {64u, 203u, 517u}) {
      const Dataset data = clustered ? lane_dataset(true, n, 42 + n)
                                     : paper_data(n, 42 + n);
      const std::vector<double> want = kreg::window_cv_profile(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble);
      HostTiling one_tile;
      one_tile.n_block = n;  // single tile: matches profile_sequential order
      const std::vector<double> got = kreg::window_cv_profile_batched(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble,
          one_tile);
      SCOPED_TRACE("n=" + std::to_string(n) +
                   (clustered ? " clustered X" : " uniform X"));
      expect_bitwise_profiles(got, want);
    }
  }
}

TEST(BatchedHostProfile, BitwiseEqualsScalarFloat) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(301, 5);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kEpanechnikov, Precision::kFloat);
  HostTiling one_tile;
  one_tile.n_block = 301;
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kEpanechnikov, Precision::kFloat, one_tile);
  expect_bitwise_profiles(got, want);
}

// Same tiling ⇒ the batched profile must equal the scalar *tiled* profile
// bit for bit: batching is a pure scheduling change inside each tile.
TEST(BatchedHostProfile, BitwiseEqualsTiledUnderStreamingTilings) {
  const std::vector<double> grid = test_grid(37);
  const Dataset data = paper_data(411, 9);
  for (const std::size_t n_block : {64u, 128u}) {
    for (const std::size_t k_block : {8u, 16u, 37u}) {
      HostTiling tiling;
      tiling.n_block = n_block;
      tiling.k_block = k_block;
      const std::vector<double> want = kreg::window_cv_profile_tiled(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble, tiling);
      const std::vector<double> got = kreg::window_cv_profile_batched(
          data, grid, KernelType::kEpanechnikov, Precision::kDouble, tiling);
      SCOPED_TRACE("n_block=" + std::to_string(n_block) +
                   " k_block=" + std::to_string(k_block));
      expect_bitwise_profiles(got, want);
    }
  }
}

// The quartic kernel exercises the higher moment terms (m up to 4).
TEST(BatchedHostProfile, BitwiseParityTriweightKernel) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(222, 13);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kTriweight, Precision::kDouble);
  HostTiling one_tile;
  one_tile.n_block = 222;
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kTriweight, Precision::kDouble, one_tile);
  expect_bitwise_profiles(got, want);
}

// Tiny samples stress the batch machinery's edges: n < 8 (one batch with
// padding lanes), n = 8 (exactly one full batch), and n = 8 + 1 (a
// one-lane ragged tail) — for both precisions, where the contiguous-run
// detector sees windows pinned against both array edges.
TEST(BatchedHostProfile, TinyNBitwiseParity) {
  const std::vector<double> grid = test_grid(16);
  for (const std::size_t n : {5u, 8u, 9u, 16u, 17u}) {
    const Dataset data = paper_data(n, 100 + n);
    HostTiling one_tile;
    one_tile.n_block = n;
    for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
      const std::vector<double> want =
          kreg::window_cv_profile(data, grid, KernelType::kEpanechnikov,
                                  precision);
      BatchRunStats stats;
      const std::vector<double> got = kreg::window_cv_profile_batched(
          data, grid, KernelType::kEpanechnikov, precision, one_tile,
          nullptr, &stats);
      SCOPED_TRACE("n=" + std::to_string(n) + " float=" +
                   std::to_string(precision == Precision::kFloat));
      expect_bitwise_profiles(got, want);
      EXPECT_GE(stats.contig_rate(), 0.0);
      EXPECT_LE(stats.contig_rate(), 1.0);
    }
  }
}

// A batch's lanes are consecutive sorted observations and admit from
// overlapping index ranges, so the contiguous-run transpose path must
// actually fire — and firing must not perturb a single bit of the profile.
TEST(BatchedHostProfile, ContigFastPathFiresAndStaysBitwise) {
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(1024, 77);
  const std::vector<double> want = kreg::window_cv_profile(
      data, grid, KernelType::kEpanechnikov, Precision::kDouble);
  HostTiling one_tile;
  one_tile.n_block = 1024;
  BatchRunStats stats;
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kEpanechnikov, Precision::kDouble, one_tile,
      nullptr, &stats);
  expect_bitwise_profiles(got, want);
  EXPECT_GT(stats.contig_steps, 0u);
  EXPECT_GT(stats.contig_steps + stats.gather_steps, 0u);
  EXPECT_GE(stats.contig_rate(), 0.0);
  EXPECT_LE(stats.contig_rate(), 1.0);
}

TEST(BatchedHostProfile, DefaultsMatchTiledDefaults) {
  // Default tiling must equal the default scalar tiled profile — batched is
  // the default host backend.
  const std::vector<double> grid = test_grid();
  const Dataset data = paper_data(3000, 21);
  const std::vector<double> want = kreg::window_cv_profile_tiled(
      data, grid, KernelType::kEpanechnikov, Precision::kDouble);
  const std::vector<double> got = kreg::window_cv_profile_batched(
      data, grid, KernelType::kEpanechnikov);
  expect_bitwise_profiles(got, want);
}

TEST(BatchedHostProfile, RejectsBadGrid) {
  const Dataset data = paper_data(32, 3);
  const std::vector<double> bad_grid = {0.5, 0.5, 0.6};
  EXPECT_THROW(kreg::window_cv_profile_batched(data, bad_grid,
                                               KernelType::kEpanechnikov),
               std::invalid_argument);
}

// --- device batched kernels: bitwise parity --------------------------------

SpmdSelectorConfig device_cfg(std::size_t lane_width,
                              Precision precision = Precision::kDouble) {
  SpmdSelectorConfig cfg;
  cfg.precision = precision;
  cfg.lane_width = lane_width;
  cfg.stream.auto_tune = false;  // pin the resident path unless overridden
  return cfg;
}

void expect_same_selection(const SelectionResult& got,
                           const SelectionResult& want) {
  EXPECT_DOUBLE_EQ(got.bandwidth, want.bandwidth);
  EXPECT_DOUBLE_EQ(got.cv_score, want.cv_score);
  ASSERT_EQ(got.scores.size(), want.scores.size());
  for (std::size_t b = 0; b < want.scores.size(); ++b) {
    EXPECT_DOUBLE_EQ(got.scores[b], want.scores[b]) << "b=" << b;
  }
}

// n = 700 with tpb = 512 gives a full block plus a ragged 188-row block, so
// the lane batch exercises a ragged tail dispatch.
TEST(SpmdBatchedParity, ResidentBitwiseUniformAndClusteredX) {
  const BandwidthGrid grid(0.05, 1.2, 32);
  Device dev;
  for (const bool clustered : {false, true}) {
    const Dataset data =
        clustered ? lane_dataset(true, 700, 31) : paper_data(700, 31);
    const SelectionResult want =
        SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
    const SelectionResult got =
        SpmdGridSelector(dev, device_cfg(8)).select(data, grid);
    SCOPED_TRACE(clustered ? "clustered X" : "uniform X");
    expect_same_selection(got, want);
  }
}

TEST(SpmdBatchedParity, ResidentBitwiseObservationMajorAndFloat) {
  const Dataset data = paper_data(451, 17);
  const BandwidthGrid grid(0.05, 1.2, 24);
  Device dev;
  for (const Precision precision : {Precision::kFloat, Precision::kDouble}) {
    SpmdSelectorConfig scalar = device_cfg(1, precision);
    scalar.layout = ResidualLayout::kObservationMajor;
    const SelectionResult want =
        SpmdGridSelector(dev, scalar).select(data, grid);
    SpmdSelectorConfig batched = device_cfg(8, precision);
    batched.layout = ResidualLayout::kObservationMajor;
    const SelectionResult got =
        SpmdGridSelector(dev, batched).select(data, grid);
    expect_same_selection(got, want);
  }
}

// Both forms of the carried pass — the lane batch and the scalar
// kernels — must resume across k-blocks to the resident bits.
TEST(SpmdBatchedParity, StreamedKblockBitwise) {
  const Dataset data = paper_data(600, 23);
  const BandwidthGrid grid(0.05, 1.2, 40);
  Device dev;
  const SelectionResult resident =
      SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {1u, 8u}) {
    SpmdSelectorConfig cfg = device_cfg(width);
    cfg.stream.k_block = 8;
    const SelectionResult got = SpmdGridSelector(dev, cfg).select(data, grid);
    SCOPED_TRACE("lane_width=" + std::to_string(width));
    expect_same_selection(got, resident);
  }
}

TEST(SpmdBatchedParity, Streamed2DTileBitwise) {
  const Dataset data = paper_data(531, 29);
  const BandwidthGrid grid(0.05, 1.2, 32);
  Device dev;
  const SelectionResult resident =
      SpmdGridSelector(dev, device_cfg(1)).select(data, grid);
  for (const std::size_t width : {1u, 8u}) {
    SpmdSelectorConfig cfg = device_cfg(width);
    cfg.stream.k_block = 8;
    cfg.stream.n_block = 96;
    const SelectionResult got = SpmdGridSelector(dev, cfg).select(data, grid);
    SCOPED_TRACE("lane_width=" + std::to_string(width));
    expect_same_selection(got, resident);
  }
}

TEST(SpmdBatchedParity, NameReportsLanes) {
  Device dev;
  const std::string batched = SpmdGridSelector(dev, device_cfg(8)).name();
  EXPECT_NE(batched.find("lanes=8"), std::string::npos) << batched;
  const std::string scalar = SpmdGridSelector(dev, device_cfg(1)).name();
  EXPECT_EQ(scalar.find("lanes"), std::string::npos) << scalar;
}

TEST(SpmdBatchedParity, CtorRejectsBadLaneWidth) {
  Device dev;
  for (const std::size_t width : {0u, 2u, 4u, 16u}) {
    SCOPED_TRACE("lane_width=" + std::to_string(width));
    EXPECT_THROW(SpmdGridSelector(dev, device_cfg(width)),
                 std::invalid_argument);
    EXPECT_THROW(MultiDeviceGridSelector({&dev}, device_cfg(width)),
                 std::invalid_argument);
  }
  for (const std::size_t width : {1u, 8u}) {
    EXPECT_NO_THROW(SpmdGridSelector(dev, device_cfg(width)));
    EXPECT_NO_THROW(MultiDeviceGridSelector({&dev}, device_cfg(width)));
  }
}

TEST(MultiDeviceBatchedParity, ResidentAndStreamedBitwise) {
  const Dataset data = paper_data(640, 37);
  const BandwidthGrid grid(0.05, 1.2, 24);
  Device dev1;
  Device dev2;
  const std::vector<Device*> devices = {&dev1, &dev2};
  const SelectionResult want =
      MultiDeviceGridSelector(devices, device_cfg(1)).select(data, grid);
  const SelectionResult resident =
      MultiDeviceGridSelector(devices, device_cfg(8)).select(data, grid);
  expect_same_selection(resident, want);
  // Slice-resident k-blocks, then both streaming dimensions on each
  // device slice, in both forms of the pass.
  for (const std::size_t width : {1u, 8u}) {
    for (const std::size_t n_block : {0u, 64u}) {
      SpmdSelectorConfig streamed = device_cfg(width);
      streamed.stream.k_block = 8;
      streamed.stream.n_block = n_block;
      const SelectionResult got =
          MultiDeviceGridSelector(devices, streamed).select(data, grid);
      SCOPED_TRACE("lane_width=" + std::to_string(width) +
                   " n_block=" + std::to_string(n_block));
      expect_same_selection(got, want);
    }
  }
}

// --- lane kernels against the scalar resume ----------------------------------
//
// batch_resume picks one kernel per machine, so the profile suites above
// cover only that one. These tests call the generic lanes and the AVX-512
// kernel directly and hold each against window_sweep_resume, lane by lane.

enum class LaneKernel { kGeneric, kAvx512 };

/// lane_dataset, sorted in Scalar.
template <class Scalar>
kreg::SortedDataset<Scalar> lane_data(bool clustered, std::size_t n,
                                      std::uint64_t seed) {
  const Dataset d = lane_dataset(clustered, n, seed);
  return kreg::sort_dataset<Scalar>(d.x, d.y);
}

template <class Scalar>
auto bits(Scalar v) {
  if constexpr (sizeof(Scalar) == 8) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return std::bit_cast<std::uint32_t>(v);
  }
}

/// Runs one lane kernel over every observation of a sorted dataset — in
/// 8-lane batches, the first half of the positions in order and the rest
/// shuffled (so both contiguous runs and gathers occur), with a ragged last
/// batch — across two k-block slices resumed through batch_load/batch_store.
/// Every residual and the carried lo/hi/moment state after each slice must
/// equal window_sweep_resume's bit for bit, and both phase-2 step counters
/// must fire.
template <class Scalar>
void expect_lane_kernel_matches_scalar(LaneKernel which, KernelType kernel,
                                       bool clustered) {
  constexpr std::size_t C = kreg::kLaneWidth;
  constexpr std::size_t n = 203;  // ragged last batch
  const kreg::SortedDataset<Scalar> sorted =
      lane_data<Scalar>(clustered, n, 5);
  const std::span<const Scalar> xs(sorted.x);
  const std::span<const Scalar> ys(sorted.y);
  const std::vector<double> grid_d = BandwidthGrid(0.002, 0.4, 12).values();
  const std::vector<Scalar> grid(grid_d.begin(), grid_d.end());
  const std::size_t k = grid.size();
  const std::size_t slices[] = {0, 5, k};
  const kreg::SweepPolynomial poly = kreg::sweep_polynomial(kernel);
  const std::size_t terms = poly.max_power + 1;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin() + n / 2, order.end(), std::mt19937(11));

  // Scalar reference and lane-batched state, side by side.
  std::vector<std::size_t> ref_lo(n), ref_hi(n), lo(n), hi(n);
  std::vector<Scalar> ref_sm(n * terms), ref_tm(n * terms);
  std::vector<Scalar> sm(n * terms), tm(n * terms);
  std::vector<Scalar> want(n * k), got(n * k);
  for (std::size_t p = 0; p < n; ++p) {
    kreg::detail::window_sweep_seed<Scalar>(
        ys, p, ref_lo[p], ref_hi[p],
        std::span<Scalar>(ref_sm.data() + p * terms, terms),
        std::span<Scalar>(ref_tm.data() + p * terms, terms));
  }

  BatchRunStats stats;
  for (std::size_t slice = 0; slice + 1 < std::size(slices); ++slice) {
    const std::size_t b0 = slices[slice];
    const std::span<const Scalar> hs(grid.data() + b0, slices[slice + 1] - b0);
    for (std::size_t p = 0; p < n; ++p) {
      kreg::detail::window_sweep_resume<Scalar>(
          xs, ys, hs, poly, p, ref_lo[p], ref_hi[p],
          std::span<Scalar>(ref_sm.data() + p * terms, terms),
          std::span<Scalar>(ref_tm.data() + p * terms, terms),
          [&](std::size_t b, Scalar sq) { want[p * k + b0 + b] = sq; });
    }
    for (std::size_t g = 0; g < n; g += C) {
      kreg::detail::LaneBatch<Scalar> st;
      st.lanes = std::min(C, n - g);
      for (std::size_t l = 0; l < st.lanes; ++l) {
        st.pos[l] = order[g + l];
      }
      const auto key = [&st](std::size_t l) { return st.pos[l]; };
      if (slice == 0) {
        kreg::detail::batch_seed(st, xs, ys);
      } else {
        kreg::detail::batch_load(st, xs, ys, std::span(lo), std::span(hi),
                                 std::span(sm), std::span(tm), terms, key);
      }
      const auto write = [&](std::size_t b, std::size_t l, Scalar sq) {
        got[st.pos[l] * k + b0 + b] = sq;
      };
      if (which == LaneKernel::kGeneric) {
        kreg::detail::batch_resume_generic(st, xs, ys, hs, poly, write,
                                           &stats);
      } else {
#if KREG_HAVE_BATCHED_AVX512
        ASSERT_TRUE(kreg::detail::batch_resume_avx512(st, xs, ys, hs, poly,
                                                      write, &stats));
#endif
      }
      kreg::detail::batch_store(st, std::span(lo), std::span(hi),
                                std::span(sm), std::span(tm), terms, key);
    }
    SCOPED_TRACE("after slice " + std::to_string(slice));
    EXPECT_EQ(lo, ref_lo);
    EXPECT_EQ(hi, ref_hi);
    for (std::size_t i = 0; i < n * terms; ++i) {
      ASSERT_EQ(bits(sm[i]), bits(ref_sm[i])) << "s_m, obs " << i / terms;
      ASSERT_EQ(bits(tm[i]), bits(ref_tm[i])) << "t_m, obs " << i / terms;
    }
  }
  for (std::size_t i = 0; i < n * k; ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << "obs " << i / k << ", b " << i % k;
  }
  EXPECT_GT(stats.contig_steps, 0u);
  EXPECT_GT(stats.gather_steps, 0u);
}

/// Every sweepable kernel (1, 2, 3, 5 and 7 terms) × uniform/clustered X,
/// for one precision.
template <class Scalar>
void expect_lane_kernel_matrix(LaneKernel which) {
  for (const KernelType kernel :
       {KernelType::kUniform, KernelType::kTriangular,
        KernelType::kEpanechnikov, KernelType::kBiweight,
        KernelType::kTriweight}) {
    for (const bool clustered : {false, true}) {
      SCOPED_TRACE(std::string(kreg::to_string(kernel)) +
                   (clustered ? ", clustered X" : ", uniform X"));
      expect_lane_kernel_matches_scalar<Scalar>(which, kernel, clustered);
    }
  }
}

TEST(LaneKernelParity, GenericLanesMatchScalarResumeBitwise) {
  expect_lane_kernel_matrix<double>(LaneKernel::kGeneric);
  expect_lane_kernel_matrix<float>(LaneKernel::kGeneric);
}

TEST(LaneKernelParity, Avx512KernelMatchesScalarResumeBitwise) {
#if KREG_HAVE_BATCHED_AVX512
  if (const char* missing = kreg::detail::avx512_lanes_missing_feature()) {
    GTEST_SKIP() << "this CPU lacks " << missing
                 << ", which the AVX-512 lane kernel needs";
  }
  expect_lane_kernel_matrix<double>(LaneKernel::kAvx512);
  expect_lane_kernel_matrix<float>(LaneKernel::kAvx512);
#else
  GTEST_SKIP() << "the AVX-512 lane kernel exists only in x86-64 builds";
#endif
}

// --- launch_lanes ----------------------------------------------------------

TEST(LaunchLanes, CoversEveryThreadOnceWithRaggedTail) {
  Device dev;
  const std::size_t blocks = 3;
  const std::size_t tpb = 10;
  const std::size_t lane_width = 4;
  const std::size_t per_block = 3;  // ceil(10 / 4): lanes 4, 4, 2
  std::vector<std::size_t> seen(blocks * tpb, 0);
  std::vector<std::size_t> lane_counts(blocks * per_block, 0);
  dev.launch_lanes("probe", kreg::spmd::LaunchConfig{blocks, tpb}, lane_width,
                   [&](const kreg::spmd::LaneCtx& t) {
    lane_counts[t.block_idx * per_block + t.base / lane_width] = t.lanes;
    for (std::size_t l = 0; l < t.lanes; ++l) {
      seen[t.global_base() + l] += 1;
    }
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1u) << "thread " << i;
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(lane_counts[b * per_block + 0], 4u);
    EXPECT_EQ(lane_counts[b * per_block + 1], 4u);
    EXPECT_EQ(lane_counts[b * per_block + 2], 2u);
  }
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().blocks_executed, blocks);
  EXPECT_EQ(dev.stats().threads_executed, blocks * tpb);
  EXPECT_EQ(dev.stats().lane_dispatches, blocks * per_block);
}

TEST(LaunchLanes, ZeroLaneWidthThrows) {
  Device dev;
  EXPECT_THROW(
      dev.launch_lanes("bad", kreg::spmd::LaunchConfig{1, 8}, 0,
                       [](const kreg::spmd::LaneCtx&) {}),
      kreg::spmd::LaunchConfigError);
}

}  // namespace
