// Tests for the sorted-sweep KDE LSCV: agreement with the direct O(k·n²)
// criterion, parallel determinism, and selection equivalence.
#include <gtest/gtest.h>

#include <cmath>

#include "core/grid.hpp"
#include "core/kde.hpp"
#include "core/kde_sweep.hpp"
#include "rng/stream.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::rng::Stream;

std::vector<double> sample(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  std::vector<double> xs(n);
  for (auto& x : xs) {
    x = s.uniform() < 0.5 ? s.gaussian(-1.0, 0.4) : s.gaussian(1.0, 0.6);
  }
  return xs;
}

class KdeSweepKernelTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(KdeSweepKernelTest, ProfileMatchesDirectLscv) {
  const KernelType kernel = GetParam();
  const std::vector<double> xs = sample(250, 61);
  const BandwidthGrid grid(0.05, 2.0, 30);
  const auto swept = kreg::kde_sweep_lscv_profile(xs, grid.values(), kernel);
  ASSERT_EQ(swept.size(), grid.size());
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double direct = kreg::kde_lscv_score(xs, grid[b], kernel);
    ASSERT_NEAR(swept[b], direct, 1e-10 * std::max(1.0, std::abs(direct)))
        << to_string(kernel) << " h=" << grid[b];
  }
}

INSTANTIATE_TEST_SUITE_P(SweepableKernels, KdeSweepKernelTest,
                         ::testing::Values(KernelType::kEpanechnikov,
                                           KernelType::kUniform),
                         [](const auto& suite_info) {
                           return std::string(kreg::to_string(suite_info.param));
                         });

TEST(KdeSweep, ParallelMatchesSequential) {
  const std::vector<double> xs = sample(400, 62);
  const BandwidthGrid grid(0.05, 1.5, 40);
  const auto seq = kreg::kde_sweep_lscv_profile(xs, grid.values(),
                                                KernelType::kEpanechnikov);
  const auto par = kreg::kde_sweep_lscv_profile_parallel(
      xs, grid.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(par[b], seq[b], 1e-11 * std::max(1.0, std::abs(seq[b])));
  }
}

TEST(KdeSweep, SelectionMatchesDirectGridSelect) {
  const std::vector<double> xs = sample(300, 63);
  const BandwidthGrid grid(0.05, 1.5, 25);
  const auto direct = kreg::kde_select_grid(xs, grid);
  const auto swept = kreg::kde_select_sweep(xs, grid);
  EXPECT_DOUBLE_EQ(swept.bandwidth, direct.bandwidth);
  EXPECT_NEAR(swept.cv_score, direct.cv_score,
              1e-10 * std::max(1.0, std::abs(direct.cv_score)));
}

TEST(KdeSweep, RejectsUnsupportedKernels) {
  const std::vector<double> xs = sample(50, 64);
  const BandwidthGrid grid(0.1, 1.0, 5);
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular,
        KernelType::kBiweight, KernelType::kCosine}) {
    EXPECT_FALSE(kreg::is_kde_sweepable(kernel));
    EXPECT_THROW(kreg::kde_sweep_lscv_profile(xs, grid.values(), kernel),
                 std::invalid_argument);
  }
}

TEST(KdeSweep, RejectsBadInputs) {
  const std::vector<double> one = {0.5};
  const BandwidthGrid grid(0.1, 1.0, 5);
  EXPECT_THROW(kreg::kde_sweep_lscv_profile(one, grid.values(),
                                            KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> xs = sample(20, 65);
  const std::vector<double> descending = {0.5, 0.1};
  EXPECT_THROW(
      kreg::kde_sweep_lscv_profile(xs, descending, KernelType::kEpanechnikov),
      std::invalid_argument);
}

TEST(KdeSweep, DuplicatePointsHandled) {
  std::vector<double> xs = {0.5, 0.5, 0.5, 1.0, 1.5};
  const BandwidthGrid grid(0.2, 2.0, 8);
  const auto swept = kreg::kde_sweep_lscv_profile(xs, grid.values(),
                                                  KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double direct = kreg::kde_lscv_score(xs, grid[b]);
    EXPECT_NEAR(swept[b], direct, 1e-12);
  }
}

TEST(KdeSweep, WideGridCoversFullAdmission) {
  // At large h every pair is admitted in both sweeps; still must match.
  const std::vector<double> xs = sample(100, 66);
  const std::vector<double> grid = {0.1, 5.0, 50.0};
  const auto swept =
      kreg::kde_sweep_lscv_profile(xs, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double direct = kreg::kde_lscv_score(xs, grid[b]);
    EXPECT_NEAR(swept[b], direct, 1e-10 * std::max(1.0, std::abs(direct)));
  }
}

// ---- Window LSCV sweep (global sort + two-pointer windows) -----------------

class KdeWindowKernelTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(KdeWindowKernelTest, ProfileMatchesDirectLscv) {
  const KernelType kernel = GetParam();
  const std::vector<double> xs = sample(250, 71);
  const BandwidthGrid grid(0.05, 2.0, 30);
  const auto windowed =
      kreg::kde_window_lscv_profile(xs, grid.values(), kernel);
  ASSERT_EQ(windowed.size(), grid.size());
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double direct = kreg::kde_lscv_score(xs, grid[b], kernel);
    ASSERT_NEAR(windowed[b], direct, 1e-10 * std::max(1.0, std::abs(direct)))
        << to_string(kernel) << " h=" << grid[b];
  }
}

INSTANTIATE_TEST_SUITE_P(SweepableKernels, KdeWindowKernelTest,
                         ::testing::Values(KernelType::kEpanechnikov,
                                           KernelType::kUniform),
                         [](const auto& suite_info) {
                           return std::string(kreg::to_string(suite_info.param));
                         });

TEST(KdeWindow, MatchesPerRowSweepProfile) {
  const std::vector<double> xs = sample(400, 72);
  const BandwidthGrid grid(0.05, 1.5, 40);
  const auto per_row = kreg::kde_sweep_lscv_profile(xs, grid.values(),
                                                    KernelType::kEpanechnikov);
  const auto windowed = kreg::kde_window_lscv_profile(
      xs, grid.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(windowed[b], per_row[b],
                1e-11 * std::max(1.0, std::abs(per_row[b])));
  }
}

TEST(KdeWindow, SelectionMatchesSweepSelect) {
  const std::vector<double> xs = sample(300, 74);
  const BandwidthGrid grid(0.05, 1.5, 25);
  const auto swept = kreg::kde_select_sweep(xs, grid);
  const auto windowed = kreg::kde_select_window(xs, grid);
  EXPECT_DOUBLE_EQ(windowed.bandwidth, swept.bandwidth);
  EXPECT_NE(windowed.method.find("kde-lscv-window"), std::string::npos);
}

TEST(KdeWindow, DuplicatePointsAndWideGrid) {
  std::vector<double> xs = {0.5, 0.5, 0.5, 1.0, 1.5};
  const std::vector<double> grid = {0.2, 1.0, 5.0, 50.0};
  const auto windowed =
      kreg::kde_window_lscv_profile(xs, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double direct = kreg::kde_lscv_score(xs, grid[b]);
    EXPECT_NEAR(windowed[b], direct, 1e-12);
  }
}

TEST(KdeWindow, RejectsBadInputs) {
  const std::vector<double> one = {0.5};
  const BandwidthGrid grid(0.1, 1.0, 5);
  EXPECT_THROW(kreg::kde_window_lscv_profile(one, grid.values(),
                                             KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> xs = sample(20, 75);
  const std::vector<double> duplicate = {0.1, 0.1, 0.5};
  EXPECT_THROW(kreg::kde_window_lscv_profile(xs, duplicate,
                                             KernelType::kEpanechnikov),
               std::invalid_argument);
  EXPECT_THROW(kreg::kde_window_lscv_profile(xs, grid.values(),
                                             KernelType::kGaussian),
               std::invalid_argument);
}

}  // namespace
