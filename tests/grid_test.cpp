// Tests for the bandwidth grid: paper defaults, spacing, validation, the
// device constant-memory cap, and zooming — plus the shared grid
// validators every sweep front door calls (validate_bandwidth_grid and its
// neighbor-count analogue for the k-NN sweep).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/validate_grid.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"

namespace {

using kreg::BandwidthGrid;

TEST(BandwidthGrid, EvenSpacingWithEndpoints) {
  const BandwidthGrid g(0.1, 1.0, 10);
  ASSERT_EQ(g.size(), 10u);
  EXPECT_DOUBLE_EQ(g.min(), 0.1);
  EXPECT_DOUBLE_EQ(g.max(), 1.0);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_NEAR(g[i] - g[i - 1], 0.1, 1e-12);
  }
}

TEST(BandwidthGrid, SingleValueGridIsMax) {
  const BandwidthGrid g(0.2, 0.9, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0], 0.9);
}

TEST(BandwidthGrid, RejectsInvalidArguments) {
  EXPECT_THROW(BandwidthGrid(0.1, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(BandwidthGrid(0.0, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(BandwidthGrid(-0.5, 1.0, 5), std::invalid_argument);
  EXPECT_THROW(BandwidthGrid(2.0, 1.0, 5), std::invalid_argument);
}

TEST(BandwidthGrid, PaperDefaultSpansDomainOverKToDomain) {
  // Paper §IV: max = domain of X; min = domain / k. With X on [0,1] and
  // k = 50 the grid is {0.02, 0.04, ..., 1.0}.
  kreg::rng::Stream s(1);
  const auto data = kreg::data::paper_dgp(1000, s);
  const auto g = BandwidthGrid::default_for(data, 50);
  const double domain = data.x_domain();
  ASSERT_EQ(g.size(), 50u);
  EXPECT_NEAR(g.min(), domain / 50.0, 1e-12);
  EXPECT_NEAR(g.max(), domain, 1e-12);
  // Even spacing at domain/k steps.
  EXPECT_NEAR(g[1] - g[0], domain / 50.0, 1e-9);
}

TEST(BandwidthGrid, DefaultForDegenerateDomainThrows) {
  kreg::data::Dataset constant{{0.5, 0.5, 0.5}, {1.0, 2.0, 3.0}};
  EXPECT_THROW(BandwidthGrid::default_for(constant, 10), std::invalid_argument);
}

TEST(BandwidthGrid, DefaultForEmptyThrows) {
  kreg::data::Dataset empty;
  EXPECT_THROW(BandwidthGrid::default_for(empty, 10), std::invalid_argument);
}

TEST(BandwidthGrid, DeviceCapIsTwoThousandFortyEight) {
  EXPECT_EQ(kreg::kDeviceMaxBandwidths, 2048u);
  const BandwidthGrid fits(0.001, 1.0, 2048);
  EXPECT_TRUE(fits.fits_device());
  const BandwidthGrid too_big(0.001, 1.0, 2049);
  EXPECT_FALSE(too_big.fits_device());
}

TEST(BandwidthGrid, ZoomedProducesSubRange) {
  const BandwidthGrid g(0.1, 1.0, 10);
  const BandwidthGrid z = g.zoomed(0.3, 0.5, 5);
  EXPECT_EQ(z.size(), 5u);
  EXPECT_DOUBLE_EQ(z.min(), 0.3);
  EXPECT_DOUBLE_EQ(z.max(), 0.5);
}

TEST(BandwidthGrid, ValuesStrictlyIncreasing) {
  const BandwidthGrid g(1e-4, 2.0, 777);
  for (std::size_t i = 1; i < g.size(); ++i) {
    EXPECT_LT(g[i - 1], g[i]);
  }
}

TEST(BandwidthGrid, RejectsDegenerateSpacing) {
  // k so large the step underflows the range: consecutive values collide,
  // which would silently break the incremental sweeps' two-pointer logic.
  EXPECT_THROW(BandwidthGrid(1.0, 1.0 + 1e-13, 1000), std::invalid_argument);
  // A single-value grid over the same degenerate range is fine: {max}.
  EXPECT_NO_THROW(BandwidthGrid(1.0, 1.0 + 1e-13, 1));
}

TEST(ValidateBandwidthGrid, AcceptsAscendingPositive) {
  const std::vector<double> strict = {0.1, 0.2, 0.5};
  EXPECT_NO_THROW(kreg::validate_bandwidth_grid(strict, "test"));
  // Non-strict mode (the multivariate ray's scale multipliers) tolerates
  // duplicates; strict mode rejects them.
  const std::vector<double> ties = {0.1, 0.1, 0.5};
  EXPECT_NO_THROW(
      kreg::validate_bandwidth_grid(ties, "test", /*strict=*/false));
  EXPECT_THROW(kreg::validate_bandwidth_grid(ties, "test"),
               std::invalid_argument);
}

TEST(ValidateBandwidthGrid, RejectsEmptyNonPositiveAndDescending) {
  EXPECT_THROW(kreg::validate_bandwidth_grid({}, "test"),
               std::invalid_argument);
  const std::vector<double> zero = {0.0, 0.5};
  EXPECT_THROW(kreg::validate_bandwidth_grid(zero, "test"),
               std::invalid_argument);
  const std::vector<double> negative = {-0.2, 0.5};
  EXPECT_THROW(kreg::validate_bandwidth_grid(negative, "test"),
               std::invalid_argument);
  const std::vector<double> descending = {0.5, 0.2};
  EXPECT_THROW(kreg::validate_bandwidth_grid(descending, "test"),
               std::invalid_argument);
  EXPECT_THROW(
      kreg::validate_bandwidth_grid(descending, "test", /*strict=*/false),
      std::invalid_argument);
}

TEST(ValidateBandwidthGrid, ErrorCarriesContext) {
  try {
    kreg::validate_bandwidth_grid({}, "window_cv_profile");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("window_cv_profile"),
              std::string::npos);
  }
}

TEST(ValidateNeighborGrid, AcceptsFullRange) {
  const std::vector<std::size_t> grid = {1, 2, 5, 9};
  EXPECT_NO_THROW(kreg::validate_neighbor_grid(grid, 10, "test"));
  // The extremes: a single k = 1, and k = n - 1 exactly.
  const std::vector<std::size_t> one = {1};
  EXPECT_NO_THROW(kreg::validate_neighbor_grid(one, 2, "test"));
  const std::vector<std::size_t> edge = {9};
  EXPECT_NO_THROW(kreg::validate_neighbor_grid(edge, 10, "test"));
}

TEST(ValidateNeighborGrid, RejectsEmptyZeroAndNonIncreasing) {
  EXPECT_THROW(kreg::validate_neighbor_grid({}, 10, "test"),
               std::invalid_argument);
  const std::vector<std::size_t> zero = {0, 3};
  EXPECT_THROW(kreg::validate_neighbor_grid(zero, 10, "test"),
               std::invalid_argument);
  const std::vector<std::size_t> ties = {2, 2};
  EXPECT_THROW(kreg::validate_neighbor_grid(ties, 10, "test"),
               std::invalid_argument);
  const std::vector<std::size_t> descending = {5, 3};
  EXPECT_THROW(kreg::validate_neighbor_grid(descending, 10, "test"),
               std::invalid_argument);
}

TEST(ValidateNeighborGrid, RejectsCountsBeyondLeaveOneOut) {
  // k = n has no leave-one-out meaning: only n - 1 neighbours exist.
  const std::vector<std::size_t> full = {10};
  EXPECT_THROW(kreg::validate_neighbor_grid(full, 10, "test"),
               std::invalid_argument);
  // n < 2 leaves no neighbours at all, whatever the grid says.
  const std::vector<std::size_t> one = {1};
  EXPECT_THROW(kreg::validate_neighbor_grid(one, 1, "test"),
               std::invalid_argument);
  EXPECT_THROW(kreg::validate_neighbor_grid(one, 0, "test"),
               std::invalid_argument);
}

}  // namespace
