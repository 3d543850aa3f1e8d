// Tests for the no-sort dense grid selector (footnote 1): exact agreement
// with the naive reference for every kernel, including the non-sweepable
// Gaussian and Cosine, serial and parallel.
#include <gtest/gtest.h>

#include <cmath>

#include "core/dense_grid.hpp"
#include "core/grid.hpp"
#include "core/loocv.hpp"
#include "core/selectors.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::DenseGridSelector;
using kreg::KernelType;
using kreg::NaiveGridSelector;
using kreg::data::Dataset;
using kreg::rng::Stream;

class DenseGridKernelTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(DenseGridKernelTest, MatchesNaiveProfileExactly) {
  const KernelType kernel = GetParam();
  Stream s(31);
  const Dataset d = kreg::data::paper_dgp(200, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 20);
  const auto naive = NaiveGridSelector(kernel).select(d, grid);
  const auto dense = DenseGridSelector(kernel).select(d, grid);
  ASSERT_EQ(dense.scores.size(), naive.scores.size());
  for (std::size_t b = 0; b < naive.scores.size(); ++b) {
    EXPECT_NEAR(dense.scores[b], naive.scores[b],
                1e-10 * std::max(1.0, naive.scores[b]))
        << to_string(kernel) << " b=" << b;
  }
  EXPECT_DOUBLE_EQ(dense.bandwidth, naive.bandwidth);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DenseGridKernelTest,
                         ::testing::ValuesIn(kreg::kAllKernels),
                         [](const auto& suite_info) {
                           return std::string(kreg::to_string(suite_info.param));
                         });

TEST(DenseGrid, ParallelVariantAgrees) {
  Stream s(32);
  const Dataset d = kreg::data::sine_dgp(300, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 15);
  const auto serial =
      DenseGridSelector(KernelType::kGaussian).select(d, grid);
  const auto parallel =
      DenseGridSelector(KernelType::kGaussian, nullptr, /*parallel=*/true)
          .select(d, grid);
  for (std::size_t b = 0; b < serial.scores.size(); ++b) {
    EXPECT_NEAR(parallel.scores[b], serial.scores[b],
                1e-10 * std::max(1.0, serial.scores[b]));
  }
}

TEST(DenseGrid, GaussianSelectionSane) {
  Stream s(33);
  const Dataset d = kreg::data::paper_dgp(400, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 100);
  const auto r = DenseGridSelector(KernelType::kGaussian).select(d, grid);
  EXPECT_GT(r.bandwidth, 0.0);
  EXPECT_LE(r.bandwidth, grid.max());
  EXPECT_NEAR(r.cv_score, kreg::cv_score(d, r.bandwidth, KernelType::kGaussian),
              1e-10);
}

TEST(DenseGrid, RejectsEmptyDataset) {
  const Dataset empty;
  const BandwidthGrid grid(0.1, 1.0, 4);
  EXPECT_THROW(DenseGridSelector().select(empty, grid), std::invalid_argument);
}

TEST(DenseGrid, DuplicateXValues) {
  Dataset d{{0.5, 0.5, 0.7, 0.7}, {1.0, 2.0, 3.0, 4.0}};
  const BandwidthGrid grid(0.1, 0.8, 5);
  const auto naive = NaiveGridSelector(KernelType::kEpanechnikov).select(d, grid);
  const auto dense = DenseGridSelector(KernelType::kEpanechnikov).select(d, grid);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(dense.scores[b], naive.scores[b], 1e-12);
  }
}

TEST(DenseGrid, NameReflectsConfiguration) {
  EXPECT_NE(DenseGridSelector(KernelType::kGaussian).name().find("gaussian"),
            std::string::npos);
  EXPECT_NE(DenseGridSelector(KernelType::kGaussian, nullptr, true)
                .name()
                .find("parallel"),
            std::string::npos);
}

}  // namespace
