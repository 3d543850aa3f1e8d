// Integration test of the paper's §IV-C correctness protocol at miniature
// scale: "the sequential C code and the CUDA code were checked against each
// other to ensure that they produced identical results under many different
// sets of inputs", plus the R-range sanity check. Every selector in the
// library is run on the same inputs across a sweep of (n, k, seed)
// configurations and their answers are reconciled.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include "core/kreg.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::SelectionResult;
using kreg::data::Dataset;
using kreg::rng::Stream;

using ProtocolParam = std::tuple<std::size_t /*n*/, std::size_t /*k*/,
                                 std::uint64_t /*seed*/>;

class PaperProtocolTest : public ::testing::TestWithParam<ProtocolParam> {};

TEST_P(PaperProtocolTest, AllGridProgramsProduceIdenticalResults) {
  const auto [n, k, seed] = GetParam();
  Stream stream(seed);
  const Dataset data = kreg::data::paper_dgp(n, stream);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, k);

  kreg::spmd::Device device;
  kreg::SpmdSelectorConfig spmd_cfg;
  spmd_cfg.precision = kreg::Precision::kDouble;
  kreg::spmd::Device dev_a;
  kreg::spmd::Device dev_b;

  // Every grid-exhaustive selector in the library.
  std::vector<SelectionResult> results;
  results.push_back(kreg::NaiveGridSelector().select(data, grid));
  results.push_back(kreg::DenseGridSelector(kreg::KernelType::kEpanechnikov)
                        .select(data, grid));
  results.push_back(kreg::SortedGridSelector().select(data, grid));
  results.push_back(kreg::ParallelSortedGridSelector().select(data, grid));
  results.push_back(kreg::SpmdGridSelector(device, spmd_cfg).select(data, grid));
  results.push_back(kreg::MultiDeviceGridSelector({&dev_a, &dev_b}, spmd_cfg)
                        .select(data, grid));

  const SelectionResult& reference = results.front();
  for (std::size_t r = 1; r < results.size(); ++r) {
    EXPECT_DOUBLE_EQ(results[r].bandwidth, reference.bandwidth)
        << results[r].method;
    ASSERT_EQ(results[r].scores.size(), reference.scores.size())
        << results[r].method;
    for (std::size_t b = 0; b < reference.scores.size(); ++b) {
      EXPECT_NEAR(results[r].scores[b], reference.scores[b],
                  1e-9 * std::max(1.0, reference.scores[b]))
          << results[r].method << " bandwidth index " << b;
    }
  }

  // The optimizer baselines (Programs 1-2) don't guarantee the global grid
  // minimum, but on the paper DGP's smooth surface they must land in the
  // same neighbourhood — the paper's cross-language "similar ranges" check.
  const auto optimized = kreg::CvOptimizerSelector().select(data, grid);
  EXPECT_GT(optimized.bandwidth, 0.0);
  EXPECT_LE(optimized.bandwidth, grid.max() * 1.0000001);
  // "Similar ranges", not equality: at small n the CV surface grows local
  // dips and a single-start optimizer may settle in one (the paper's own
  // §III caveat), so allow up to a factor-2 CV gap.
  EXPECT_LE(optimized.cv_score, 2.0 * reference.cv_score + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, PaperProtocolTest,
    ::testing::Values(ProtocolParam{50, 5, 1}, ProtocolParam{50, 50, 2},
                      ProtocolParam{100, 10, 3}, ProtocolParam{100, 100, 4},
                      ProtocolParam{250, 25, 5}, ProtocolParam{500, 50, 6},
                      ProtocolParam{97, 13, 7},  // primes: odd partitions
                      ProtocolParam{512, 128, 8}),
    [](const auto& suite_info) {
      std::string name = "n";
      name += std::to_string(std::get<0>(suite_info.param));
      name += "_k";
      name += std::to_string(std::get<1>(suite_info.param));
      name += "_seed";
      name += std::to_string(std::get<2>(suite_info.param));
      return name;
    });

TEST(PaperProtocol, RefinementAgreesWithDenseGridAcrossSelectors) {
  // The refinement driver must work identically over any grid selector.
  Stream stream(99);
  const Dataset data = kreg::data::paper_dgp(300, stream);
  const BandwidthGrid initial = BandwidthGrid::default_for(data, 16);

  kreg::RefineOptions opts;
  opts.k_per_round = 16;
  opts.rounds = 3;
  opts.shrink = 0.3;

  const auto via_sorted =
      kreg::refine_select(kreg::SortedGridSelector(), data, initial, opts);
  kreg::spmd::Device device;
  kreg::SpmdSelectorConfig cfg;
  cfg.precision = kreg::Precision::kDouble;
  const auto via_device = kreg::refine_select(
      kreg::SpmdGridSelector(device, cfg), data, initial, opts);

  EXPECT_NEAR(via_device.bandwidth, via_sorted.bandwidth, 1e-9);
  EXPECT_NEAR(via_device.cv_score, via_sorted.cv_score,
              1e-9 * std::max(1.0, via_sorted.cv_score));
}

TEST(PaperProtocol, SelectedBandwidthStableAcrossSampleDraws) {
  // The paper's cross-program check used *different* random draws and
  // verified "optimal bandwidths in similar ranges". Five independent draws
  // at n = 400 should select bandwidths within a factor ~3 band.
  double lo = 1e300;
  double hi = 0.0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Stream stream(seed * 1000);
    const Dataset data = kreg::data::paper_dgp(400, stream);
    const BandwidthGrid grid = BandwidthGrid::default_for(data, 100);
    const auto r = kreg::SortedGridSelector().select(data, grid);
    lo = std::min(lo, r.bandwidth);
    hi = std::max(hi, r.bandwidth);
  }
  EXPECT_LE(hi / lo, 3.0);
}

}  // namespace
