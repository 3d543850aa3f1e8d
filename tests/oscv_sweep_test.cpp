// OSCV suite: golden one-sided profiles pinned from the naive O(n²·|grid|)
// reference, the closed-form rescale constants against published values,
// and the bitwise contract across backends — sequential, device resident,
// every streamed k-block plan and the tiled profile reproduce the naive
// profile exactly; the tiled profile's same-bits-on-every-pool contract is
// held in knn_sweep_test (TiledPools).
//
// Regenerating the golden arrays (only after an *intentional* numeric
// change): evaluate oscv_profile_naive on
// data::paper_dgp(n, rng::Stream(2024 + n)) over
// BandwidthGrid::default_for(data, k), printing with %.17g.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "core/kreg.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::OscvDeviceConfig;
using kreg::Precision;
using kreg::data::Dataset;
using kreg::rng::Stream;

constexpr double kTol = 1e-12;

constexpr std::array<double, 8> kOscvProfileN50Epan = {
    0.072176962416078017,
    0.065015921492457357,
    0.077977581894967743,
    0.10998249335549007,
    0.16771785977184883,
    0.25829983171186482,
    0.36534748826506053,
    0.46930060310139154,
};

constexpr std::array<double, 8> kOscvProfileN50Uniform = {
    0.072782137661674323,
    0.066846470030508143,
    0.091491891751325494,
    0.15445996380339519,
    0.24870734065037226,
    0.4237022278654945,
    0.56944499282690475,
    0.68247424901490406,
};

constexpr std::array<double, 12> kOscvProfileN200Epan = {
    0.031702658426087479,
    0.0274330220134829,
    0.030102320654350093,
    0.038641201993527961,
    0.054462152969038974,
    0.079807717296663971,
    0.11667823131743559,
    0.16577245427742399,
    0.22289153665835648,
    0.28705305598940678,
    0.34752354510602912,
    0.3982490917872486,
};

Dataset fixture(std::size_t n) {
  Stream s(2024 + n);
  return kreg::data::paper_dgp(n, s);
}

void expect_near_profile(std::span<const double> actual,
                         std::span<const double> expected,
                         const char* backend) {
  ASSERT_EQ(actual.size(), expected.size()) << backend;
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_NEAR(actual[b], expected[b],
                kTol * std::max(1.0, std::abs(expected[b])))
        << backend << " b=" << b;
  }
}

void expect_bitwise_profile(std::span<const double> actual,
                            std::span<const double> reference,
                            const char* backend) {
  ASSERT_EQ(actual.size(), reference.size()) << backend;
  for (std::size_t b = 0; b < reference.size(); ++b) {
    EXPECT_EQ(actual[b], reference[b]) << backend << " b=" << b;
  }
}

struct GoldenCase {
  std::size_t n;
  std::size_t k;
  KernelType kernel;
  std::span<const double> expected;
};

const std::array<GoldenCase, 3> kGoldenCases = {{
    {50, 8, KernelType::kEpanechnikov, kOscvProfileN50Epan},
    {50, 8, KernelType::kUniform, kOscvProfileN50Uniform},
    {200, 12, KernelType::kEpanechnikov, kOscvProfileN200Epan},
}};

class GoldenOscv
    : public ::testing::TestWithParam<std::size_t /*case index*/> {};

TEST_P(GoldenOscv, EveryBackendReproducesTheGoldenProfile) {
  const GoldenCase& gc = kGoldenCases[GetParam()];
  const Dataset data = fixture(gc.n);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, gc.k);

  const std::vector<double> naive =
      kreg::oscv_profile_naive(data, grid.values(), gc.kernel);
  expect_near_profile(naive, gc.expected, "naive");

  // Bitwise tier.
  const std::vector<double> fast =
      kreg::oscv_profile(data, grid.values(), gc.kernel);
  expect_bitwise_profile(fast, naive, "window");

  kreg::spmd::Device dev;
  expect_bitwise_profile(
      kreg::oscv_profile_device(dev, data, grid.values(), gc.kernel), naive,
      "spmd-resident");
  OscvDeviceConfig streamed;
  streamed.stream.k_block = 5;  // misaligned with both |grid| = 8 and 12
  expect_bitwise_profile(
      kreg::oscv_profile_device(dev, data, grid.values(), gc.kernel,
                                streamed),
      naive, "spmd-k-block-5");

  expect_bitwise_profile(
      kreg::oscv_profile_tiled(data, grid.values(), gc.kernel), naive,
      "tiled");
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenOscv,
                         ::testing::Range<std::size_t>(0, 3),
                         [](const auto& suite_info) {
                           const GoldenCase& gc = kGoldenCases[suite_info.param];
                           return "n" + std::to_string(gc.n) +
                                  std::string(kreg::to_string(gc.kernel));
                         });

TEST(OscvRescale, MatchesPublishedConstants) {
  // Hart & Yi report C = 0.5371 for the Epanechnikov kernel; the uniform
  // kernel's constant is exactly 1/2 (its one-sided equivalent kernel is
  // the uniform local-linear weight, whose ratio collapses to 2^(-1)).
  EXPECT_NEAR(kreg::oscv_rescale_constant(KernelType::kEpanechnikov),
              0.53713363074458009, 1e-12);
  EXPECT_DOUBLE_EQ(kreg::oscv_rescale_constant(KernelType::kUniform), 0.5);
  // Remaining sweepable kernels: pinned from the same closed form, sane
  // range (every one-sided constant sits well inside (0, 1)).
  EXPECT_NEAR(kreg::oscv_rescale_constant(KernelType::kBiweight),
              0.55730119997466787, 1e-12);
  EXPECT_NEAR(kreg::oscv_rescale_constant(KernelType::kTriweight),
              0.56940764119813747, 1e-12);
  const double tri = kreg::oscv_rescale_constant(KernelType::kTriangular);
  EXPECT_GT(tri, 0.3);
  EXPECT_LT(tri, 0.8);
  EXPECT_THROW(kreg::oscv_rescale_constant(KernelType::kGaussian),
               std::invalid_argument);
  EXPECT_THROW(kreg::oscv_rescale_constant(KernelType::kCosine),
               std::invalid_argument);
}

class OscvBitwise : public ::testing::TestWithParam<Precision> {};

TEST_P(OscvBitwise, FastMatchesNaiveAcrossSweepableKernels) {
  const Dataset data = fixture(70);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 9);
  for (KernelType kernel :
       {KernelType::kEpanechnikov, KernelType::kUniform,
        KernelType::kTriangular, KernelType::kBiweight,
        KernelType::kTriweight}) {
    expect_bitwise_profile(
        kreg::oscv_profile(data, grid.values(), kernel, GetParam()),
        kreg::oscv_profile_naive(data, grid.values(), kernel, GetParam()),
        std::string(kreg::to_string(kernel)).c_str());
  }
}

TEST_P(OscvBitwise, FastMatchesNaiveUnderDuplicatedX) {
  // Duplicates are excluded by the one-sided admission test d > 0, exactly
  // like the LOOCV self term: fast and naive must agree bit-for-bit on a
  // heavily tied design.
  Stream s(31);
  Dataset data;
  for (std::size_t i = 0; i < 90; ++i) {
    data.x.push_back(std::floor(s.uniform() * 9.0) / 9.0);
    data.y.push_back(s.gaussian(0.0, 1.0));
  }
  const BandwidthGrid grid(0.05, 1.0, 7);
  expect_bitwise_profile(
      kreg::oscv_profile(data, grid.values(), KernelType::kEpanechnikov,
                         GetParam()),
      kreg::oscv_profile_naive(data, grid.values(),
                               KernelType::kEpanechnikov, GetParam()),
      "tied");
}

TEST_P(OscvBitwise, StreamedKBlocksMatchResident) {
  const Dataset data = fixture(110);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 11);
  kreg::spmd::Device dev;
  OscvDeviceConfig resident_cfg;
  resident_cfg.precision = GetParam();
  const std::vector<double> resident = kreg::oscv_profile_device(
      dev, data, grid.values(), KernelType::kEpanechnikov, resident_cfg);
  for (std::size_t k_block : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{7}, std::size_t{13}}) {
    OscvDeviceConfig cfg = resident_cfg;
    cfg.stream.k_block = k_block;
    expect_bitwise_profile(
        kreg::oscv_profile_device(dev, data, grid.values(),
                                  KernelType::kEpanechnikov, cfg),
        resident, ("k_block=" + std::to_string(k_block)).c_str());
  }
  expect_bitwise_profile(
      resident,
      kreg::oscv_profile(data, grid.values(), KernelType::kEpanechnikov,
                         GetParam()),
      "device-vs-host");
}

INSTANTIATE_TEST_SUITE_P(Precisions, OscvBitwise,
                         ::testing::Values(Precision::kDouble,
                                           Precision::kFloat),
                         [](const auto& suite_info) {
                           return suite_info.param == Precision::kFloat ? "Float"
                                                                  : "Double";
                         });

TEST(OscvDegenerate, EmptyWindowsContributeZero) {
  // Every one-sided window is empty (the admission test d > 0 never
  // holds), so each observation is skipped — zero contribution, not a
  // zero *prediction* — and the whole profile is exactly zero. Fast and
  // naive must agree on this rule too.
  const Dataset data{{0.5, 0.5, 0.5, 0.5}, {1.0, -2.0, 3.0, -4.0}};
  const std::vector<double> grid = {0.1, 0.5, 2.0};
  for (double score :
       kreg::oscv_profile(data, grid, KernelType::kEpanechnikov)) {
    EXPECT_DOUBLE_EQ(score, 0.0);
  }
  expect_bitwise_profile(
      kreg::oscv_profile(data, grid, KernelType::kEpanechnikov),
      kreg::oscv_profile_naive(data, grid, KernelType::kEpanechnikov),
      "degenerate");
}

// The host's parallel profile is the tiled one on the global pool: the
// sequential sweep's bits on every run.
TEST(OscvParallel, DeterministicAndToleranceEqual) {
  const Dataset data = fixture(200);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 12);
  const std::vector<double> sequential =
      kreg::oscv_profile(data, grid.values(), KernelType::kEpanechnikov);
  for (int run = 0; run < 3; ++run) {
    expect_bitwise_profile(
        kreg::oscv_profile_tiled(data, grid.values(),
                                 KernelType::kEpanechnikov),
        sequential, "parallel-vs-sequential");
  }
}

TEST(OscvSelector, ReportsRescaledBandwidthOverOneSidedProfile) {
  const Dataset data = fixture(200);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 12);
  const kreg::OscvSweepSelector selector;
  const auto result = selector.select(data, grid);
  EXPECT_EQ(selector.name(), "oscv-sweep");
  EXPECT_EQ(kreg::OscvSweepSelector(KernelType::kEpanechnikov,
                                    Precision::kDouble, /*parallel=*/true)
                .name(),
            "oscv-sweep-parallel");

  const std::vector<double> profile =
      kreg::oscv_profile(data, grid.values(), KernelType::kEpanechnikov);
  expect_bitwise_profile(result.scores, profile, "selector-scores");
  std::size_t best = 0;
  for (std::size_t b = 1; b < profile.size(); ++b) {
    if (profile[b] < profile[best]) {
      best = b;
    }
  }
  EXPECT_EQ(result.cv_score, profile[best]);
  // The reported bandwidth is the *rescaled* two-sided one: C·b̂, not a
  // grid point of the searched profile.
  const double c = kreg::oscv_rescale_constant(KernelType::kEpanechnikov);
  EXPECT_DOUBLE_EQ(result.bandwidth, c * grid[best]);
}

TEST(OscvValidation, RejectsBadInputs) {
  const Dataset data = fixture(20);
  const Dataset empty;
  const std::vector<double> ok = {0.1, 0.2, 0.4};
  EXPECT_THROW(
      kreg::oscv_profile(empty, ok, KernelType::kEpanechnikov),
      std::invalid_argument);
  EXPECT_THROW(kreg::oscv_profile(data, std::vector<double>{},
                                  KernelType::kEpanechnikov),
               std::invalid_argument);
  EXPECT_THROW(kreg::oscv_profile(data, std::vector<double>{-0.1, 0.2},
                                  KernelType::kEpanechnikov),
               std::invalid_argument);
  EXPECT_THROW(kreg::oscv_profile(data, std::vector<double>{0.2, 0.2},
                                  KernelType::kEpanechnikov),
               std::invalid_argument);
  EXPECT_THROW(kreg::oscv_profile(data, ok, KernelType::kGaussian),
               std::invalid_argument);
  EXPECT_THROW(kreg::oscv_profile_naive(data, ok, KernelType::kCosine),
               std::invalid_argument);
}

TEST(OscvStreamedBytes, MonotoneInKBlock) {
  const std::size_t base = kreg::oscv_estimated_streamed_bytes(
      1000, 0, Precision::kDouble, KernelType::kEpanechnikov);
  std::size_t prev = base;
  for (std::size_t k_block : {1u, 4u, 16u, 64u}) {
    const std::size_t bytes = kreg::oscv_estimated_streamed_bytes(
        1000, k_block, Precision::kDouble, KernelType::kEpanechnikov);
    EXPECT_GT(bytes, prev) << k_block;
    prev = bytes;
  }
}

TEST(OscvDevicePlan, ThreadsPerBlockClampsToTheDevice) {
  // As for k-NN: a request above the device's 512 threads per block runs
  // clamped, with the same bits.
  const Dataset data = fixture(300);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 6);
  kreg::spmd::Device dev;
  OscvDeviceConfig cfg;
  cfg.threads_per_block = 1024;
  expect_bitwise_profile(
      kreg::oscv_profile_device(dev, data, grid.values(),
                                KernelType::kEpanechnikov, cfg),
      kreg::oscv_profile(data, grid.values(), KernelType::kEpanechnikov,
                         Precision::kDouble),
      "tpb=1024");
}

TEST(OscvDevicePlan, ResidentFootprintBudgetRunsOneKBlock) {
  // As for k-NN: the resident plan holds no carry, so a budget of exactly
  // x, y, the n×k residual matrix and its k running totals runs one
  // k-block, and a byte less streams. Both are bitwise the host sweep.
  const Dataset data = fixture(1000);
  const BandwidthGrid grid = BandwidthGrid::default_for(data, 10);
  const std::size_t k = grid.size();
  const std::size_t resident = (2 * 1000 + 1000 * k + k) * sizeof(double);
  const std::vector<double> host = kreg::oscv_profile(
      data, grid.values(), KernelType::kEpanechnikov, Precision::kDouble);
  for (const std::size_t budget : {resident, resident - 1}) {
    kreg::spmd::Device dev;
    OscvDeviceConfig cfg;
    cfg.stream.memory_budget_bytes = budget;
    expect_bitwise_profile(
        kreg::oscv_profile_device(dev, data, grid.values(),
                                  KernelType::kEpanechnikov, cfg),
        host, ("budget=" + std::to_string(budget)).c_str());
    if (budget == resident) {
      EXPECT_EQ(dev.stats().kernel_launches, 2u);
      EXPECT_EQ(dev.global_peak(), resident);
    } else {
      EXPECT_GT(dev.stats().kernel_launches, 2u);
    }
  }
}

}  // namespace
