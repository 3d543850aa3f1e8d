// k-NN fast-LOOCV suite: golden profiles pinned from the naive O(n²·|grid|)
// reference, plus the bitwise contract across backends — the sequential
// window sweep, the device path, and every streamed k-block plan must
// reproduce the naive profile bit-for-bit (their per-k score folds run in
// the same ascending observation order), and so must the tiled profile —
// for the shared tiled driver of every window estimator, on every pool.
//
// Regenerating the golden arrays (only after an *intentional* numeric
// change): evaluate knn_cv_profile_naive on
// data::paper_dgp(n, rng::Stream(2024 + n)) over the k-grids below,
// printing with %.17g.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/kreg.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KnnDeviceConfig;
using kreg::Precision;
using kreg::data::Dataset;
using kreg::rng::Stream;

constexpr double kTol = 1e-12;

constexpr std::array<std::size_t, 9> kGridN50 = {1, 2, 3, 5, 8, 13, 21, 34,
                                                 49};
constexpr std::array<double, 9> kKnnProfileN50 = {
    0.071191227045885042,
    0.065963438887321077,
    0.075175338181848503,
    0.10566051846271465,
    0.16403472579466472,
    0.42871168082704258,
    1.5028632902554211,
    4.3797065035979879,
    10.577613842049713,
};

constexpr std::array<std::size_t, 9> kGridN200 = {1, 2, 4, 8, 16, 32, 64, 128,
                                                  199};
constexpr std::array<double, 9> kKnnProfileN200 = {
    0.053633469323553083,
    0.038091426394695288,
    0.031440075237583173,
    0.034594244916373237,
    0.04887563073725501,
    0.17578295520172041,
    0.6266083170811485,
    2.9746706647548731,
    9.3453477868236909,
};

Dataset fixture(std::size_t n) {
  Stream s(2024 + n);
  return kreg::data::paper_dgp(n, s);
}

// A dataset with heavy x-duplication: ties at every admission threshold.
// The tie-inclusive neighbourhood definition must keep fast == naive exact
// here (a greedy "first k admitted" rule would be order-dependent).
Dataset tied_fixture(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  Dataset d;
  for (std::size_t i = 0; i < n; ++i) {
    // x drawn from only 7 distinct values.
    d.x.push_back(std::floor(s.uniform() * 7.0) / 7.0);
    d.y.push_back(s.gaussian(0.0, 1.0));
  }
  return d;
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
  std::span<const std::size_t> kgrid;
  std::span<const double> expected;
};

const std::array<GoldenCase, 2> kGoldenCases = {{
    {50, kGridN50, kKnnProfileN50},
    {200, kGridN200, kKnnProfileN200},
}};

class GoldenKnn
    : public ::testing::TestWithParam<std::size_t /*case index*/> {};

TEST_P(GoldenKnn, EveryBackendReproducesTheGoldenProfile) {
  const GoldenCase& gc = kGoldenCases[GetParam()];
  const Dataset data = fixture(gc.n);

  // The generator of the golden values.
  const std::vector<double> naive = kreg::knn_cv_profile_naive(data, gc.kgrid);
  expect_near_profile(naive, gc.expected, "naive");

  // Bitwise tier: sequential, device resident, device streamed.
  const std::vector<double> fast = kreg::knn_cv_profile(data, gc.kgrid);
  expect_bitwise_profile(fast, naive, "window");

  kreg::spmd::Device dev;
  expect_bitwise_profile(kreg::knn_cv_profile_device(dev, data, gc.kgrid),
                         naive, "spmd-resident");
  KnnDeviceConfig streamed;
  streamed.stream.k_block = 3;  // misaligned with |grid| = 9
  expect_bitwise_profile(
      kreg::knn_cv_profile_device(dev, data, gc.kgrid, streamed), naive,
      "spmd-k-block-3");

  // The tiled profile folds every count's rows in the same order.
  expect_bitwise_profile(kreg::knn_cv_profile_tiled(data, gc.kgrid), naive,
                         "tiled");
}

INSTANTIATE_TEST_SUITE_P(Fixtures, GoldenKnn,
                         ::testing::Range<std::size_t>(0, 2),
                         [](const auto& suite_info) {
                           return "n" +
                                  std::to_string(kGoldenCases[suite_info.param].n);
                         });

class KnnBitwise : public ::testing::TestWithParam<Precision> {};

TEST_P(KnnBitwise, FastMatchesNaiveOnDenseGrid) {
  // Every admissible k at once: the window grows one admission at a time,
  // exercising the left/right tie races at each step.
  const Dataset data = fixture(60);
  std::vector<std::size_t> kgrid(59);
  for (std::size_t i = 0; i < kgrid.size(); ++i) {
    kgrid[i] = i + 1;
  }
  expect_bitwise_profile(kreg::knn_cv_profile(data, kgrid, GetParam()),
                         kreg::knn_cv_profile_naive(data, kgrid, GetParam()),
                         "dense-grid");
}

TEST_P(KnnBitwise, FastMatchesNaiveUnderHeavyTies) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const Dataset data = tied_fixture(80, seed);
    const std::vector<std::size_t> kgrid = {1, 2, 5, 11, 23, 47, 79};
    expect_bitwise_profile(
        kreg::knn_cv_profile(data, kgrid, GetParam()),
        kreg::knn_cv_profile_naive(data, kgrid, GetParam()),
        ("ties seed=" + std::to_string(seed)).c_str());
  }
}

TEST_P(KnnBitwise, StreamedKBlocksMatchResident) {
  const Dataset data = fixture(90);
  const std::vector<std::size_t> kgrid = {1, 3, 7, 12, 20, 33, 54, 89};
  kreg::spmd::Device dev;
  KnnDeviceConfig resident_cfg;
  resident_cfg.precision = GetParam();
  const std::vector<double> resident =
      kreg::knn_cv_profile_device(dev, data, kgrid, resident_cfg);
  for (std::size_t k_block : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              std::size_t{8}, std::size_t{11}}) {
    KnnDeviceConfig cfg = resident_cfg;
    cfg.stream.k_block = k_block;
    expect_bitwise_profile(
        kreg::knn_cv_profile_device(dev, data, kgrid, cfg), resident,
        ("k_block=" + std::to_string(k_block)).c_str());
  }
  // The device fold shares the host's ascending order: bitwise across the
  // host/device boundary too.
  expect_bitwise_profile(resident,
                         kreg::knn_cv_profile(data, kgrid, GetParam()),
                         "device-vs-host");
}

INSTANTIATE_TEST_SUITE_P(Precisions, KnnBitwise,
                         ::testing::Values(Precision::kDouble,
                                           Precision::kFloat),
                         [](const auto& suite_info) {
                           return suite_info.param == Precision::kFloat ? "Float"
                                                                  : "Double";
                         });

// The host's parallel profile is the tiled one on the global pool: the
// sequential sweep's bits on every run.
TEST(KnnParallel, DeterministicAndToleranceEqual) {
  const Dataset data = fixture(200);
  const std::vector<double> sequential =
      kreg::knn_cv_profile(data, kGridN200);
  for (int run = 0; run < 3; ++run) {
    expect_bitwise_profile(kreg::knn_cv_profile_tiled(data, kGridN200),
                           sequential, "parallel-vs-sequential");
  }
}

// Every window estimator's tiled profile folds each grid entry's rows in
// ascending order, so the kHostTiled backend is the host sweep bit for bit
// on every pool (core/job.hpp; the serve cache shares one entry across the
// backends on it). n = 1, 9, 333 and 5,000 put zero, one and many tile
// boundaries (64 rows each) inside the sample; k = 1, 17 and 130 cross the
// 64-entry k-block. NW runs its lane batches in both precisions with every
// sweepable kernel.
TEST(TiledPools, SameBitsOnEveryPool) {
  std::vector<std::unique_ptr<kreg::parallel::ThreadPool>> pools;
  for (const std::size_t workers : {1, 2, 4}) {
    pools.push_back(std::make_unique<kreg::parallel::ThreadPool>(workers));
  }
  for (const std::size_t n : {1, 9, 333, 5000}) {
    const auto data = std::make_shared<const Dataset>(fixture(n));
    for (const std::size_t k : {1, 17, 130}) {
      std::vector<kreg::SelectionJob> jobs;
      for (const Precision precision :
           {Precision::kDouble, Precision::kFloat}) {
        kreg::SelectionJob job;
        job.data = data;
        job.precision = precision;
        // About 100 admissions per row at the widest bandwidth.
        job.bandwidth_grid =
            BandwidthGrid(0.002, std::min(0.4, 50.0 / static_cast<double>(n)),
                          k)
                .values();
        for (const kreg::KernelType kernel : kreg::kAllKernels) {
          if (kreg::is_sweepable(kernel)) {
            job.kernel = kernel;
            jobs.push_back(job);
          }
        }
        job.kernel = kreg::KernelType::kEpanechnikov;
        job.estimator = kreg::EstimatorKind::kOscv;
        jobs.push_back(job);
        if (n >= 2) {
          job.estimator = kreg::EstimatorKind::kKnn;
          job.bandwidth_grid.clear();
          for (std::size_t count = 1; count <= std::min(k, n - 1); ++count) {
            job.neighbor_grid.push_back(count);
          }
          jobs.push_back(job);
        }
      }
      for (kreg::SelectionJob job : jobs) {
        const std::string name =
            std::string(kreg::to_string(job.estimator)) + " " +
            std::string(kreg::to_string(job.kernel)) + " " +
            std::string(kreg::to_string(job.precision)) + " n=" +
            std::to_string(n) + " k=" + std::to_string(job.grid_size());
        job.backend = kreg::JobBackend::kHostSweep;
        const std::vector<double> sequential = kreg::run_job(job, {}).scores;
        job.backend = kreg::JobBackend::kHostTiled;
        for (const auto& pool : pools) {
          expect_bitwise_profile(
              kreg::run_job(job, kreg::JobContext{nullptr, pool.get()}).scores,
              sequential,
              (name + " workers=" + std::to_string(pool->size())).c_str());
        }
      }
    }
  }
}

TEST(KnnEstimator, PermutationInvariantBitwise) {
  // The tie-inclusive neighbourhood is a set, and the one global sort
  // orders rows with equal X by Y, so ties admit in an order fixed by the
  // sample: a row permutation cannot move a single bit.
  const Dataset data = tied_fixture(64, 21);
  std::vector<std::size_t> perm(data.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = (i * 29) % perm.size();  // 29 coprime with 64
  }
  const Dataset shuffled = kreg::data::permute(data, perm);
  const std::vector<std::size_t> kgrid = {1, 3, 9, 27, 63};
  expect_bitwise_profile(kreg::knn_cv_profile(shuffled, kgrid),
                         kreg::knn_cv_profile(data, kgrid), "permuted");
}

TEST(KnnSelection, ArgminAndTieBreak) {
  const std::vector<std::size_t> kgrid = {2, 4, 8};
  auto r = kreg::knn_selection_from_profile(kgrid, {3.0, 1.0, 2.0}, "test");
  EXPECT_EQ(r.k, 4u);
  EXPECT_DOUBLE_EQ(r.cv_score, 1.0);
  EXPECT_EQ(r.method, "test");
  // Equal scores: smallest index (smallest k) wins.
  r = kreg::knn_selection_from_profile(kgrid, {1.0, 1.0, 1.0}, "test");
  EXPECT_EQ(r.k, 2u);
}

TEST(KnnSelection, SelectAgreesWithProfileArgmin) {
  const Dataset data = fixture(200);
  const auto result = kreg::knn_select(data, kGridN200);
  const std::vector<double> profile = kreg::knn_cv_profile(data, kGridN200);
  std::size_t best = 0;
  for (std::size_t b = 1; b < profile.size(); ++b) {
    if (profile[b] < profile[best]) {
      best = b;
    }
  }
  EXPECT_EQ(result.k, kGridN200[best]);
  EXPECT_EQ(result.cv_score, profile[best]);
  EXPECT_EQ(result.scores.size(), profile.size());
}

TEST(KnnDefaultGrid, SpansOneToNMinusOneStrictlyIncreasing) {
  for (std::size_t n : {2u, 3u, 10u, 1000u, 100000u}) {
    const auto grid = kreg::default_neighbor_grid(n);
    ASSERT_FALSE(grid.empty()) << n;
    EXPECT_EQ(grid.front(), 1u) << n;
    EXPECT_EQ(grid.back(), n - 1) << n;
    EXPECT_LE(grid.size(), 32u) << n;
    for (std::size_t i = 1; i < grid.size(); ++i) {
      EXPECT_LT(grid[i - 1], grid[i]) << n;
    }
  }
  EXPECT_EQ(kreg::default_neighbor_grid(2), std::vector<std::size_t>{1});
  EXPECT_THROW(kreg::default_neighbor_grid(1), std::invalid_argument);
  EXPECT_THROW(kreg::default_neighbor_grid(10, 0), std::invalid_argument);
}

TEST(KnnRegression, PredictsTieInclusiveNearestMean) {
  // Sorted x: {0, 1, 2, 3, 10}. Query 1.9 with k = 2: nearest are x=2 (0.1)
  // and x=1 (0.9) -> mean(20, 30).
  const Dataset data{{0, 1, 2, 3, 10}, {10, 20, 30, 40, 50}};
  const kreg::KnnRegression fit(data, 2);
  EXPECT_EQ(fit.k(), 2u);
  EXPECT_DOUBLE_EQ(fit.predict(1.9), 25.0);
  // Query 1.5 with k = 1: both x=1 and x=2 sit exactly at the radius, so
  // the tie-inclusive neighbourhood holds both.
  const kreg::KnnRegression one(data, 1);
  EXPECT_DOUBLE_EQ(one.predict(1.5), 25.0);
  // Far query: the k nearest are the right tail.
  EXPECT_DOUBLE_EQ(fit.predict(100.0), 45.0);
}

TEST(KnnValidation, RejectsBadInputs) {
  const Dataset data = fixture(20);
  const Dataset empty;
  const std::vector<std::size_t> ok = {1, 5, 19};
  EXPECT_THROW(kreg::knn_cv_profile(empty, ok), std::invalid_argument);
  EXPECT_THROW(kreg::knn_cv_profile(data, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(kreg::knn_cv_profile(data, std::vector<std::size_t>{0, 3}),
               std::invalid_argument);
  EXPECT_THROW(kreg::knn_cv_profile(data, std::vector<std::size_t>{3, 3}),
               std::invalid_argument);
  EXPECT_THROW(kreg::knn_cv_profile(data, std::vector<std::size_t>{5, 20}),
               std::invalid_argument);
  EXPECT_THROW(kreg::knn_cv_profile_naive(data, std::vector<std::size_t>{20}),
               std::invalid_argument);
}

TEST(KnnStreamedBytes, MonotoneInKBlock) {
  const std::size_t base =
      kreg::knn_estimated_streamed_bytes(1000, 0, Precision::kDouble);
  std::size_t prev = base;
  for (std::size_t k_block : {1u, 4u, 16u, 64u}) {
    const std::size_t bytes =
        kreg::knn_estimated_streamed_bytes(1000, k_block, Precision::kDouble);
    EXPECT_GT(bytes, prev) << k_block;
    prev = bytes;
  }
}

TEST(KnnDevicePlan, ThreadsPerBlockClampsToTheDevice) {
  // The default device allows 512 threads per block; a larger request
  // runs clamped, as SpmdGridSelector's does, with the same bits.
  const Dataset data = fixture(300);
  const std::vector<std::size_t> kgrid = {1, 3, 9, 27, 81};
  kreg::spmd::Device dev;
  KnnDeviceConfig cfg;
  cfg.threads_per_block = 1024;
  expect_bitwise_profile(kreg::knn_cv_profile_device(dev, data, kgrid, cfg),
                         kreg::knn_cv_profile(data, kgrid, Precision::kDouble),
                         "tpb=1024");
}

TEST(KnnDevicePlan, ResidentFootprintBudgetRunsOneKBlock) {
  // The resident plan holds no carry: x, y, the n×k residual matrix and
  // its k running totals. A budget of exactly that runs one k-block (one
  // sweep and one fold launch); a byte less streams. Both are bitwise the
  // host sweep.
  const Dataset data = fixture(1000);
  const std::vector<std::size_t> kgrid = {1,  2,  4,   8,   16,
                                          32, 64, 128, 256, 512};
  const std::size_t resident =
      (2 * 1000 + 1000 * kgrid.size() + kgrid.size()) * sizeof(double);
  const std::vector<double> host =
      kreg::knn_cv_profile(data, kgrid, Precision::kDouble);
  for (const std::size_t budget : {resident, resident - 1}) {
    kreg::spmd::Device dev;
    KnnDeviceConfig cfg;
    cfg.stream.memory_budget_bytes = budget;
    expect_bitwise_profile(kreg::knn_cv_profile_device(dev, data, kgrid, cfg),
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
