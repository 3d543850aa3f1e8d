// The library's central property test: the sorting-based incremental sweep
// (paper §III) must reproduce the naive O(k·n²) CV profile exactly (up to
// floating-point recombination error) for every sweepable kernel, every
// DGP, sequential and parallel, float and double.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/grid.hpp"
#include "core/loocv.hpp"
#include "core/selectors.hpp"
#include "core/sorted_sweep.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/stream.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::cv_score;
using kreg::KernelType;
using kreg::Precision;
using kreg::sweep_cv_profile;
using kreg::sweep_cv_profile_parallel;
using kreg::window_cv_profile;
using kreg::data::Dataset;
using kreg::rng::Stream;

std::vector<double> naive_profile(const Dataset& d,
                                  const std::vector<double>& grid,
                                  KernelType kernel) {
  std::vector<double> scores;
  scores.reserve(grid.size());
  for (double h : grid) {
    scores.push_back(cv_score(d, h, kernel));
  }
  return scores;
}

constexpr std::array<KernelType, 5> kSweepable = {
    KernelType::kEpanechnikov, KernelType::kUniform, KernelType::kTriangular,
    KernelType::kBiweight, KernelType::kTriweight};

// ---- Sweep vs naive across kernels and datasets ---------------------------

using SweepParam = std::tuple<KernelType, std::size_t /*dgp idx*/>;

class SweepEquivalenceTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SweepEquivalenceTest, MatchesNaiveProfile) {
  const auto [kernel, dgp_idx] = GetParam();
  Stream s(10 + dgp_idx);
  const auto& dgp = kreg::data::all_dgps()[dgp_idx];
  const Dataset d = dgp.generate(300, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 25);

  const std::vector<double> naive = naive_profile(d, grid.values(), kernel);
  const std::vector<double> swept =
      sweep_cv_profile(d, grid.values(), kernel, Precision::kDouble);

  ASSERT_EQ(swept.size(), naive.size());
  for (std::size_t b = 0; b < naive.size(); ++b) {
    ASSERT_NEAR(swept[b], naive[b], 1e-9 * std::max(1.0, naive[b]))
        << dgp.name << "/" << to_string(kernel) << " at h=" << grid[b];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDgps, SweepEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kSweepable),
                       ::testing::Values<std::size_t>(0, 1, 2, 3, 4)),
    [](const auto& suite_info) {
      return std::string(kreg::to_string(std::get<0>(suite_info.param))) + "_" +
             kreg::data::all_dgps()[std::get<1>(suite_info.param)].name;
    });

// ---- Parallel sweep == sequential sweep -----------------------------------

TEST(SweepParallel, MatchesSequentialExactly) {
  Stream s(20);
  const Dataset d = kreg::data::paper_dgp(700, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  const auto seq = sweep_cv_profile(d, grid.values(),
                                    KernelType::kEpanechnikov);
  const auto par = sweep_cv_profile_parallel(d, grid.values(),
                                             KernelType::kEpanechnikov);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t b = 0; b < seq.size(); ++b) {
    // Same per-observation terms, possibly different summation grouping.
    EXPECT_NEAR(par[b], seq[b], 1e-11 * std::max(1.0, seq[b]));
  }
}

// ---- Float path stays close to double path --------------------------------

TEST(SweepPrecision, FloatTracksDoubleWithinSinglePrecision) {
  Stream s(21);
  const Dataset d = kreg::data::paper_dgp(500, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 40);
  const auto dbl = sweep_cv_profile(d, grid.values(),
                                    KernelType::kEpanechnikov,
                                    Precision::kDouble);
  const auto flt = sweep_cv_profile(d, grid.values(),
                                    KernelType::kEpanechnikov,
                                    Precision::kFloat);
  for (std::size_t b = 0; b < dbl.size(); ++b) {
    EXPECT_NEAR(flt[b], dbl[b], 1e-3 * std::max(1.0, dbl[b])) << "b=" << b;
  }
}

TEST(SweepPrecision, ArgminAgreesAcrossPrecisions) {
  Stream s(22);
  const Dataset d = kreg::data::paper_dgp(600, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 30);
  const auto dbl = sweep_cv_profile(d, grid.values(),
                                    KernelType::kEpanechnikov,
                                    Precision::kDouble);
  const auto flt = sweep_cv_profile(d, grid.values(),
                                    KernelType::kEpanechnikov,
                                    Precision::kFloat);
  const auto argmin = [](const std::vector<double>& v) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < v.size(); ++i) {
      if (v[i] < v[best]) {
        best = i;
      }
    }
    return best;
  };
  EXPECT_EQ(argmin(dbl), argmin(flt));
}

// ---- Edge cases and validation ---------------------------------------------

TEST(Sweep, RejectsNonSweepableKernel) {
  Stream s(23);
  const Dataset d = kreg::data::paper_dgp(50, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 5);
  EXPECT_THROW(sweep_cv_profile(d, grid.values(), KernelType::kGaussian),
               std::invalid_argument);
  EXPECT_THROW(sweep_cv_profile(d, grid.values(), KernelType::kCosine),
               std::invalid_argument);
}

TEST(Sweep, RejectsEmptyInputsAndBadGrids) {
  Stream s(24);
  const Dataset d = kreg::data::paper_dgp(50, s);
  const Dataset empty;
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 5);
  EXPECT_THROW(sweep_cv_profile(empty, grid.values(),
                                KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> descending = {0.5, 0.2};
  EXPECT_THROW(sweep_cv_profile(d, descending, KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> non_positive = {0.0, 0.5};
  EXPECT_THROW(sweep_cv_profile(d, non_positive, KernelType::kEpanechnikov),
               std::invalid_argument);
}

TEST(Sweep, SingleObservationProfileIsZero) {
  // n = 1: the only residual has M(X_0) = 0 at every bandwidth.
  Dataset d{{0.5}, {2.0}};
  const std::vector<double> grid = {0.1, 0.5, 1.0};
  const auto profile = sweep_cv_profile(d, grid, KernelType::kEpanechnikov);
  for (double score : profile) {
    EXPECT_DOUBLE_EQ(score, 0.0);
  }
}

TEST(Sweep, DuplicateXValuesHandled) {
  // Ties in X (zero distances beyond self) must not break the sweep.
  Dataset d{{0.5, 0.5, 0.5, 0.7}, {1.0, 2.0, 3.0, 4.0}};
  const std::vector<double> grid = {0.1, 0.3, 0.8};
  const auto swept = sweep_cv_profile(d, grid, KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(swept[b], naive[b], 1e-12);
  }
}

TEST(Sweep, SingleBandwidthGrid) {
  Stream s(25);
  const Dataset d = kreg::data::paper_dgp(100, s);
  const std::vector<double> grid = {0.25};
  const auto swept = sweep_cv_profile(d, grid, KernelType::kEpanechnikov);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_NEAR(swept[0], cv_score(d, 0.25), 1e-10);
}

TEST(Sweep, LargeGridDenseCheck) {
  // k near the device cap with a small n: every bandwidth must still agree
  // with the naive path (the sweep's pointer never rewinds).
  Stream s(26);
  const Dataset d = kreg::data::paper_dgp(60, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 512);
  const auto swept = sweep_cv_profile(d, grid.values(),
                                      KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid.values(),
                                   KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    ASSERT_NEAR(swept[b], naive[b], 1e-9 * std::max(1.0, naive[b]))
        << "b=" << b;
  }
}

// ---- Window sweep (global sort + two monotone pointers) --------------------

class WindowSweepEquivalenceTest : public ::testing::TestWithParam<SweepParam> {
};

TEST_P(WindowSweepEquivalenceTest, MatchesNaiveProfile) {
  const auto [kernel, dgp_idx] = GetParam();
  Stream s(40 + dgp_idx);
  const auto& dgp = kreg::data::all_dgps()[dgp_idx];
  const Dataset d = dgp.generate(300, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 25);

  const std::vector<double> naive = naive_profile(d, grid.values(), kernel);
  const std::vector<double> windowed =
      window_cv_profile(d, grid.values(), kernel, Precision::kDouble);

  ASSERT_EQ(windowed.size(), naive.size());
  for (std::size_t b = 0; b < naive.size(); ++b) {
    ASSERT_NEAR(windowed[b], naive[b], 1e-9 * std::max(1.0, naive[b]))
        << dgp.name << "/" << to_string(kernel) << " at h=" << grid[b];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDgps, WindowSweepEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(kSweepable),
                       ::testing::Values<std::size_t>(0, 1, 2, 3, 4)),
    [](const auto& suite_info) {
      return std::string(kreg::to_string(std::get<0>(suite_info.param))) + "_" +
             kreg::data::all_dgps()[std::get<1>(suite_info.param)].name;
    });

TEST(WindowSweep, MatchesPerRowSortProfileClosely) {
  // Both incremental paths accumulate the same moment sums (different
  // admission order), so they agree far tighter than either does vs naive.
  Stream s(41);
  const Dataset d = kreg::data::paper_dgp(600, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  const auto per_row = sweep_cv_profile(d, grid.values(),
                                        KernelType::kEpanechnikov);
  const auto windowed = window_cv_profile(d, grid.values(),
                                          KernelType::kEpanechnikov);
  ASSERT_EQ(per_row.size(), windowed.size());
  for (std::size_t b = 0; b < per_row.size(); ++b) {
    EXPECT_NEAR(windowed[b], per_row[b], 1e-10 * std::max(1.0, per_row[b]));
  }
}

TEST(WindowSweep, ParallelMatchesSequential) {
  // The selector's parallel mode: the tiled profile on the given pool.
  Stream s(42);
  const Dataset d = kreg::data::paper_dgp(700, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 50);
  const auto seq = window_cv_profile(d, grid.values(),
                                     KernelType::kEpanechnikov);
  kreg::parallel::ThreadPool pool(4);
  const auto par = kreg::WindowSweepSelector(KernelType::kEpanechnikov,
                                             Precision::kDouble,
                                             /*parallel=*/true, &pool)
                       .select(d, grid)
                       .scores;
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t b = 0; b < seq.size(); ++b) {
    EXPECT_NEAR(par[b], seq[b], 1e-11 * std::max(1.0, seq[b]));
  }
}

TEST(WindowSweep, FloatTracksDoubleWithinSinglePrecision) {
  Stream s(43);
  const Dataset d = kreg::data::paper_dgp(500, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 40);
  const auto dbl = window_cv_profile(d, grid.values(),
                                     KernelType::kEpanechnikov,
                                     Precision::kDouble);
  const auto flt = window_cv_profile(d, grid.values(),
                                     KernelType::kEpanechnikov,
                                     Precision::kFloat);
  for (std::size_t b = 0; b < dbl.size(); ++b) {
    EXPECT_NEAR(flt[b], dbl[b], 1e-3 * std::max(1.0, dbl[b])) << "b=" << b;
  }
}

TEST(WindowSweep, DuplicateXValuesHandled) {
  // Ties in X collapse to zero distances; both pointers must admit all of
  // them (and nothing twice).
  Dataset d{{0.5, 0.5, 0.5, 0.7}, {1.0, 2.0, 3.0, 4.0}};
  const std::vector<double> grid = {0.1, 0.3, 0.8};
  const auto windowed = window_cv_profile(d, grid, KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(windowed[b], naive[b], 1e-12);
  }
}

TEST(WindowSweep, TwoObservations) {
  // n = 2 exercises both boundary pointers immediately.
  Dataset d{{0.2, 0.8}, {1.0, 3.0}};
  const std::vector<double> grid = {0.1, 0.5, 0.7, 1.0};
  const auto windowed = window_cv_profile(d, grid, KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(windowed[b], naive[b], 1e-12) << "h=" << grid[b];
  }
}

TEST(WindowSweep, EmptyNeighbourhoodContributesZero) {
  // An isolated observation has M(X_i) = 0 at small h: its residual must be
  // dropped, not produce a 0/0.
  Dataset d{{0.0, 0.01, 5.0}, {1.0, 2.0, 100.0}};
  const std::vector<double> grid = {0.05, 0.1};
  const auto windowed = window_cv_profile(d, grid, KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid, KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(windowed[b], naive[b], 1e-12) << "h=" << grid[b];
  }
}

TEST(WindowSweep, RejectsBadInputs) {
  Stream s(44);
  const Dataset d = kreg::data::paper_dgp(50, s);
  const Dataset empty;
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 5);
  EXPECT_THROW(window_cv_profile(empty, grid.values(),
                                 KernelType::kEpanechnikov),
               std::invalid_argument);
  EXPECT_THROW(window_cv_profile(d, grid.values(), KernelType::kGaussian),
               std::invalid_argument);
  const std::vector<double> descending = {0.5, 0.2};
  EXPECT_THROW(window_cv_profile(d, descending, KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> duplicate = {0.2, 0.2, 0.5};
  EXPECT_THROW(window_cv_profile(d, duplicate, KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> non_positive = {0.0, 0.5};
  EXPECT_THROW(window_cv_profile(d, non_positive, KernelType::kEpanechnikov),
               std::invalid_argument);
}

TEST(WindowSweep, LargeGridDenseCheck) {
  Stream s(45);
  const Dataset d = kreg::data::paper_dgp(60, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 512);
  const auto windowed = window_cv_profile(d, grid.values(),
                                          KernelType::kEpanechnikov);
  const auto naive = naive_profile(d, grid.values(),
                                   KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    ASSERT_NEAR(windowed[b], naive[b], 1e-9 * std::max(1.0, naive[b]))
        << "b=" << b;
  }
}

TEST(WindowSweep, SortDatasetOrdersAndPairs) {
  const std::vector<double> x = {0.9, 0.1, 0.5};
  const std::vector<double> y = {9.0, 1.0, 5.0};
  const auto sorted = kreg::sort_dataset<double>(x, y);
  ASSERT_EQ(sorted.x.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted.x[0], 0.1);
  EXPECT_DOUBLE_EQ(sorted.x[1], 0.5);
  EXPECT_DOUBLE_EQ(sorted.x[2], 0.9);
  EXPECT_DOUBLE_EQ(sorted.y[0], 1.0);
  EXPECT_DOUBLE_EQ(sorted.y[1], 5.0);
  EXPECT_DOUBLE_EQ(sorted.y[2], 9.0);
}

TEST(Sweep, MonotoneAdmissionProperty) {
  // Internal consistency of the §III argument: denominators (weighted
  // counts) can only grow with h for the Uniform kernel, where weights are
  // constants — so the number of M(X_i)=0 drops can only shrink. We verify
  // via the naive predictor for transparency.
  Stream s(27);
  const Dataset d = kreg::data::paper_dgp(150, s);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 20);
  std::size_t previous_valid = 0;
  for (double h : grid.values()) {
    const auto loo = kreg::loo_predict_all(d, h, KernelType::kUniform);
    std::size_t valid = 0;
    for (const auto& p : loo) {
      valid += p.valid ? 1 : 0;
    }
    EXPECT_GE(valid, previous_valid) << "h=" << h;
    previous_valid = valid;
  }
}

}  // namespace
