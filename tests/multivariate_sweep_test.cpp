// Tests for the multivariate ray sweep: agreement with the direct product-
// kernel CV at every scale, collapse to the univariate sweep at p = 1,
// kernels, dimensions, and edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/grid.hpp"
#include "core/loocv.hpp"
#include "core/multivariate.hpp"
#include "core/multivariate_sweep.hpp"
#include "core/sorted_sweep.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "data/mdataset.hpp"
#include "rng/stream.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::data::MDataset;
using kreg::rng::Stream;

using RayParam = std::tuple<KernelType, std::size_t /*dim*/>;

class RaySweepTest : public ::testing::TestWithParam<RayParam> {};

TEST_P(RaySweepTest, ProfileMatchesDirectMultivariateCv) {
  const auto [kernel, dim] = GetParam();
  Stream s(70 + dim);
  const MDataset data = kreg::data::multivariate_dgp(150, dim, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 15);

  const auto profile =
      kreg::multi_ray_cv_profile(data, ratios, scales.values(), kernel);
  ASSERT_EQ(profile.size(), scales.size());
  for (std::size_t b = 0; b < scales.size(); ++b) {
    std::vector<double> h(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      h[j] = scales[b] * ratios[j];
    }
    const double direct = kreg::cv_score_multi(data, h, kernel);
    ASSERT_NEAR(profile[b], direct, 1e-9 * std::max(1.0, direct))
        << to_string(kernel) << " dim=" << dim << " c=" << scales[b];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDims, RaySweepTest,
    ::testing::Combine(::testing::Values(KernelType::kEpanechnikov,
                                         KernelType::kUniform,
                                         KernelType::kTriangular,
                                         KernelType::kBiweight),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& suite_info) {
      return std::string(kreg::to_string(std::get<0>(suite_info.param))) + "_dim" +
             std::to_string(std::get<1>(suite_info.param));
    });

TEST(RaySweep, CollapsesToUnivariateSweepAtDimOne) {
  Stream s(80);
  const kreg::data::Dataset uni = kreg::data::paper_dgp(200, s);
  const MDataset multi = kreg::data::to_multivariate(uni);
  const std::vector<double> ratios = {1.0};  // h = c directly
  const BandwidthGrid grid = BandwidthGrid::default_for(uni, 20);

  const auto ray =
      kreg::multi_ray_cv_profile(multi, ratios, grid.values(),
                                 KernelType::kEpanechnikov);
  const auto sweep = kreg::sweep_cv_profile(uni, grid.values(),
                                            KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(ray[b], sweep[b], 1e-10 * std::max(1.0, sweep[b]));
  }
}

TEST(RaySweep, ParallelMatchesSequential) {
  Stream s(81);
  const MDataset data = kreg::data::multivariate_dgp(200, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 20);
  const auto seq = kreg::multi_ray_cv_profile(data, ratios, scales.values(),
                                              KernelType::kEpanechnikov);
  const auto par = kreg::multi_ray_cv_profile_parallel(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    EXPECT_NEAR(par[b], seq[b], 1e-11 * std::max(1.0, seq[b]));
  }
}

TEST(RaySweep, SelectReturnsScaledBandwidthVector) {
  Stream s(82);
  const MDataset data = kreg::data::multivariate_dgp(150, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 25);
  const auto r = kreg::multi_ray_select(data, ratios, scales);
  ASSERT_EQ(r.bandwidths.size(), 2u);
  // The bandwidth vector lies on the ray.
  EXPECT_NEAR(r.bandwidths[0] / ratios[0], r.bandwidths[1] / ratios[1],
              1e-12);
  EXPECT_NEAR(r.cv_score, kreg::cv_score_multi(data, r.bandwidths), 1e-9);
}

TEST(RaySweep, RayOptimumNoBetterThanCartesianOptimum) {
  // The ray is a 1-D slice of the Cartesian grid space; its optimum cannot
  // beat an exhaustive search over a grid containing comparable points.
  Stream s(83);
  const MDataset data = kreg::data::multivariate_dgp(120, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(1.0 / 8.0, 1.0, 8);
  const auto ray = kreg::multi_ray_select(data, ratios, scales);
  const auto grids = kreg::default_grids_for(data, 8);
  const auto cartesian = kreg::multi_grid_search(data, grids);
  EXPECT_GE(ray.cv_score, cartesian.cv_score - 1e-9);
}

TEST(RaySweep, ValidatesInputs) {
  Stream s(84);
  const MDataset data = kreg::data::multivariate_dgp(50, 2, s);
  const BandwidthGrid scales(0.1, 1.0, 5);
  const std::vector<double> wrong_count = {1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile(data, wrong_count, scales.values(),
                                          KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile(data, negative, scales.values(),
                                          KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> ratios = {1.0, 1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile(data, ratios, scales.values(),
                                          KernelType::kGaussian),
               std::invalid_argument);
  const std::vector<double> descending = {0.5, 0.1};
  EXPECT_THROW(kreg::multi_ray_cv_profile(data, ratios, descending,
                                          KernelType::kEpanechnikov),
               std::invalid_argument);
}

TEST(RaySweep, TriweightIn3DWithinDegreeCap) {
  // Triweight (degree 6) × 3 dims = degree 18 <= cap 24.
  Stream s(85);
  const MDataset data = kreg::data::multivariate_dgp(80, 3, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.2, 1.0, 6);
  const auto profile = kreg::multi_ray_cv_profile(
      data, ratios, scales.values(), KernelType::kTriweight);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    std::vector<double> h(3);
    for (std::size_t j = 0; j < 3; ++j) {
      h[j] = scales[b] * ratios[j];
    }
    EXPECT_NEAR(profile[b],
                kreg::cv_score_multi(data, h, KernelType::kTriweight),
                1e-8 * std::max(1.0, profile[b]));
  }
}

TEST(RaySweep, DefaultRatiosAreDomains) {
  Stream s(86);
  const MDataset data = kreg::data::multivariate_dgp(100, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  EXPECT_DOUBLE_EQ(ratios[0], data.domain(0));
  EXPECT_DOUBLE_EQ(ratios[1], data.domain(1));
}

TEST(RaySweep, DefaultRatiosClampConstantDimension) {
  // Regression: a constant dimension has zero domain, and a zero ratio was
  // handed straight to multi_ray_cv_profile, which rejects it. The clamp
  // substitutes the largest positive domain so the ray stays usable.
  Stream s(87);
  MDataset data = kreg::data::multivariate_dgp(60, 2, s);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.x[i * 2 + 1] = 0.25;  // dimension 1 constant
  }
  const auto ratios = kreg::default_ray_ratios(data);
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_DOUBLE_EQ(ratios[0], data.domain(0));
  EXPECT_GT(ratios[1], 0.0);
  EXPECT_DOUBLE_EQ(ratios[1], data.domain(0));  // clamped to the largest

  // The clamped ray runs end to end and matches the direct CV.
  const BandwidthGrid scales(0.1, 1.0, 6);
  const auto profile = kreg::multi_ray_cv_profile(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    const std::vector<double> h = {scales[b] * ratios[0],
                                   scales[b] * ratios[1]};
    EXPECT_NEAR(profile[b],
                kreg::cv_score_multi(data, h, KernelType::kEpanechnikov),
                1e-9 * std::max(1.0, profile[b]));
  }
}

TEST(RaySweep, DefaultRatiosAllConstantFallBackToOne) {
  MDataset data;
  data.dim = 2;
  for (int i = 0; i < 8; ++i) {
    data.x.push_back(0.5);
    data.x.push_back(-1.0);
    data.y.push_back(static_cast<double>(i));
  }
  const auto ratios = kreg::default_ray_ratios(data);
  EXPECT_DOUBLE_EQ(ratios[0], 1.0);
  EXPECT_DOUBLE_EQ(ratios[1], 1.0);
}

// ---- Ray window sweep ------------------------------------------------------

class RayWindowTest : public ::testing::TestWithParam<RayParam> {};

TEST_P(RayWindowTest, WindowProfileMatchesPerRowAndDirect) {
  const auto [kernel, dim] = GetParam();
  Stream s(90 + dim);
  const MDataset data = kreg::data::multivariate_dgp(150, dim, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 15);

  const auto window = kreg::multi_ray_cv_profile_window(
      data, ratios, scales.values(), kernel);
  const auto per_row =
      kreg::multi_ray_cv_profile(data, ratios, scales.values(), kernel);
  ASSERT_EQ(window.size(), scales.size());
  for (std::size_t b = 0; b < scales.size(); ++b) {
    EXPECT_NEAR(window[b], per_row[b], 1e-9 * std::max(1.0, per_row[b]))
        << to_string(kernel) << " dim=" << dim << " c=" << scales[b];
    std::vector<double> h(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      h[j] = scales[b] * ratios[j];
    }
    const double direct = kreg::cv_score_multi(data, h, kernel);
    EXPECT_NEAR(window[b], direct, 1e-9 * std::max(1.0, direct))
        << to_string(kernel) << " dim=" << dim << " c=" << scales[b];
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDims, RayWindowTest,
    ::testing::Combine(::testing::Values(KernelType::kEpanechnikov,
                                         KernelType::kUniform,
                                         KernelType::kTriangular,
                                         KernelType::kBiweight),
                       ::testing::Values<std::size_t>(1, 2, 3)),
    [](const auto& suite_info) {
      return std::string(kreg::to_string(std::get<0>(suite_info.param))) + "_dim" +
             std::to_string(std::get<1>(suite_info.param));
    });

TEST(RayWindow, CollapsesToUnivariateWindowProfileAtDimOne) {
  Stream s(95);
  const kreg::data::Dataset uni = kreg::data::paper_dgp(200, s);
  const MDataset multi = kreg::data::to_multivariate(uni);
  const std::vector<double> ratios = {1.0};  // h = c directly
  const BandwidthGrid grid = BandwidthGrid::default_for(uni, 20);

  const auto ray = kreg::multi_ray_cv_profile_window(
      multi, ratios, grid.values(), KernelType::kEpanechnikov);
  const auto window = kreg::window_cv_profile(uni, grid.values(),
                                              KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    EXPECT_NEAR(ray[b], window[b], 1e-10 * std::max(1.0, window[b]));
  }
}

TEST(RayWindow, HandlesTiedAndDuplicateCoordinates) {
  // Duplicated rows and tied first coordinates stress the sorted-z window
  // edges (<= comparisons, zero distances) and the ρ buckets at ρ = 0.
  Stream s(96);
  MDataset data = kreg::data::multivariate_dgp(80, 2, s);
  for (std::size_t i = 0; i < 20; ++i) {
    // Duplicate row i as row i + 20 (same x, different y).
    data.x[(i + 20) * 2] = data.x[i * 2];
    data.x[(i + 20) * 2 + 1] = data.x[i * 2 + 1];
    // Tie first coordinates across another block.
    data.x[(i + 40) * 2] = data.x[i * 2];
  }
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 12);
  const auto window = kreg::multi_ray_cv_profile_window(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  const auto per_row = kreg::multi_ray_cv_profile(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    EXPECT_NEAR(window[b], per_row[b], 1e-9 * std::max(1.0, per_row[b]));
  }
}

TEST(RayWindow, HandlesDegenerateRay) {
  // A constant first dimension makes every z identical: the z-window spans
  // the whole dataset at the first scale and all filtering falls to the
  // remaining dimensions.
  Stream s(97);
  MDataset data = kreg::data::multivariate_dgp(60, 2, s);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.x[i * 2] = 0.5;
  }
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.1, 1.0, 8);
  const auto window = kreg::multi_ray_cv_profile_window(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  const auto per_row = kreg::multi_ray_cv_profile(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    EXPECT_NEAR(window[b], per_row[b], 1e-9 * std::max(1.0, per_row[b]));
  }
}

TEST(RayWindow, ParallelMatchesSequential) {
  Stream s(98);
  const MDataset data = kreg::data::multivariate_dgp(200, 3, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 20);
  const auto seq = kreg::multi_ray_cv_profile_window(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  const auto par = kreg::multi_ray_cv_profile_window_parallel(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t b = 0; b < scales.size(); ++b) {
    EXPECT_NEAR(par[b], seq[b], 1e-11 * std::max(1.0, seq[b]));
  }
}

TEST(RayWindow, ParallelIsDeterministicAcrossRuns) {
  Stream s(99);
  const MDataset data = kreg::data::multivariate_dgp(150, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 15);
  const auto a = kreg::multi_ray_cv_profile_window_parallel(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  const auto b = kreg::multi_ray_cv_profile_window_parallel(
      data, ratios, scales.values(), KernelType::kEpanechnikov);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "bitwise determinism at scale " << i;
  }
}

TEST(RayWindow, ValidatesInputsLikePerRow) {
  Stream s(100);
  const MDataset data = kreg::data::multivariate_dgp(50, 2, s);
  const BandwidthGrid scales(0.1, 1.0, 5);
  const std::vector<double> wrong_count = {1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile_window(
                   data, wrong_count, scales.values(),
                   KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile_window(
                   data, negative, scales.values(), KernelType::kEpanechnikov),
               std::invalid_argument);
  const std::vector<double> ratios = {1.0, 1.0};
  EXPECT_THROW(kreg::multi_ray_cv_profile_window(data, ratios, scales.values(),
                                                 KernelType::kGaussian),
               std::invalid_argument);
  const std::vector<double> descending = {0.5, 0.1};
  EXPECT_THROW(kreg::multi_ray_cv_profile_window(data, ratios, descending,
                                                 KernelType::kEpanechnikov),
               std::invalid_argument);
}

TEST(RayWindow, SelectRoutesOnAlgorithm) {
  Stream s(101);
  const MDataset data = kreg::data::multivariate_dgp(150, 2, s);
  const auto ratios = kreg::default_ray_ratios(data);
  const BandwidthGrid scales(0.05, 1.0, 25);
  const auto window = kreg::multi_ray_select(data, ratios, scales,
                                             KernelType::kEpanechnikov,
                                             kreg::SweepAlgorithm::kWindow);
  const auto per_row = kreg::multi_ray_select(
      data, ratios, scales, KernelType::kEpanechnikov,
      kreg::SweepAlgorithm::kPerRowSort);
  ASSERT_EQ(window.bandwidths.size(), per_row.bandwidths.size());
  for (std::size_t j = 0; j < window.bandwidths.size(); ++j) {
    EXPECT_DOUBLE_EQ(window.bandwidths[j], per_row.bandwidths[j]);
  }
  EXPECT_NEAR(window.cv_score, per_row.cv_score,
              1e-9 * std::max(1.0, per_row.cv_score));
  EXPECT_NE(window.method.find("window"), std::string::npos);
  EXPECT_NE(per_row.method.find("sweep"), std::string::npos);
}

}  // namespace
