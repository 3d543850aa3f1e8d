// Tests for kernel weighting functions: values, support, normalization (by
// numeric integration), traits, and the sweep-polynomial representation the
// fast grid search relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/kernels.hpp"

namespace {

using kreg::KernelType;

double integrate(double (*f)(KernelType, double), KernelType kernel,
                 double lo, double hi, int steps = 200000) {
  // Simple midpoint rule; plenty for 1e-6 checks on smooth kernels.
  const double dx = (hi - lo) / steps;
  double acc = 0.0;
  for (int i = 0; i < steps; ++i) {
    acc += f(kernel, lo + (i + 0.5) * dx);
  }
  return acc * dx;
}

double kernel_sq(KernelType k, double u) {
  const double v = kreg::kernel_value(k, u);
  return v * v;
}

double kernel_u2(KernelType k, double u) {
  return u * u * kreg::kernel_value(k, u);
}

class KernelPropertyTest : public ::testing::TestWithParam<KernelType> {};

TEST_P(KernelPropertyTest, IntegratesToOne) {
  const KernelType k = GetParam();
  const double lo = kreg::is_compact(k) ? -1.0 : -10.0;
  EXPECT_NEAR(integrate(kreg::kernel_value, k, lo, -lo), 1.0, 1e-4)
      << to_string(k);
}

TEST_P(KernelPropertyTest, NonNegativeAndSymmetric) {
  const KernelType k = GetParam();
  for (double u = -3.0; u <= 3.0; u += 0.01) {
    const double v = kreg::kernel_value(k, u);
    EXPECT_GE(v, 0.0);
    EXPECT_NEAR(v, kreg::kernel_value(k, -u), 1e-15);
  }
}

TEST_P(KernelPropertyTest, CompactSupportHonored) {
  const KernelType k = GetParam();
  if (!kreg::is_compact(k)) {
    EXPECT_GT(kreg::kernel_value(k, 5.0), 0.0);  // Gaussian never vanishes
    return;
  }
  EXPECT_EQ(kreg::kernel_value(k, 1.0001), 0.0);
  EXPECT_EQ(kreg::kernel_value(k, -1.0001), 0.0);
}

TEST_P(KernelPropertyTest, RoughnessMatchesNumericIntegral) {
  const KernelType k = GetParam();
  const double lo = kreg::is_compact(k) ? -1.0 : -10.0;
  EXPECT_NEAR(integrate(kernel_sq, k, lo, -lo), kreg::roughness(k), 1e-4)
      << to_string(k);
}

TEST_P(KernelPropertyTest, SecondMomentMatchesNumericIntegral) {
  const KernelType k = GetParam();
  const double lo = kreg::is_compact(k) ? -1.0 : -12.0;
  EXPECT_NEAR(integrate(kernel_u2, k, lo, -lo), kreg::second_moment(k), 1e-4)
      << to_string(k);
}

TEST_P(KernelPropertyTest, SweepPolynomialReproducesKernelOnSupport) {
  const KernelType k = GetParam();
  if (!kreg::is_sweepable(k)) {
    EXPECT_THROW(kreg::sweep_polynomial(k), std::invalid_argument);
    return;
  }
  const auto poly = kreg::sweep_polynomial(k);
  for (double u = 0.0; u <= 1.0; u += 0.001) {
    double acc = 0.0;
    double pw = 1.0;
    for (std::size_t m = 0; m <= poly.max_power; ++m) {
      acc += poly.coeff[m] * pw;
      pw *= u;
    }
    ASSERT_NEAR(acc, kreg::kernel_value(k, u), 1e-12)
        << to_string(k) << " at u=" << u;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, KernelPropertyTest,
                         ::testing::ValuesIn(kreg::kAllKernels),
                         [](const auto& suite_info) {
                           return std::string(kreg::to_string(suite_info.param));
                         });

TEST(Kernels, EpanechnikovMatchesPaperFormula) {
  // K(u) = 0.75 (1 - u²) 1{|u| <= 1}  (paper Eq. 3)
  EXPECT_DOUBLE_EQ(kreg::kernel_value(KernelType::kEpanechnikov, 0.0), 0.75);
  EXPECT_DOUBLE_EQ(kreg::kernel_value(KernelType::kEpanechnikov, 0.5),
                   0.75 * 0.75);
  EXPECT_DOUBLE_EQ(kreg::kernel_value(KernelType::kEpanechnikov, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(kreg::kernel_value(KernelType::kEpanechnikov, 2.0), 0.0);
}

TEST(Kernels, SweepabilityMatchesFootnoteOne) {
  // Footnote 1: the sorting strategy covers Epanechnikov, Uniform and
  // Triangular; the Gaussian has no exclusion indicator. (We extend the
  // sweep to Biweight/Triweight; Cosine is compact but non-polynomial.)
  EXPECT_TRUE(kreg::is_sweepable(KernelType::kEpanechnikov));
  EXPECT_TRUE(kreg::is_sweepable(KernelType::kUniform));
  EXPECT_TRUE(kreg::is_sweepable(KernelType::kTriangular));
  EXPECT_TRUE(kreg::is_sweepable(KernelType::kBiweight));
  EXPECT_TRUE(kreg::is_sweepable(KernelType::kTriweight));
  EXPECT_FALSE(kreg::is_sweepable(KernelType::kCosine));
  EXPECT_FALSE(kreg::is_sweepable(KernelType::kGaussian));
}

TEST(Kernels, NamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (KernelType k : kreg::kAllKernels) {
    const auto name = kreg::to_string(k);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

}  // namespace
