#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>

#include "core/kernels.hpp"

namespace kreg::detail {

/// Polynomial in |u| with compact support [0, support_scale] (in h units):
/// the shared representation of K (support 1) and K̄ = K*K (support 2) used
/// by the host and device KDE sweeps.
struct SupportPolynomial {
  std::array<double, 6> coeff{};  ///< coeff[m] multiplies |u|^m
  std::size_t max_power = 0;
  double support_scale = 1.0;  ///< admitted when |Δ| <= support_scale * h
};

/// K as a support polynomial. Only valid for KDE-sweepable kernels
/// (Epanechnikov, Uniform).
inline SupportPolynomial kde_kernel_poly(KernelType kernel) {
  SupportPolynomial p;
  p.support_scale = 1.0;
  if (kernel == KernelType::kEpanechnikov) {
    p.coeff[0] = 0.75;
    p.coeff[2] = -0.75;
    p.max_power = 2;
  } else {  // Uniform
    p.coeff[0] = 0.5;
    p.max_power = 0;
  }
  return p;
}

/// K̄ = K*K as a support polynomial.
inline SupportPolynomial kde_convolution_poly(KernelType kernel) {
  SupportPolynomial p;
  p.support_scale = 2.0;
  if (kernel == KernelType::kEpanechnikov) {
    // (K*K)(u) = 3/160 (2−|u|)³(u² + 6|u| + 4)
    //          = 0.6 − 0.75u² + 0.375|u|³ − (3/160)|u|⁵  on [0, 2].
    p.coeff[0] = 0.6;
    p.coeff[2] = -0.75;
    p.coeff[3] = 0.375;
    p.coeff[5] = -3.0 / 160.0;
    p.max_power = 5;
  } else {  // Uniform: the triangle (2 − |u|)/4.
    p.coeff[0] = 0.5;
    p.coeff[1] = -0.25;
    p.max_power = 1;
  }
  return p;
}

inline constexpr std::size_t kKdeMaxMoment = 5;

/// Σ_m coeff[m] h^(−m) (sums[m] − self_m): the self term (distance 0,
/// always admitted) contributes 1 to moment 0 only. Shared recombination of
/// the prefix-pointer and window moment accumulators.
inline double combine_moments(std::span<const double, kKdeMaxMoment + 1> sums,
                              const SupportPolynomial& poly, double h) {
  double acc = 0.0;
  const double inv_h = 1.0 / h;
  double inv_pow = 1.0;
  for (std::size_t m = 0; m <= poly.max_power; ++m) {
    if (poly.coeff[m] != 0.0) {
      const double moment = m == 0 ? sums[m] - 1.0 : sums[m];
      acc += poly.coeff[m] * moment * inv_pow;
    }
    inv_pow *= inv_h;
  }
  return acc;
}

/// Running moment sums Σ|Δ|^m over an admitted prefix of a sorted distance
/// row, extended lazily as its pointer advances.
struct MomentSweep {
  std::array<double, kKdeMaxMoment + 1> sums{};
  std::size_t pointer = 0;

  void admit_through(std::span<const double> sorted, double limit,
                     std::size_t max_power) {
    while (pointer < sorted.size() && sorted[pointer] <= limit) {
      const double a = sorted[pointer];
      double pw = 1.0;
      for (std::size_t m = 0; m <= max_power; ++m) {
        sums[m] += pw;
        pw *= a;
      }
      ++pointer;
    }
  }

  double combine(const SupportPolynomial& poly, double h) const {
    return combine_moments(sums, poly, h);
  }
};

/// Running moment sums Σ|Δ|^m over a contiguous window of the *globally
/// sorted* X array around one observation — the window-sweep counterpart of
/// MomentSweep, as a view over carried state (KdeWindow keeps two of them
/// in one WindowState). Seeded with the self term; the left and right
/// pointers only move outward as the admission limit grows across the
/// ascending grid, so each observation contributes O(k + admitted) work
/// with no per-row sort.
struct WindowMomentSweep {
  std::size_t& lo;  ///< inclusive left edge of the admitted window
  std::size_t& hi;  ///< inclusive right edge
  std::span<double, kKdeMaxMoment + 1> sums;

  void seed(std::size_t pos) {
    lo = hi = pos;
    std::fill(sums.begin(), sums.end(), 0.0);
    sums[0] = 1.0;  // self term: |Δ| = 0 contributes to moment 0 only
  }

  void expand(std::span<const double> xs_sorted, double xi, double limit,
              std::size_t max_power) {
    while (lo > 0 && xi - xs_sorted[lo - 1] <= limit) {
      admit(xi - xs_sorted[--lo], max_power);
    }
    while (hi + 1 < xs_sorted.size() && xs_sorted[hi + 1] - xi <= limit) {
      admit(xs_sorted[++hi] - xi, max_power);
    }
  }

  double combine(const SupportPolynomial& poly, double h) const {
    return combine_moments(sums, poly, h);
  }

 private:
  void admit(double a, std::size_t max_power) {
    double pw = 1.0;
    for (std::size_t m = 0; m <= max_power; ++m) {
      sums[m] += pw;
      pw *= a;
    }
  }
};

/// One observation's LSCV contribution from its two pair sums. The
/// combination is linear in (conv, loo), so Σ_i of these partials equals
/// LSCV(h) − R(K)/(nh) — which lets the device window path keep a single
/// n×k partial matrix instead of two contribution matrices.
inline double lscv_pair_partial(double conv_i, double loo_i, std::size_t n,
                                double h) {
  const double dn = static_cast<double>(n);
  return conv_i / (dn * dn * h) - 2.0 * loo_i / (dn * (dn - 1.0) * h);
}

/// Assembles LSCV(h) from the per-bandwidth totals of the two pair sums:
/// LSCV = R(K)/(nh) + conv/(n²h) − 2·loo/(n(n−1)h).
inline double assemble_lscv(double roughness_value, double conv_total,
                            double loo_total, std::size_t n, double h) {
  const double dn = static_cast<double>(n);
  return roughness_value / (dn * h) +
         lscv_pair_partial(conv_total, loo_total, n, h);
}

}  // namespace kreg::detail
