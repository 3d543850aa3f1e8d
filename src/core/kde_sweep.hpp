#pragma once

#include <span>
#include <vector>

#include "core/grid.hpp"
#include "core/kde.hpp"
#include "core/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg {

/// The paper's sorting-based sweep applied to KDE bandwidth selection — the
/// first extension its §II promises ("the methods developed here for
/// least-squares cross-validation can be applied to … optimal bandwidth
/// selection for kernel density estimation").
///
/// LSCV(h) = R(K)/(nh) + (n²h)⁻¹ Σ_{i≠l} K̄(Δ/h) − 2(n(n−1)h)⁻¹ Σ_{i≠l} K(Δ/h)
///
/// with K̄ = K*K. For the Epanechnikov and Uniform kernels both K (support
/// [0,1]) and K̄ (support [0,2]) are polynomials in |u|, so the §III
/// argument carries over verbatim: sort each observation's distance row
/// once, then sweep the ascending bandwidth grid with *two* admission
/// pointers (|Δ| ≤ h for the K sum, |Δ| ≤ 2h for the K̄ sum) extending the
/// shared moment sums Σ|Δ|^m incrementally. All k bandwidths cost
/// O(n log n) per observation — O(n² log n) total versus O(k·n²) for the
/// direct evaluation in kde_lscv_score.
///
/// Expanded convolution polynomials (|u| ≤ 2):
///   Epanechnikov: K̄(u) = 0.6 − 0.75u² + 0.375|u|³ − (3/160)|u|⁵
///   Uniform:      K̄(u) = 0.5 − |u|/4
/// (The Triangular's K̄ is piecewise and the Gaussian's is unbounded, so
/// they stay on the direct path.)

/// True when the sweep supports this kernel's LSCV (compact polynomial K
/// *and* single-polynomial K̄): Epanechnikov and Uniform.
bool is_kde_sweepable(KernelType kernel) noexcept;

/// LSCV profile for every h in the ascending grid via the sorted sweep.
/// Requires is_kde_sweepable(kernel), n >= 2, positive ascending grid.
std::vector<double> kde_sweep_lscv_profile(std::span<const double> xs,
                                           std::span<const double> grid,
                                           KernelType kernel);

/// Same profile with observations distributed across a thread pool.
std::vector<double> kde_sweep_lscv_profile_parallel(
    std::span<const double> xs, std::span<const double> grid,
    KernelType kernel, parallel::ThreadPool* pool = nullptr);

/// Window-sweep LSCV profile: X is sorted **once globally**, then each
/// observation grows two two-pointer windows over the sorted array (|Δ| ≤ h
/// for the K sum, |Δ| ≤ 2h for the K̄ sum) across the ascending grid — the
/// same fast-sum-updating argument as the regression window sweep, since K
/// and K̄ = K*K are both compact polynomials. O(n log n + n·(k + admitted))
/// total instead of the per-row-sort O(n² log n); identical profile up to
/// floating-point recombination error. The sweep is detail::KdeWindow
/// (detail/window_policy.hpp), the policy the device window passes run.
std::vector<double> kde_window_lscv_profile(std::span<const double> xs,
                                            std::span<const double> grid,
                                            KernelType kernel);

/// Grid selection using the sweep profile (argmin, smallest-index ties).
SelectionResult kde_select_sweep(std::span<const double> xs,
                                 const BandwidthGrid& grid,
                                 KernelType kernel = KernelType::kEpanechnikov);

/// Grid selection using the window-sweep profile.
SelectionResult kde_select_window(
    std::span<const double> xs, const BandwidthGrid& grid,
    KernelType kernel = KernelType::kEpanechnikov);

}  // namespace kreg
