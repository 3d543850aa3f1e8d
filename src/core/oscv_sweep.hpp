#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/selectors.hpp"
#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"
#include "spmd/device.hpp"

namespace kreg {

/// One-sided cross-validation (OSCV, Hart & Yi; Savchuk) on the shared
/// window machinery — the asymmetric-window workload.
///
/// OSCV replaces the LOOCV smoother with a *one-sided* one: at each X_i
/// only the neighbours in [X_i − b, X_i) participate — an asymmetric
/// admission window, so the sweep keeps the bandwidth-monotone invariant
/// with only the left pointer moving. The one-sided smoother is the
/// local-LINEAR fit with the one-sided kernel (a one-sided local mean
/// would carry O(b) boundary bias), evaluated at the window's right edge.
/// The OSCV criterion OSCV(b) = (1/n) Σ_i (Y_i − ĝ_b^-(X_i))² is minimized
/// over the b-grid, and the selected one-sided bandwidth rescales to the
/// final two-sided bandwidth ĥ = C·b̂ with the closed-form kernel constant
/// C = oscv_rescale_constant (the Hart–Yi rescaling; ≈ 0.537 for
/// Epanechnikov). Its documented payoff: CV's selected h is noticeably
/// more variable than OSCV's, and at a kink in the regression mean the
/// one-sided criterion degrades more gracefully.
///
/// Backend contract (same shape as knn_sweep.hpp): per-(i, b) residuals
/// accumulate strictly outward on the one side, so they are bit-identical
/// across every fast backend and the naive reference; sequential, device,
/// streamed-k-block and tiled profiles agree bitwise (ordered score
/// folds, on every pool). Every backend runs
/// detail::OscvWindow (detail/window_policy.hpp, wrapping
/// oscv_sweep_seed/resume/oscv_residual in detail/device_sweep.hpp).

/// The kernel-dependent constant C of the OSCV bandwidth rescaling
/// ĥ = C·b̂: with L the equivalent kernel of the one-sided local-linear
/// smoother built from K on [0, 1],
///   C = (R(K)/μ₂(K)²)^{1/5} / (R(L)/μ₂(L)²)^{1/5},
/// computed in closed form from K's sweep polynomial (all integrals of
/// polynomials over [0, 1]). Epanechnikov: 0.53713…; uniform: 0.5 exactly.
/// Throws for non-sweepable kernels.
double oscv_rescale_constant(KernelType kernel);

/// Full one-sided profile OSCV(b) for every b in the (strictly ascending,
/// validated) grid, sequentially over observations via the fast sweep.
std::vector<double> oscv_profile(const data::Dataset& data,
                                 std::span<const double> grid,
                                 KernelType kernel,
                                 Precision precision = Precision::kDouble);

/// The host's parallel profile: oscv_profile bit for bit on every pool
/// (`pool` nullptr = the global pool). Tiles of consecutive sorted
/// observations run on the pool, and each bandwidth's total takes the
/// observations in ascending order (detail::tiled_profile).
std::vector<double> oscv_profile_tiled(
    const data::Dataset& data, std::span<const double> grid,
    KernelType kernel, Precision precision = Precision::kDouble,
    parallel::ThreadPool* pool = nullptr);

/// Naive O(n²·|grid|) reference: re-accumulates every (observation, b)
/// one-sided moment set from scratch (same outward order, same
/// recombination), then scores through the same oscv_residual. Ground
/// truth for the golden and fuzz suites — fast profiles match it bitwise.
std::vector<double> oscv_profile_naive(const data::Dataset& data,
                                       std::span<const double> grid,
                                       KernelType kernel,
                                       Precision precision = Precision::kDouble);

/// Device execution of the one-sided sweep.
struct OscvDeviceConfig {
  Precision precision = Precision::kDouble;
  /// Clamped to the device's max_threads_per_block.
  std::size_t threads_per_block = 512;
  /// k-block streaming (1-D), same contract as KnnDeviceConfig::stream:
  /// the b-grid tiles through one resident n×k_block residual block with
  /// the one-sided carry state in O(n) buffers; streamed == resident
  /// bitwise. n_block is ignored.
  StreamingConfig stream;
};

/// The sweep on the SPMD device: one thread per observation fills the
/// residual block (observation-major), then each fold thread takes 8
/// consecutive bandwidths and adds their n residuals in ascending
/// observation order — bitwise equal to oscv_profile.
std::vector<double> oscv_profile_device(spmd::Device& device,
                                        const data::Dataset& data,
                                        std::span<const double> grid,
                                        KernelType kernel,
                                        OscvDeviceConfig config = {});

/// Modeled device footprint of the OSCV plan holding `k_block` grid
/// entries resident (k_block = 0: the k-independent base).
std::size_t oscv_estimated_streamed_bytes(std::size_t n, std::size_t k_block,
                                          Precision precision,
                                          KernelType kernel);

/// OSCV as a drop-in Selector: minimizes OSCV(b) over the grid via the
/// fast one-sided sweep (`parallel`: oscv_profile_tiled on `pool`, the
/// same bits as the sequential sweep), then reports the *rescaled*
/// two-sided bandwidth ĥ = C·b̂ in SelectionResult::bandwidth.
/// `grid`/`scores` hold the one-sided profile over the b-grid (so the
/// argmin relation scores[argmin] == cv_score still holds; bandwidth is
/// C·grid[argmin]).
class OscvSweepSelector final : public Selector {
 public:
  explicit OscvSweepSelector(KernelType kernel = KernelType::kEpanechnikov,
                             Precision precision = Precision::kDouble,
                             bool parallel = false,
                             parallel::ThreadPool* pool = nullptr)
      : kernel_(kernel), precision_(precision), parallel_(parallel),
        pool_(pool) {}

  SelectionResult select(const data::Dataset& data,
                         const BandwidthGrid& grid) const override;
  std::string name() const override;

 private:
  KernelType kernel_;
  Precision precision_;
  bool parallel_;
  parallel::ThreadPool* pool_;
};

}  // namespace kreg
