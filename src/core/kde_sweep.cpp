#include "core/kde_sweep.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/detail/kde_polynomials.hpp"
#include "core/detail/window_policy.hpp"
#include "core/selectors.hpp"
#include "core/validate_grid.hpp"
#include "parallel/parallel_for.hpp"
#include "sort/argsort.hpp"
#include "sort/introsort.hpp"

namespace kreg {

namespace {

void check_inputs(std::span<const double> xs, std::span<const double> grid,
                  KernelType kernel) {
  if (!is_kde_sweepable(kernel)) {
    throw std::invalid_argument(
        "kde sweep: kernel '" + std::string(to_string(kernel)) +
        "' lacks a single-polynomial self-convolution; use kde_lscv_score");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("kde sweep: need at least 2 observations");
  }
  validate_bandwidth_grid(grid, "kde sweep");
}

/// Per-observation contribution: for each h, (K̄ sum over l≠i, K sum over
/// l≠i). Accumulated into conv_totals / loo_totals (length k each).
void sweep_observation_kde(std::span<const double> xs, std::size_t i,
                           std::span<const double> grid,
                           const detail::SupportPolynomial& kpoly,
                           const detail::SupportPolynomial& cpoly,
                           std::vector<double>& row_scratch,
                           std::span<double> conv_totals,
                           std::span<double> loo_totals) {
  const std::size_t n = xs.size();
  row_scratch.resize(n);
  for (std::size_t l = 0; l < n; ++l) {
    row_scratch[l] = std::abs(xs[l] - xs[i]);
  }
  sort::introsort(std::span<double>(row_scratch));

  detail::MomentSweep conv_sweep;  // admits |Δ| <= 2h
  detail::MomentSweep loo_sweep;   // admits |Δ| <= h
  const std::size_t max_power = std::max(kpoly.max_power, cpoly.max_power);
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double h = grid[b];
    conv_sweep.admit_through(row_scratch, cpoly.support_scale * h, max_power);
    loo_sweep.admit_through(row_scratch, kpoly.support_scale * h, max_power);
    conv_totals[b] += conv_sweep.combine(cpoly, h);
    loo_totals[b] += loo_sweep.combine(kpoly, h);
  }
}

std::vector<double> assemble_scores(std::span<const double> grid,
                                    std::span<const double> conv_totals,
                                    std::span<const double> loo_totals,
                                    double roughness_value, std::size_t n) {
  const double dn = static_cast<double>(n);
  std::vector<double> scores(grid.size());
  for (std::size_t b = 0; b < grid.size(); ++b) {
    const double h = grid[b];
    scores[b] = roughness_value / (dn * h) + conv_totals[b] / (dn * dn * h) -
                2.0 * loo_totals[b] / (dn * (dn - 1.0) * h);
  }
  return scores;
}

}  // namespace

bool is_kde_sweepable(KernelType kernel) noexcept {
  return kernel == KernelType::kEpanechnikov ||
         kernel == KernelType::kUniform;
}

std::vector<double> kde_sweep_lscv_profile(std::span<const double> xs,
                                           std::span<const double> grid,
                                           KernelType kernel) {
  check_inputs(xs, grid, kernel);
  const detail::SupportPolynomial kpoly = detail::kde_kernel_poly(kernel);
  const detail::SupportPolynomial cpoly = detail::kde_convolution_poly(kernel);

  std::vector<double> conv_totals(grid.size(), 0.0);
  std::vector<double> loo_totals(grid.size(), 0.0);
  std::vector<double> scratch;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sweep_observation_kde(xs, i, grid, kpoly, cpoly, scratch, conv_totals,
                          loo_totals);
  }
  return assemble_scores(grid, conv_totals, loo_totals, roughness(kernel),
                         xs.size());
}

std::vector<double> kde_sweep_lscv_profile_parallel(
    std::span<const double> xs, std::span<const double> grid,
    KernelType kernel, parallel::ThreadPool* pool) {
  check_inputs(xs, grid, kernel);
  const detail::SupportPolynomial kpoly = detail::kde_kernel_poly(kernel);
  const detail::SupportPolynomial cpoly = detail::kde_convolution_poly(kernel);
  if (pool == nullptr) {
    pool = &parallel::ThreadPool::global();
  }

  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(xs.size(), pool->size());
  std::vector<std::vector<double>> conv_parts(
      slices.size(), std::vector<double>(grid.size(), 0.0));
  std::vector<std::vector<double>> loo_parts(
      slices.size(), std::vector<double>(grid.size(), 0.0));

  parallel::parallel_for(
      slices.size(),
      [&](std::size_t s) {
        std::vector<double> scratch;
        for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
          sweep_observation_kde(xs, i, grid, kpoly, cpoly, scratch,
                                conv_parts[s], loo_parts[s]);
        }
      },
      pool);

  std::vector<double> conv_totals(grid.size(), 0.0);
  std::vector<double> loo_totals(grid.size(), 0.0);
  for (std::size_t s = 0; s < slices.size(); ++s) {
    for (std::size_t b = 0; b < grid.size(); ++b) {
      conv_totals[b] += conv_parts[s][b];
      loo_totals[b] += loo_parts[s][b];
    }
  }
  return assemble_scores(grid, conv_totals, loo_totals, roughness(kernel),
                         xs.size());
}

std::vector<double> kde_window_lscv_profile(std::span<const double> xs,
                                            std::span<const double> grid,
                                            KernelType kernel) {
  check_inputs(xs, grid, kernel);
  // One global sort; every observation's windows index into it.
  const std::vector<double> sorted_x = sort::sorted_keys(xs);
  const detail::KdeWindow sweep{sorted_x, detail::kde_kernel_poly(kernel),
                                detail::kde_convolution_poly(kernel)};

  std::vector<double> conv_totals(grid.size(), 0.0);
  std::vector<double> loo_totals(grid.size(), 0.0);
  for (std::size_t pos = 0; pos < sorted_x.size(); ++pos) {
    detail::KdeWindow::State st{};
    sweep.seed(pos, st);
    sweep.resume(grid, pos, st, [&](std::size_t b, double conv, double loo) {
      conv_totals[b] += conv;
      loo_totals[b] += loo;
    });
  }
  return assemble_scores(grid, conv_totals, loo_totals, roughness(kernel),
                         xs.size());
}

SelectionResult kde_select_sweep(std::span<const double> xs,
                                 const BandwidthGrid& grid,
                                 KernelType kernel) {
  return selection_from_profile(
      grid, kde_sweep_lscv_profile(xs, grid.values(), kernel),
      "kde-lscv-sweep(" + std::string(to_string(kernel)) + ")");
}

SelectionResult kde_select_window(std::span<const double> xs,
                                  const BandwidthGrid& grid,
                                  KernelType kernel) {
  return selection_from_profile(
      grid, kde_window_lscv_profile(xs, grid.values(), kernel),
      "kde-lscv-window(" + std::string(to_string(kernel)) + ")");
}

}  // namespace kreg
