#include "core/multivariate_sweep.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/validate_grid.hpp"
#include "parallel/parallel_for.hpp"
#include "sort/argsort.hpp"
#include "sort/iterative_quicksort.hpp"

namespace kreg {

namespace {

/// Degree cap for the 1/c polynomial: dimensions × highest kernel power.
constexpr std::size_t kMaxDegree = 24;

struct RayContext {
  SweepPolynomial kernel_poly;
  std::size_t dim = 0;
  std::size_t degree = 0;  ///< dim * kernel_poly.max_power
  double c0_pow_dim = 0.0; ///< K(0)^dim — the self term's power-0 weight
};

RayContext make_context(const data::MDataset& data, KernelType kernel) {
  RayContext ctx;
  ctx.kernel_poly = sweep_polynomial(kernel);
  ctx.dim = data.dim;
  ctx.degree = ctx.dim * ctx.kernel_poly.max_power;
  if (ctx.degree > kMaxDegree) {
    throw std::invalid_argument(
        "multi_ray: dimension x kernel degree exceeds the supported cap");
  }
  ctx.c0_pow_dim = 1.0;
  for (std::size_t j = 0; j < ctx.dim; ++j) {
    ctx.c0_pow_dim *= ctx.kernel_poly.coeff[0];
  }
  return ctx;
}

void check_inputs(const data::MDataset& data, std::span<const double> ratios,
                  std::span<const double> scales, KernelType kernel) {
  data.validate();
  if (data.size() == 0) {
    throw std::invalid_argument("multi_ray: empty dataset");
  }
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument("multi_ray: kernel '" +
                                std::string(to_string(kernel)) +
                                "' is not sweepable");
  }
  if (ratios.size() != data.dim) {
    throw std::invalid_argument("multi_ray: need one ratio per dimension");
  }
  for (double r : ratios) {
    if (!(r > 0.0)) {
      throw std::invalid_argument("multi_ray: ratios must be positive");
    }
  }
  // Scale multipliers tolerate duplicates (non-strict): a repeated scale
  // admits nothing new but stays well-defined.
  validate_bandwidth_grid(scales, "multi_ray", /*strict=*/false);
}

/// Coefficient vector (powers of 1/c) of Π_j K(ρ_j / c) for one pair:
/// the convolution across dimensions of v_j[m] = c_m ρ_j^m.
void pair_coefficients(const RayContext& ctx, std::span<const double> xi,
                       std::span<const double> xl,
                       std::span<const double> ratios,
                       std::array<double, kMaxDegree + 1>& out) {
  const std::size_t kp = ctx.kernel_poly.max_power;
  std::array<double, kMaxDegree + 1> acc{};
  std::array<double, SweepPolynomial::kMaxPower + 1> dim_vec{};
  acc[0] = 1.0;
  std::size_t acc_degree = 0;

  for (std::size_t j = 0; j < ctx.dim; ++j) {
    const double rho = std::abs(xi[j] - xl[j]) / ratios[j];
    double pw = 1.0;
    for (std::size_t m = 0; m <= kp; ++m) {
      dim_vec[m] = ctx.kernel_poly.coeff[m] * pw;
      pw *= rho;
    }
    // acc = acc (*) dim_vec  (polynomial product in powers of 1/c).
    std::array<double, kMaxDegree + 1> next{};
    for (std::size_t a = 0; a <= acc_degree; ++a) {
      if (acc[a] == 0.0) {
        continue;
      }
      for (std::size_t m = 0; m <= kp; ++m) {
        next[a + m] += acc[a] * dim_vec[m];
      }
    }
    acc = next;
    acc_degree += kp;
  }
  out = acc;
}

/// One observation's contribution to the squared-residual totals across all
/// scales (paper §III structure: sort once, sweep once).
void sweep_observation_ray(const data::MDataset& data, const RayContext& ctx,
                           std::span<const double> ratios,
                           std::span<const double> scales, std::size_t i,
                           std::vector<double>& rho_scratch,
                           std::vector<std::size_t>& idx_scratch,
                           std::span<double> totals) {
  const std::size_t n = data.size();
  const std::size_t k = scales.size();
  rho_scratch.resize(n);
  idx_scratch.resize(n);
  const std::span<const double> xi = data.row(i);
  for (std::size_t l = 0; l < n; ++l) {
    const std::span<const double> xl = data.row(l);
    double rho = 0.0;
    for (std::size_t j = 0; j < ctx.dim; ++j) {
      rho = std::max(rho, std::abs(xi[j] - xl[j]) / ratios[j]);
    }
    rho_scratch[l] = rho;
    idx_scratch[l] = l;
  }
  sort::iterative_quicksort_kv(std::span<double>(rho_scratch),
                               std::span<std::size_t>(idx_scratch));

  std::array<double, kMaxDegree + 1> s_m{};  // Σ pair coefficients
  std::array<double, kMaxDegree + 1> t_m{};  // Σ Y_l · pair coefficients
  std::array<double, kMaxDegree + 1> w{};
  std::size_t p = 0;
  const double yi = data.y[i];

  for (std::size_t b = 0; b < k; ++b) {
    const double c = scales[b];
    while (p < n && rho_scratch[p] <= c) {
      const std::size_t l = idx_scratch[p];
      pair_coefficients(ctx, xi, data.row(l), ratios, w);
      const double yl = data.y[l];
      for (std::size_t m = 0; m <= ctx.degree; ++m) {
        s_m[m] += w[m];
        t_m[m] += yl * w[m];
      }
      ++p;
    }
    // Evaluate the 1/c polynomial; subtract the self term (K(0)^p at
    // power 0, weighting Y_i).
    double num = 0.0;
    double den = 0.0;
    const double inv_c = 1.0 / c;
    double inv_pow = 1.0;
    for (std::size_t m = 0; m <= ctx.degree; ++m) {
      num += t_m[m] * inv_pow;
      den += s_m[m] * inv_pow;
      inv_pow *= inv_c;
    }
    num -= ctx.c0_pow_dim * yi;
    den -= ctx.c0_pow_dim;
    if (den > 0.0) {
      const double e = yi - num / den;
      totals[b] += e * e;
    }
  }
}

/// The ray's observations re-ordered by the scaled first coordinate
/// z = x_0 / r_0 — the one global sort the window sweep needs per ray.
/// Rows and Y are permuted alongside so the sweep reads them contiguously.
/// Rows with equal z follow their coordinates, then Y, so the sorted arrays
/// depend on the sample and not on its row order.
struct RaySorted {
  std::vector<double> z;  ///< x_0 / r_0, ascending
  std::vector<double> x;  ///< row-major n × dim, permuted like z
  std::vector<double> y;  ///< permuted like z
};

RaySorted sort_ray_dataset(const data::MDataset& data,
                           std::span<const double> ratios) {
  const std::size_t n = data.size();
  const std::size_t dim = data.dim;
  std::vector<double> z(n);
  for (std::size_t l = 0; l < n; ++l) {
    z[l] = data.x[l * dim] / ratios[0];
  }
  sort::Ordering order =
      sort::argsort(z, [&data, dim](std::size_t a, std::size_t b) {
        for (std::size_t j = 0; j < dim; ++j) {
          const std::uint64_t ka = sort::ordered_bits(data.x[a * dim + j]);
          const std::uint64_t kb = sort::ordered_bits(data.x[b * dim + j]);
          if (ka != kb) {
            return ka < kb;
          }
        }
        return sort::ordered_bits(data.y[a]) < sort::ordered_bits(data.y[b]);
      });
  RaySorted sorted;
  sorted.x.resize(n * dim);
  sorted.y.resize(n);
  order.for_each([&](std::size_t p, std::size_t l) {
    sorted.y[p] = data.y[l];
    for (std::size_t j = 0; j < dim; ++j) {
      sorted.x[p * dim + j] = data.x[l * dim + j];
    }
  });
  sorted.z = std::move(order).take_keys();
  return sorted;
}

/// Per-worker scratch for the window ray sweep: one coefficient bucket per
/// scale. A candidate entering the z-window is filtered by the remaining
/// dimensions once — its pair coefficients land in the bucket of the first
/// scale that truly admits it (ρ ≤ c), and each scale drains its own bucket
/// before recombining. Buckets are re-zeroed as they drain, so the scratch
/// is clean for the next observation without a bulk clear.
struct RayWindowScratch {
  std::vector<double> bucket_s;  ///< k × (degree + 1), flattened
  std::vector<double> bucket_t;

  void resize(std::size_t k, std::size_t degree) {
    bucket_s.assign(k * (degree + 1), 0.0);
    bucket_t.assign(k * (degree + 1), 0.0);
  }
};

/// One observation's contribution to the squared-residual totals across all
/// scales via the superset window over the sorted first coordinate.
void window_observation_ray(const RaySorted& sorted, const RayContext& ctx,
                            std::span<const double> ratios,
                            std::span<const double> scales, std::size_t pos,
                            RayWindowScratch& scratch,
                            std::span<double> totals) {
  const std::size_t n = sorted.y.size();
  const std::size_t k = scales.size();
  const std::size_t terms = ctx.degree + 1;
  const double zi = sorted.z[pos];
  const double yi = sorted.y[pos];
  const std::span<const double> xi(sorted.x.data() + pos * ctx.dim, ctx.dim);

  // Moment sums over the truly admitted set, seeded with the self pair:
  // Π_j K(0) = c₀^p at power 0 (subtracted analytically at recombination,
  // exactly as in the per-row path).
  std::array<double, kMaxDegree + 1> s_m{};
  std::array<double, kMaxDegree + 1> t_m{};
  std::array<double, kMaxDegree + 1> w{};
  s_m[0] = ctx.c0_pow_dim;
  t_m[0] = ctx.c0_pow_dim * yi;

  // A candidate l enters the z-window at the first scale c ≥ |z_l − z_i|.
  // Its true admission scale is ρ = max_j |d_j|/r_j ≥ |z_l − z_i|, so the
  // bucket index (first grid scale ≥ ρ) is never one already swept.
  const auto park = [&](std::size_t l) {
    const std::span<const double> xl(sorted.x.data() + l * ctx.dim, ctx.dim);
    double rho = 0.0;
    for (std::size_t j = 0; j < ctx.dim; ++j) {
      rho = std::max(rho, std::abs(xi[j] - xl[j]) / ratios[j]);
    }
    const auto it = std::lower_bound(scales.begin(), scales.end(), rho);
    if (it == scales.end()) {
      return;  // beyond the grid: never admitted, no coefficient work
    }
    const std::size_t bucket =
        static_cast<std::size_t>(it - scales.begin());
    pair_coefficients(ctx, xi, xl, ratios, w);
    const double yl = sorted.y[l];
    double* bs = scratch.bucket_s.data() + bucket * terms;
    double* bt = scratch.bucket_t.data() + bucket * terms;
    for (std::size_t m = 0; m < terms; ++m) {
      bs[m] += w[m];
      bt[m] += yl * w[m];
    }
  };

  std::size_t lo = pos;  // inclusive left edge of the z-window
  std::size_t hi = pos;  // inclusive right edge
  for (std::size_t b = 0; b < k; ++b) {
    const double c = scales[b];
    while (lo > 0 && zi - sorted.z[lo - 1] <= c) {
      park(--lo);
    }
    while (hi + 1 < n && sorted.z[hi + 1] - zi <= c) {
      park(++hi);
    }

    // Drain this scale's bucket into the moment sums (and re-zero it: no
    // later candidate can land here, since its ρ exceeds the current c).
    double* bs = scratch.bucket_s.data() + b * terms;
    double* bt = scratch.bucket_t.data() + b * terms;
    for (std::size_t m = 0; m < terms; ++m) {
      s_m[m] += bs[m];
      t_m[m] += bt[m];
      bs[m] = 0.0;
      bt[m] = 0.0;
    }

    // Identical recombination to the per-row ray sweep.
    double num = 0.0;
    double den = 0.0;
    const double inv_c = 1.0 / c;
    double inv_pow = 1.0;
    for (std::size_t m = 0; m < terms; ++m) {
      num += t_m[m] * inv_pow;
      den += s_m[m] * inv_pow;
      inv_pow *= inv_c;
    }
    num -= ctx.c0_pow_dim * yi;
    den -= ctx.c0_pow_dim;
    if (den > 0.0) {
      const double e = yi - num / den;
      totals[b] += e * e;
    }
  }
}

}  // namespace

std::vector<double> default_ray_ratios(const data::MDataset& data) {
  data.validate();
  std::vector<double> ratios(data.dim);
  double largest = 0.0;
  for (std::size_t j = 0; j < data.dim; ++j) {
    ratios[j] = data.domain(j);
    largest = std::max(largest, ratios[j]);
  }
  // A constant dimension contributes |d_j| = 0 to every pair, so any
  // positive ratio admits it at every scale; clamp to the largest positive
  // domain (1.0 when all are degenerate) instead of emitting a zero ratio
  // the profile functions would reject.
  const double floor_ratio = largest > 0.0 ? largest : 1.0;
  for (double& r : ratios) {
    if (!(r > 0.0)) {
      r = floor_ratio;
    }
  }
  return ratios;
}

std::vector<double> multi_ray_cv_profile(const data::MDataset& data,
                                         std::span<const double> ratios,
                                         std::span<const double> scales,
                                         KernelType kernel) {
  check_inputs(data, ratios, scales, kernel);
  const RayContext ctx = make_context(data, kernel);
  std::vector<double> totals(scales.size(), 0.0);
  std::vector<double> rho_scratch;
  std::vector<std::size_t> idx_scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    sweep_observation_ray(data, ctx, ratios, scales, i, rho_scratch,
                          idx_scratch, totals);
  }
  for (double& t : totals) {
    t /= static_cast<double>(data.size());
  }
  return totals;
}

std::vector<double> multi_ray_cv_profile_parallel(
    const data::MDataset& data, std::span<const double> ratios,
    std::span<const double> scales, KernelType kernel,
    parallel::ThreadPool* pool) {
  check_inputs(data, ratios, scales, kernel);
  const RayContext ctx = make_context(data, kernel);
  if (pool == nullptr) {
    pool = &parallel::ThreadPool::global();
  }
  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(data.size(), pool->size());
  std::vector<std::vector<double>> parts(
      slices.size(), std::vector<double>(scales.size(), 0.0));

  parallel::parallel_for(
      slices.size(),
      [&](std::size_t s) {
        std::vector<double> rho_scratch;
        std::vector<std::size_t> idx_scratch;
        for (std::size_t i = slices[s].begin; i < slices[s].end; ++i) {
          sweep_observation_ray(data, ctx, ratios, scales, i, rho_scratch,
                                idx_scratch, parts[s]);
        }
      },
      pool);

  std::vector<double> totals(scales.size(), 0.0);
  for (const auto& part : parts) {
    for (std::size_t b = 0; b < totals.size(); ++b) {
      totals[b] += part[b];
    }
  }
  for (double& t : totals) {
    t /= static_cast<double>(data.size());
  }
  return totals;
}

std::vector<double> multi_ray_cv_profile_window(const data::MDataset& data,
                                                std::span<const double> ratios,
                                                std::span<const double> scales,
                                                KernelType kernel) {
  check_inputs(data, ratios, scales, kernel);
  const RayContext ctx = make_context(data, kernel);
  const RaySorted sorted = sort_ray_dataset(data, ratios);
  std::vector<double> totals(scales.size(), 0.0);
  RayWindowScratch scratch;
  scratch.resize(scales.size(), ctx.degree);
  for (std::size_t pos = 0; pos < data.size(); ++pos) {
    window_observation_ray(sorted, ctx, ratios, scales, pos, scratch, totals);
  }
  for (double& t : totals) {
    t /= static_cast<double>(data.size());
  }
  return totals;
}

std::vector<double> multi_ray_cv_profile_window_parallel(
    const data::MDataset& data, std::span<const double> ratios,
    std::span<const double> scales, KernelType kernel,
    parallel::ThreadPool* pool) {
  check_inputs(data, ratios, scales, kernel);
  const RayContext ctx = make_context(data, kernel);
  if (pool == nullptr) {
    pool = &parallel::ThreadPool::global();
  }
  // One global sort, on the calling thread, shared read-only by workers.
  const RaySorted sorted = sort_ray_dataset(data, ratios);
  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(data.size(), pool->size());
  std::vector<std::vector<double>> parts(
      slices.size(), std::vector<double>(scales.size(), 0.0));

  parallel::parallel_for(
      slices.size(),
      [&](std::size_t s) {
        RayWindowScratch scratch;
        scratch.resize(scales.size(), ctx.degree);
        for (std::size_t pos = slices[s].begin; pos < slices[s].end; ++pos) {
          window_observation_ray(sorted, ctx, ratios, scales, pos, scratch,
                                 parts[s]);
        }
      },
      pool);

  std::vector<double> totals(scales.size(), 0.0);
  for (const auto& part : parts) {
    for (std::size_t b = 0; b < totals.size(); ++b) {
      totals[b] += part[b];
    }
  }
  for (double& t : totals) {
    t /= static_cast<double>(data.size());
  }
  return totals;
}

MultiSelectionResult multi_ray_select(const data::MDataset& data,
                                      std::span<const double> ratios,
                                      const BandwidthGrid& scales,
                                      KernelType kernel,
                                      SweepAlgorithm algorithm) {
  const bool window = algorithm == SweepAlgorithm::kWindow;
  const std::vector<double> profile =
      window ? multi_ray_cv_profile_window(data, ratios, scales.values(),
                                           kernel)
             : multi_ray_cv_profile(data, ratios, scales.values(), kernel);
  std::size_t best = 0;
  for (std::size_t b = 1; b < profile.size(); ++b) {
    if (profile[b] < profile[best]) {
      best = b;
    }
  }
  MultiSelectionResult result;
  result.bandwidths.resize(data.dim);
  for (std::size_t j = 0; j < data.dim; ++j) {
    result.bandwidths[j] = scales[best] * ratios[j];
  }
  result.cv_score = profile[best];
  result.evaluations = scales.size();
  result.method = std::string(window ? "multi-ray-window(" :
                                       "multi-ray-sweep(") +
                  std::string(to_string(kernel)) + ")";
  return result;
}

}  // namespace kreg
