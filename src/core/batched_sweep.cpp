#include "core/batched_sweep.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/detail/batched_lanes.hpp"
#include "core/validate_grid.hpp"
#include "core/window_sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "sort/two_key.hpp"

namespace kreg {

template <class Scalar>
AdmissionWindows admission_windows(std::span<const Scalar> xs_sorted,
                                   Scalar h_max) {
  const std::size_t n = xs_sorted.size();
  AdmissionWindows win;
  win.lo.resize(n);
  win.length.resize(n);
  // Both window bounds at h_max are monotone in pos, so one two-pointer
  // pass computes every (lo, length) — the same O(n) discipline as the
  // sweep itself, using its exact admission predicate.
  std::size_t lo = 0;
  std::size_t hi = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Scalar x = xs_sorted[pos];
    while (x - xs_sorted[lo] > h_max) {
      ++lo;
    }
    if (hi < pos) {
      hi = pos;
    }
    while (hi + 1 < n && xs_sorted[hi + 1] - x <= h_max) {
      ++hi;
    }
    win.lo[pos] = lo;
    win.length[pos] = hi - lo + 1;
  }
  return win;
}

template AdmissionWindows admission_windows<float>(std::span<const float>,
                                                   float);
template AdmissionWindows admission_windows<double>(std::span<const double>,
                                                    double);

template <class Scalar>
std::vector<std::size_t> admission_window_lengths(
    std::span<const Scalar> xs_sorted, Scalar h_max) {
  return admission_windows<Scalar>(xs_sorted, h_max).length;
}

template std::vector<std::size_t> admission_window_lengths<float>(
    std::span<const float>, float);
template std::vector<std::size_t> admission_window_lengths<double>(
    std::span<const double>, double);

std::vector<std::uint32_t> sigma_batch_order(
    std::span<const std::size_t> lengths, std::span<const std::size_t> los,
    std::size_t begin, std::size_t end, std::size_t scope,
    SigmaPolicy policy, std::size_t position_bucket) {
  const std::size_t count = end - begin;
  std::vector<std::uint32_t> order(count);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  if (policy == SigmaPolicy::kNone || count == 0) {
    return order;
  }
  if (los.size() < end) {
    throw std::invalid_argument(
        "sigma_batch_order: position-length policy needs window lo indices "
        "covering [begin, end)");
  }
  const std::size_t bucket = position_bucket == 0 ? 1 : position_bucket;
  const std::size_t step = scope == 0 ? count : scope;
  std::vector<std::uint32_t> scratch;
  for (std::size_t s0 = 0; s0 < count; s0 += step) {
    const std::size_t s1 = std::min(s0 + step, count);
    // Two-key: position bucket ascending, length descending inside a
    // bucket, stable (rows equal under both keys keep ascending order —
    // deterministic).
    sort::two_key_argsort(
        std::span<std::uint32_t>(order.data() + s0, s1 - s0),
        [&](std::uint32_t r) { return los[begin + r] / bucket; },
        [&](std::uint32_t r) { return lengths[begin + r]; }, scratch);
  }
  return order;
}

namespace {

/// The batched mirror of window_sweep.cpp's profile_tiled: same tiling
/// defaults, same tile-order combination, same per-tile ascending-row fold
/// into the accumulator — only the per-row sweep is replaced by lane
/// batches of kLaneWidth consecutive rows staging their residuals in a
/// tile-local buffer. Because the fold visits buffered residuals in exactly
/// the (row, b) order the scalar tiled kernel adds them, the profile is
/// bitwise identical to the scalar one.
template <class Scalar>
std::vector<double> profile_batched(const data::Dataset& data,
                                    std::span<const double> grid,
                                    KernelType kernel, HostTiling tiling,
                                    parallel::ThreadPool* pool,
                                    BatchRunStats* stats) {
  constexpr std::size_t C = kLaneWidth;
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const SweepPolynomial poly = sweep_polynomial(kernel);
  if (pool == nullptr) {
    pool = &parallel::ThreadPool::global();
  }
  const std::size_t n_block = tiling.n_block != 0 ? tiling.n_block : 2048;
  const std::size_t k_block = tiling.k_block != 0
                                  ? std::min(tiling.k_block, k)
                                  : std::min<std::size_t>(64, k);

  const SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
  const std::vector<Scalar> host_grid(grid.begin(), grid.end());
  const std::span<const Scalar> xs(sorted.x);
  const std::span<const Scalar> ys(sorted.y);

  const std::size_t tiles = (n + n_block - 1) / n_block;
  std::vector<std::vector<double>> partials(tiles,
                                            std::vector<double>(k, 0.0));
  std::vector<BatchRunStats> tile_stats(stats != nullptr ? tiles : 0);

  parallel::parallel_for(
      tiles,
      [&](std::size_t tile) {
        const std::size_t begin = tile * n_block;
        const std::size_t nb = std::min(n_block, n - begin);
        std::vector<double>& acc = partials[tile];
        BatchRunStats* tstats =
            stats != nullptr ? &tile_stats[tile] : nullptr;

        // Consecutive C rows of the tile form one batch, the last padded.
        const std::size_t nbatches = (nb + C - 1) / C;
        std::vector<detail::LaneBatch<Scalar>> batches(nbatches);
        for (std::size_t g = 0; g < nbatches; ++g) {
          detail::LaneBatch<Scalar>& st = batches[g];
          st.lanes = std::min(C, nb - g * C);
          for (std::size_t l = 0; l < st.lanes; ++l) {
            st.pos[l] = begin + g * C + l;
          }
          detail::batch_seed(st, xs, ys);
        }

        // Residuals staged per (row, bandwidth-in-block), then folded in
        // ascending row order.
        std::vector<Scalar> buf(nb * k_block);

        for (std::size_t b0 = 0; b0 < k; b0 += k_block) {
          const std::size_t kb = std::min(k_block, k - b0);
          const std::span<const Scalar> hs(host_grid.data() + b0, kb);
          for (detail::LaneBatch<Scalar>& st : batches) {
            detail::batch_resume(
                st, xs, ys, hs, poly,
                [&](std::size_t b, std::size_t l, Scalar sq) {
                  buf[(st.pos[l] - begin) * kb + b] = sq;
                },
                tstats);
          }
          for (std::size_t r = 0; r < nb; ++r) {
            for (std::size_t b = 0; b < kb; ++b) {
              acc[b0 + b] += static_cast<double>(buf[r * kb + b]);
            }
          }
        }
      },
      pool);

  std::vector<double> totals(k, 0.0);
  for (const std::vector<double>& partial : partials) {
    for (std::size_t b = 0; b < k; ++b) {
      totals[b] += partial[b];
    }
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);
  }
  if (stats != nullptr) {
    for (const BatchRunStats& ts : tile_stats) {
      *stats += ts;
    }
  }
  return totals;
}

}  // namespace

std::vector<double> window_cv_profile_batched(const data::Dataset& data,
                                              std::span<const double> grid,
                                              KernelType kernel,
                                              Precision precision,
                                              HostTiling tiling,
                                              parallel::ThreadPool* pool,
                                              BatchRunStats* stats) {
  if (data.empty()) {
    throw std::invalid_argument("window_cv_profile_batched: empty dataset");
  }
  validate_bandwidth_grid(grid, "window_cv_profile_batched");
  if (!is_sweepable(kernel)) {
    throw std::invalid_argument(
        "window_cv_profile_batched: kernel '" +
        std::string(to_string(kernel)) +
        "' is not supported by the window sweep; use the naive path");
  }
  return precision == Precision::kFloat
             ? profile_batched<float>(data, grid, kernel, tiling, pool, stats)
             : profile_batched<double>(data, grid, kernel, tiling, pool,
                                       stats);
}

}  // namespace kreg
