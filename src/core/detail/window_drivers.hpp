#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/window_sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "spmd/device.hpp"

namespace kreg::detail {

/// The drivers every window policy (window_policy.hpp) runs through: one
/// sequential and one tiled host profile, and one device pass. Each is
/// written once against the policy interface, so an estimator gains every
/// backend by defining its State, seed and resume.

/// The sequential profile: observations in ascending sorted order, each
/// seeded and swept over the whole grid, squared residuals summed per
/// grid entry in that order and divided by n. The criteria sum over *all*
/// observations, so sorted order needs no inverse permutation.
template <class Sweep, class Grid>
std::vector<double> sequential_profile(const Sweep& sweep, Grid grid) {
  const std::size_t n = sweep.xs.size();
  std::vector<double> totals(grid.size(), 0.0);
  for (std::size_t pos = 0; pos < n; ++pos) {
    typename Sweep::State st{};
    sweep.seed(pos, st);
    sweep.resume(grid, pos, st, [&](std::size_t b, auto sq) {
      totals[b] += static_cast<double>(sq);
    });
  }
  for (double& total : totals) {
    total /= static_cast<double>(n);
  }
  return totals;
}

/// The cache-blocked profile mirroring the device's k-block streaming:
/// observations tile into n-blocks (the pool schedules tiles), each tile
/// carries its rows' states across ascending k-blocks taken innermost, and
/// every (tile, k-block) cell adds into the tile's private score slice.
/// Tile partials combine in tile order, so the profile depends on the
/// tiling alone — the same bits on every pool — and matches the sequential
/// profile up to summation regrouping (bitwise when one tile covers n).
///
/// Auto tiling: 2048 observations keep a tile's carry (≤ 128 B per row)
/// within a ~256 KiB L2 slice alongside the sorted-array window it reads;
/// 64 grid entries bound the score slice the innermost loop touches.
/// Explicit blocks clamp to (n, k).
template <class Sweep, class Grid>
std::vector<double> tiled_profile(const Sweep& sweep, Grid grid,
                                  HostTiling tiling,
                                  parallel::ThreadPool* pool) {
  const std::size_t n = sweep.xs.size();
  const std::size_t k = grid.size();
  const std::size_t n_block =
      std::min(tiling.n_block != 0 ? tiling.n_block : 2048, n);
  const std::size_t k_block =
      std::min(tiling.k_block != 0 ? tiling.k_block : 64, k);

  const std::size_t tiles = (n + n_block - 1) / n_block;
  std::vector<std::vector<double>> partials(tiles,
                                            std::vector<double>(k, 0.0));
  parallel::parallel_for(
      tiles,
      [&](std::size_t tile) {
        const std::size_t begin = tile * n_block;
        const std::size_t nb = std::min(n_block, n - begin);
        std::vector<double>& acc = partials[tile];
        std::vector<typename Sweep::State> states(nb);
        for (std::size_t r = 0; r < nb; ++r) {
          sweep.seed(begin + r, states[r]);
        }
        // k-blocks innermost, ascending (the windows are monotone).
        for (std::size_t b0 = 0; b0 < k; b0 += k_block) {
          const Grid slice = grid.subspan(b0, std::min(k_block, k - b0));
          for (std::size_t r = 0; r < nb; ++r) {
            sweep.resume(slice, begin + r, states[r],
                         [&](std::size_t b, auto sq) {
                           acc[b0 + b] += static_cast<double>(sq);
                         });
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
  return totals;
}

/// A streamed pass's per-row carry in the shared layout: State::kWords
/// pointer words and the policy's `scalars()` scalars per row. (The NW
/// device kernels keep their own WindowCarry, window_pass.hpp.)
template <class Scalar>
struct PassCarry {
  spmd::MemView<std::size_t> words;
  spmd::MemView<Scalar> scalars;
  /// The pass sweeps the grid's first slice: seed the state instead of
  /// loading it.
  bool seed = true;
};

/// Launches one scalar pass of `sweep` over `rows` observations, one
/// thread per row, `tpb` to a block: row r is the observation at position
/// pos0 + r of the policy's arrays (the whole sorted arrays or an n-block's
/// halo slab), swept over the ascending grid slice `hs`. Without `carry`
/// the pass seeds every row and drops the state; with it, the pass seeds
/// (first slice) or loads the state and stores it back for the next slice.
/// `write(b, r, values...)` receives row r's values at slice index b.
template <class Sweep, class HView, class Write>
void launch_pass(spmd::Device& device, const char* name, std::size_t tpb,
                 const Sweep& sweep, std::size_t pos0, std::size_t rows,
                 HView hs,
                 const PassCarry<typename Sweep::scalar_type>* carry,
                 Write write) {
  constexpr std::size_t P = Sweep::State::kWords;
  const std::size_t S = sweep.scalars();
  const bool seed = carry == nullptr || carry->seed;
  device.launch(name, spmd::LaunchConfig::cover(rows, tpb),
                [&](const spmd::ThreadCtx& t) {
    const std::size_t r = t.global_idx();
    if (r >= rows) {
      return;  // padding thread in the last block
    }
    typename Sweep::State st{};
    if (seed) {
      sweep.seed(pos0 + r, st);
    } else {
      for (std::size_t p = 0; p < P; ++p) {
        st.word[p] = carry->words[r * P + p];
      }
      for (std::size_t s = 0; s < S; ++s) {
        st.scalar[s] = carry->scalars[r * S + s];
      }
    }
    sweep.resume(hs, pos0 + r, st, [&](std::size_t b, auto... values) {
      write(b, r, values...);
    });
    if (carry != nullptr) {
      for (std::size_t p = 0; p < P; ++p) {
        carry->words[r * P + p] = st.word[p];
      }
      for (std::size_t s = 0; s < S; ++s) {
        carry->scalars[r * S + s] = st.scalar[s];
      }
    }
  });
}

/// Launch and allocation names of one estimator's k-block device profile.
struct KBlockNames {
  const char* sweep;  ///< the pass ("knn_sweep_kblock")
  const char* fold;   ///< the ordered score fold ("knn_score_fold")
  const char* grid;   ///< the grid-slice constant ("neighbor-grid-block")
  const char* tag;    ///< buffer label prefix ("knn")
};

/// The k-block device profile of a squared-residual policy (k-NN, OSCV);
/// resident is the one-block case. Uploads the policy's sorted arrays and
/// rebinds it to them; then per ascending grid slice of `k_block` entries
/// uploads the slice to constant memory, runs one carried pass into a
/// bandwidth-major residual block, and folds each entry's n residuals in
/// ascending observation order into a double — the sequential host fold's
/// values in its order, so the device profile is bitwise
/// sequential_profile's.
template <class Sweep, class G>
std::vector<double> kblock_device_profile(spmd::Device& device, Sweep sweep,
                                          std::span<const G> grid,
                                          std::size_t k_block, std::size_t tpb,
                                          const KBlockNames& names) {
  using Scalar = typename Sweep::scalar_type;
  constexpr std::size_t P = Sweep::State::kWords;
  const std::size_t n = sweep.xs.size();
  const std::size_t k = grid.size();
  const std::string tag = names.tag;

  spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
  spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
  device.copy_to_device(d_x, sweep.xs);
  device.copy_to_device(d_y, sweep.ys);
  sweep.xs = d_x.span();
  sweep.ys = d_y.span();

  // O(n) carry state surviving across k-block launches, the one resident
  // residual block, and the per-entry score totals the ordered fold writes.
  spmd::DeviceBuffer<std::size_t> d_words =
      device.alloc_global<std::size_t>(n * P, tag + "-carry-words");
  spmd::DeviceBuffer<Scalar> d_scalars =
      device.alloc_global<Scalar>(n * sweep.scalars(), tag + "-carry-scalars");
  spmd::DeviceBuffer<Scalar> d_resid =
      device.alloc_global<Scalar>(n * k_block, tag + "-residual-block");
  spmd::DeviceBuffer<double> d_scores =
      device.alloc_global<double>(k_block, tag + "-score-block");
  PassCarry<Scalar> carry{d_words.view(), d_scalars.view()};
  spmd::MemView<Scalar> resid_all = d_resid.view();
  spmd::MemView<double> scores_all = d_scores.view();

  std::vector<double> cv(k);
  std::vector<double> host_scores(k_block);
  for (std::size_t b0 = 0; b0 < k; b0 += k_block) {
    const std::size_t kb = std::min(k_block, k - b0);
    spmd::ConstantBuffer<G> c_block =
        device.upload_constant<G>(grid.subspan(b0, kb), names.grid);
    carry.seed = b0 == 0;
    launch_pass(device, names.sweep, tpb, sweep, 0, n, c_block.view(), &carry,
                [&](std::size_t b, std::size_t j, Scalar sq) {
                  resid_all[b * n + j] = sq;
                });

    // Ordered fold: one thread per grid entry sums its residual row in
    // ascending observation order — bitwise the sequential host order.
    device.launch(names.fold, spmd::LaunchConfig::cover(kb, tpb),
                  [&, kb](const spmd::ThreadCtx& t) {
      const std::size_t b = t.global_idx();
      if (b >= kb) {
        return;
      }
      double total = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        total += static_cast<double>(resid_all[b * n + j]);
      }
      scores_all[b] = total;
    });

    device.copy_to_host(std::span<double>(host_scores), d_scores);
    for (std::size_t b = 0; b < kb; ++b) {
      cv[b0 + b] = host_scores[b] / static_cast<double>(n);
    }
  }
  return cv;
}

}  // namespace kreg::detail
