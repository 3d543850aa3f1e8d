#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batched_sweep.hpp"
#include "core/detail/device_sweep.hpp"
#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "spmd/device.hpp"

namespace kreg::detail {

/// The drivers every window policy (window_policy.hpp) runs through: one
/// sequential and one tiled host profile, and one device driver. Each is
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

/// Rows per tile of the host tiled profile: eight lane batches. A tile's
/// carried state and its rows × kTileEntries residual slab (32 KiB in
/// double) stay on the worker's stack, within L1/L2.
inline constexpr std::size_t kTileRows = 8 * kLaneWidth;
/// Grid entries per k-block of the host tiled profile.
inline constexpr std::size_t kTileEntries = 64;

/// The scalar host pass of a window policy, the one tiled_profile runs for
/// k-NN and OSCV: a tile keeps one State per row, and every row resumes on
/// its own. (NW's tiled profile runs lane batches instead, window_sweep.cpp.)
template <class Sweep>
struct RowPass {
  using sweep_type = Sweep;
  using Tile = std::array<typename Sweep::State, kTileRows>;

  Sweep sweep;

  void seed(Tile& tile, std::size_t pos0, std::size_t rows) const {
    for (std::size_t r = 0; r < rows; ++r) {
      sweep.seed(pos0 + r, tile[r]);
    }
  }

  /// `write(b, r, value)` receives row r's value at slice index b.
  template <class Grid, class Write>
  void resume(Tile& tile, std::size_t pos0, std::size_t rows, Grid hs,
              Write&& write) const {
    for (std::size_t r = 0; r < rows; ++r) {
      sweep.resume(hs, pos0 + r, tile[r],
                   [&](std::size_t b, auto value) { write(b, r, value); });
    }
  }
};

/// The host tiled profile: sequential_profile's bits on every pool.
///
/// Tiles are runs of kTileRows consecutive sorted rows, claimed in
/// ascending order by the pool's workers. A tile seeds its rows and sweeps
/// the grid in ascending k-blocks of kTileEntries; after each k-block it
/// adds its rows' values, in ascending row order, into that k-block's
/// running totals — once the previous tile has done the same (one ticket
/// per k-block counts the tiles folded so far). Every grid entry therefore
/// takes the rows in the sequential sweep's order, whatever the pool, and
/// there are no per-tile partials to combine.
///
/// The tile body allocates nothing and cannot throw: a tile that failed
/// would leave its successors waiting on its tickets. A call from one of
/// the pool's own workers runs the tiles serially, in order. `pass` is a
/// RowPass or NW's lane-batch pass.
template <class Pass, class Grid>
std::vector<double> tiled_profile(const Pass& pass, Grid grid,
                                  parallel::ThreadPool* pool) {
  using Scalar = typename Pass::sweep_type::scalar_type;
  const std::size_t n = pass.sweep.xs.size();
  const std::size_t k = grid.size();
  const std::size_t tiles = (n + kTileRows - 1) / kTileRows;
  const std::size_t k_blocks = (k + kTileEntries - 1) / kTileEntries;
  std::vector<double> totals(k, 0.0);
  std::vector<std::atomic<std::uint32_t>> tickets(k_blocks);

  parallel::parallel_for(
      tiles,
      [&](std::size_t tile) {
        const std::size_t pos0 = tile * kTileRows;
        const std::size_t rows = std::min(kTileRows, n - pos0);
        // Tickets count modulo 2^32: tile t waits for exactly t.
        const auto mine = static_cast<std::uint32_t>(tile);
        typename Pass::Tile state{};
        Scalar resid[kTileRows * kTileEntries] = {};
        pass.seed(state, pos0, rows);
        for (std::size_t j = 0; j < k_blocks; ++j) {
          const std::size_t b0 = j * kTileEntries;
          const std::size_t kb = std::min(kTileEntries, k - b0);
          pass.resume(state, pos0, rows, grid.subspan(b0, kb),
                      [&](std::size_t b, std::size_t r, Scalar value) {
                        resid[r * kb + b] = value;
                      });
          std::atomic<std::uint32_t>& ticket = tickets[j];
          for (std::uint32_t seen = ticket.load(std::memory_order_acquire);
               seen != mine; seen = ticket.load(std::memory_order_acquire)) {
            ticket.wait(seen, std::memory_order_acquire);
          }
          double* block = totals.data() + b0;
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t b = 0; b < kb; ++b) {
              block[b] += static_cast<double>(resid[r * kb + b]);
            }
          }
          ticket.store(mine + 1, std::memory_order_release);
          ticket.notify_all();
        }
      },
      pool, parallel::Schedule::kDynamic, 1);

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

/// The scalar device pass of a window policy (k-NN, OSCV, KDE): launch_pass
/// with `tpb` threads to a block, the state carried in a PassCarry. One of
/// the two pass adaptors device_window_totals runs (NW's is NwLanePass,
/// window_pass.hpp). `sweep` reads the host's sorted arrays.
template <class Sweep>
struct PolicyPass {
  using sweep_type = Sweep;
  using Scalar = typename Sweep::scalar_type;

  /// The carried state of `rows` rows: P words and S scalars each.
  struct Carry {
    spmd::DeviceBuffer<std::size_t> words;
    spmd::DeviceBuffer<Scalar> scalars;

    Carry(spmd::Device& device, const Sweep& sweep, std::size_t rows,
          const std::string& tag)
        : words(device.alloc_global<std::size_t>(rows * Sweep::State::kWords,
                                                 tag + "-carry-words")),
          scalars(device.alloc_global<Scalar>(rows * sweep.scalars(),
                                              tag + "-carry-scalars")) {}
  };

  Sweep sweep;
  std::size_t tpb;

  template <class HView, class Write>
  void launch(spmd::Device& device, const char* name, const Sweep& on,
              std::size_t pos0, std::size_t rows, HView hs, Carry* carry,
              bool seed, Write write) const {
    std::optional<PassCarry<Scalar>> state;
    if (carry != nullptr) {
      state = PassCarry<Scalar>{carry->words.view(), carry->scalars.view(),
                                seed};
    }
    launch_pass(device, name, tpb, on, pos0, rows, hs,
                state ? &*state : nullptr, write);
  }
};

/// The driver's byte model: the device bytes a block of `rows` observations
/// holds at once while it sweeps `kb` of the grid's `k` entries over a slab
/// of `span` sorted positions. That is the policy's sorted arrays over the
/// slab, the rows' carried state when the grid takes more than one k-block,
/// the rows × kb residual block and its kb running totals (one double
/// each). It reads only the policy's shape, never its arrays.
template <class Sweep>
std::size_t window_bytes(const Sweep& sweep, std::size_t span,
                         std::size_t rows, std::size_t k, std::size_t kb) {
  using Scalar = typename Sweep::scalar_type;
  const std::size_t carry_row = Sweep::State::kWords * sizeof(std::size_t) +
                                sweep.scalars() * sizeof(Scalar);
  return Sweep::kArrays * span * sizeof(Scalar) +
         (kb < k ? rows * carry_row : 0) + rows * kb * sizeof(Scalar) +
         kb * sizeof(double);
}

/// The grid entries of element type G one pass can hold in `device`'s
/// constant cache. The auto plans cap their k-block here; an explicit
/// k-block or `auto_tune = false` keeps the paper's cap, and the upload
/// throws ConstantCapacityError past it.
template <class G>
std::size_t constant_grid_entries(const spmd::Device& device) {
  return device.properties().constant_cache_bytes / sizeof(G);
}

/// The plan of the slice [begin, end) of `sweep`'s sorted positions on
/// `device`, for a grid of `k` entries of type G: resolve_streaming_2d
/// against window_bytes and the device's budget, with the auto k-block
/// capped at constant_grid_entries<G>. A block covering the slice reads the
/// whole sorted arrays, a smaller one the widest halo slab at `reach`; the
/// resident plan is the one block (end − begin, k).
template <class G, class Sweep>
StreamingPlan window_plan(const spmd::Device& device,
                          const StreamingConfig& stream, const Sweep& sweep,
                          std::size_t begin, std::size_t end, std::size_t k,
                          typename Sweep::scalar_type reach) {
  const std::size_t max_kb = constant_grid_entries<G>(device);
  const TileBytesFn bytes = [&](std::size_t nb,
                                std::size_t kb) -> std::size_t {
    if (kb > max_kb) {
      return SIZE_MAX;  // no auto plan may put more in constant memory
    }
    const std::size_t rows = std::min(nb, end - begin);
    const std::size_t span =
        rows == end - begin
            ? sweep.xs.size()
            : max_halo_span(sweep.xs, begin, end, rows, reach);
    return window_bytes(sweep, span, rows, k, kb);
  };
  return resolve_streaming_2d(stream, end - begin, k, bytes(end - begin, k),
                              bytes,
                              device.properties().memory_budget().global_bytes);
}

/// The n-resident plan of the whole sorted arrays on `device`, for a grid
/// of `k` entries of type G: resolve_streaming against window_bytes, only
/// the grid streaming, the auto k-block capped at constant_grid_entries<G>.
/// For the policies whose device profile runs n-resident (k-NN, whose
/// windows are neighbour counts with no distance reach, and OSCV).
template <class G, class Sweep>
StreamingPlan window_plan_k(const spmd::Device& device,
                            const StreamingConfig& stream, const Sweep& sweep,
                            std::size_t k) {
  const std::size_t n = sweep.xs.size();
  const std::size_t max_kb = constant_grid_entries<G>(device);
  const std::size_t base = window_bytes(sweep, n, n, k, 0);
  const std::size_t one = window_bytes(sweep, n, n, k, 1);
  StreamingPlan plan = resolve_streaming(
      stream, k, k > max_kb ? SIZE_MAX : window_bytes(sweep, n, n, k, k), base,
      one > base ? one - base : 0,
      device.properties().memory_budget().global_bytes);
  if (plan.streamed && stream.k_block == 0) {
    plan.k_block = std::min(plan.k_block, max_kb);
  }
  return plan;
}

/// Launch and allocation names of one estimator's device window profile.
struct WindowNames {
  const char* sweep;  ///< the pass ("knn_sweep")
  const char* fold;   ///< the ordered score fold ("knn_score_fold")
  const char* grid;   ///< the grid-slice constant ("neighbor-grid")
  const char* tag;    ///< buffer label prefix ("knn")
};

/// Grid entries per thread of the ordered score fold: one cache line of
/// double totals.
inline constexpr std::size_t kFoldEntries = 8;

/// The folded value of a squared-residual policy (NW, k-NN, OSCV): the
/// residual itself.
struct SquaredResidual {
  template <class HView, class Scalar>
  Scalar operator()(const HView& /*hs*/, std::size_t /*b*/, Scalar sq) const {
    return sq;
  }
};

/// The one device window driver. Adds, for every grid entry, the values of
/// the sorted positions [begin, end) into `totals` in ascending observation
/// order, so totals that start at zero and take their slices in ascending
/// order hold exactly the sequential host fold (sequential_profile before
/// its ÷ n) on every plan, pass form and slice count.
///
/// The plan's n-blocks tile the slice. Each block uploads the policy's
/// sorted arrays — all of them when the plan is n-resident, else the
/// block's halo slab (halo_begin/halo_end at `reach`, the grid's widest
/// admission) — and sweeps them k-block by k-block: one grid slice in
/// constant memory per pass, the rows' state carried between passes (only
/// when there is more than one k-block). The pass writes its values
/// observation-major, row r's kb values side by side, so a lane batch's
/// lanes each fill their own cache lines step after step. After each pass
/// the ordered fold continues every entry's running total over the block's
/// rows: the k-block's totals go up, each fold thread takes 8 consecutive
/// entries (one cache line of double totals) and adds the rows to them in
/// ascending order, and the totals come back. `partial(hs, b, values...)`
/// makes the folded value of a pass's values at slice entry b.
template <class Pass, class G, class Partial = SquaredResidual>
void device_window_totals(spmd::Device& device, const Pass& pass,
                          std::span<const G> grid, std::size_t begin,
                          std::size_t end, const StreamingPlan& plan,
                          typename Pass::sweep_type::scalar_type reach,
                          std::span<double> totals, const WindowNames& names,
                          Partial partial = {}) {
  using Sweep = typename Pass::sweep_type;
  using Scalar = typename Sweep::scalar_type;
  const std::span<const Scalar> xs = pass.sweep.xs;
  const std::size_t k = grid.size();
  const std::size_t n_block = plan.n_streamed ? plan.n_block : end - begin;
  const std::size_t k_block = plan.k_block;
  const std::size_t max_blocks = device.properties().max_grid_blocks;
  const std::string tag = names.tag;

  for (std::size_t n0 = begin; n0 < end; n0 += n_block) {
    const std::size_t rows = std::min(n_block, end - n0);
    const std::size_t s0 = plan.n_streamed ? halo_begin(xs, n0, reach) : 0;
    const std::size_t s1 =
        plan.n_streamed ? halo_end(xs, n0 + rows - 1, reach) : xs.size();
    // The block's sorted arrays, its carry and residual block; all freed
    // before the next block uploads.
    std::vector<spmd::DeviceBuffer<Scalar>> arrays;
    arrays.reserve(Sweep::kArrays);
    const Sweep on = pass.sweep.rebind([&](std::span<const Scalar> host) {
      spmd::DeviceBuffer<Scalar>& buf = arrays.emplace_back(
          device.alloc_global<Scalar>(s1 - s0, tag + "-sorted"));
      device.copy_to_device(buf, host.subspan(s0, s1 - s0));
      return std::span<const Scalar>(buf.span());
    });
    std::optional<typename Pass::Carry> carry;
    if (k_block < k) {
      carry.emplace(device, pass.sweep, rows, tag);
    }
    spmd::DeviceBuffer<Scalar> d_resid =
        device.alloc_global<Scalar>(rows * k_block, tag + "-residual-block");
    spmd::MemView<Scalar> resid = d_resid.view();

    for (std::size_t b0 = 0; b0 < k; b0 += k_block) {
      const std::size_t kb = std::min(k_block, k - b0);
      spmd::ConstantBuffer<G> c_block =
          device.upload_constant<G>(grid.subspan(b0, kb), names.grid);
      const spmd::MemView<const G> hs = c_block.view();
      // Positions are slab-relative: the halo guarantees no admission ever
      // reaches a slab edge the whole arrays would cross.
      pass.launch(device, names.sweep, on, n0 - s0, rows, hs,
                  carry ? &*carry : nullptr, b0 == 0,
                  [&, kb](std::size_t b, std::size_t r, auto... values) {
                    resid[r * kb + b] = partial(hs, b, values...);
                  });

      const std::span<double> block_totals = totals.subspan(b0, kb);
      spmd::DeviceBuffer<double> d_scores =
          device.alloc_global<double>(kb, tag + "-score-block");
      device.copy_to_device(d_scores, std::span<const double>(block_totals));
      spmd::MemView<double> scores = d_scores.view();
      const std::size_t groups = (kb + kFoldEntries - 1) / kFoldEntries;
      device.launch(names.fold,
                    spmd::LaunchConfig::cover(
                        groups, (groups + max_blocks - 1) / max_blocks),
                    [&, kb, rows, groups](const spmd::ThreadCtx& t) {
        const std::size_t g = t.global_idx();
        if (g >= groups) {
          return;
        }
        const std::size_t b1 = g * kFoldEntries;
        const std::size_t width = std::min(kFoldEntries, kb - b1);
        double total[kFoldEntries] = {};
        for (std::size_t j = 0; j < width; ++j) {
          total[j] = scores[b1 + j];
        }
        const auto fold = [&](const auto& block) {
          for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t j = 0; j < width; ++j) {
              total[j] += static_cast<double>(block[r * kb + b1 + j]);
            }
          }
        };
        // Without a sanitizer the checked view only asserts, so the fold
        // reads the block as a plain span; with one, every read is checked.
        if (resid.shadow() == nullptr) {
          fold(std::span<const Scalar>(resid.data(), resid.size()));
        } else {
          fold(resid);
        }
        for (std::size_t j = 0; j < width; ++j) {
          scores[b1 + j] = total[j];
        }
      });
      device.copy_to_host(block_totals, d_scores);
    }
  }
}

}  // namespace kreg::detail
