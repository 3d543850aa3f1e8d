#pragma once

#include <cstddef>
#include <span>

#include "spmd/device.hpp"
#include "spmd/reduce.hpp"

namespace kreg::detail {

/// Lane-carried score reduction for n-block streaming.
///
/// The resident per-bandwidth reduction (spmd::reduce_sum_rows, one block
/// per bandwidth over either residual layout) is a two-phase schedule:
/// phase 1 has thread t fold the elements j ≡ t (mod D) in ascending j into
/// a private accumulator (D = the power-of-two reduction block size), phase
/// 2 tree-reduces the D accumulators in shared memory. Floating-point
/// addition is not associative, so a streamed sweep that reduced each
/// n-block separately and added block totals would NOT reproduce the
/// resident score bitwise.
///
/// Carrying the *lane accumulators* instead does: keep k×D per-(bandwidth,
/// lane) partials resident on the device, have each n-block add its
/// residuals into lane (global observation index mod D) in ascending order
/// (`lane_fold`), and replay phase 2's exact tree schedule once at the end
/// (`lane_tree_reduce`) — the sequence of additions each lane and each tree
/// node performs is then identical to the resident reduction for ANY
/// n-block size, so the streamed profile is bitwise identical to the
/// resident one. (Phase 1 starts each lane at T{} = 0 and left-folds with
/// +=; accumulating directly into the zero-initialized lane slot
/// element-by-element reproduces that left fold across blocks.)

/// Phase 1 continued across n-blocks: folds the `block.rows` bandwidth rows
/// of one n-block's residuals (`block.length` observations starting at
/// global row n0) into the carried lanes of bandwidths [b0, b0 + rows).
/// One thread per bandwidth walks the block's rows in ascending order and
/// adds row r into lane (n0 + r) mod D, so each lane still receives its
/// residuals in ascending global order — bitwise the per-lane strided fold
/// — while the reads run along the row and the bandwidths spread over
/// one block each.
template <class Scalar>
void lane_fold(spmd::Device& device, const char* name,
               spmd::MemView<Scalar> lanes, std::size_t b0,
               spmd::MemView<Scalar> residuals, spmd::RowLayout block,
               std::size_t n0, std::size_t lane_dim) {
  // One thread per block unless the bandwidths outnumber the grid limit.
  const std::size_t max_blocks = device.properties().max_grid_blocks;
  const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(
      block.rows, (block.rows + max_blocks - 1) / max_blocks);
  device.launch(name, cfg, [&](const spmd::ThreadCtx& t) {
    const std::size_t b = t.global_idx();
    if (b >= block.rows) {
      return;
    }
    const std::size_t lane_base = (b0 + b) * lane_dim;
    const std::size_t first = b * block.row_pitch;
    std::size_t lane = n0 % lane_dim;
    for (std::size_t r = 0; r < block.length; ++r) {
      lanes[lane_base + lane] += residuals[first + r * block.stride];
      if (++lane == lane_dim) {
        lane = 0;
      }
    }
  });
}

/// Phase-2 replay for every carried bandwidth in one cooperative launch:
/// block b loads lanes [b·D, (b+1)·D) into shared memory, runs the
/// requested Harris schedule and writes its total to totals[b]. The
/// observation-major resident reduction is hardcoded sequential, so callers
/// pass the variant their resident counterpart uses.
template <class Scalar>
void lane_tree_reduce(spmd::Device& device, spmd::MemView<Scalar> lanes,
                      std::size_t lane_dim, spmd::ReduceVariant variant,
                      std::span<Scalar> totals) {
  spmd::detail::launch_rows(
      device, "score_lane_reduce", totals.size(), lane_dim,
      lane_dim * sizeof(Scalar), [&](spmd::BlockCtx& ctx, std::size_t b) {
        auto shared = ctx.template shared_as<Scalar>(lane_dim);
        ctx.for_each_thread(
            [&](std::size_t t) { shared[t] = lanes[b * lane_dim + t]; });
        spmd::detail::harris_tree(ctx, shared, lane_dim, variant);
        totals[b] = shared[0];
      });
}

}  // namespace kreg::detail
