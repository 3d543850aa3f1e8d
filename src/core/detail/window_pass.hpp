#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/batched_sweep.hpp"
#include "core/detail/batched_lanes.hpp"
#include "core/detail/device_sweep.hpp"
#include "core/kernels.hpp"
#include "spmd/device.hpp"

namespace kreg::detail {

/// Per-observation window state a streamed pass carries to the next grid
/// slice: the two window pointers and the moment sums, indexed by the
/// pass's row (moment sums `terms` per row).
template <class Scalar>
struct WindowCarry {
  spmd::MemView<std::size_t> lo;
  spmd::MemView<std::size_t> hi;
  spmd::MemView<Scalar> s_m;
  spmd::MemView<Scalar> t_m;
  /// The pass sweeps the grid's first slice: seed the state instead of
  /// loading it.
  bool seed = true;
};

/// Launches one pass of the NW window sweep over `rows` observations: row r
/// is the observation at position pos0 + r of the sorted `xs`/`ys` (the
/// whole arrays or an n-block's halo slab), swept over the ascending grid
/// slice `hs` with one thread per row, `tpb` to a block.
///
/// With `lane_width` = kLaneWidth each dispatch steps kLaneWidth
/// consecutive rows in lockstep as one LaneBatch; with 1 every thread runs
/// the scalar seed/resume body. Per observation both perform the same
/// operations, so every residual and every carried state is bitwise the
/// same in either form.
///
/// Without `carry` the pass is resident: it seeds every row, sweeps `hs`
/// and drops the state. With `carry` it seeds (first slice) or loads the
/// state, sweeps `hs`, and stores the state back for the next slice.
/// `write(b, r, sq)` receives the squared LOO residual of row r at slice
/// index b.
template <class Scalar, class HView, class Write>
void launch_window_pass(spmd::Device& device, const char* name,
                        std::size_t lane_width, std::size_t tpb,
                        std::span<const Scalar> xs, std::span<const Scalar> ys,
                        std::size_t pos0, std::size_t rows, HView hs,
                        const SweepPolynomial& poly,
                        const WindowCarry<Scalar>* carry, Write write) {
  const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(rows, tpb);
  const std::size_t terms = poly.max_power + 1;
  const bool seed = carry == nullptr || carry->seed;

  if (lane_width != 1) {
    device.launch_lanes(name, cfg, kLaneWidth, [&](const spmd::LaneCtx& t) {
      const std::size_t row0 = t.global_base();
      if (row0 >= rows) {
        return;  // all-padding dispatch in the last block
      }
      LaneBatch<Scalar> st;
      st.lanes = std::min(t.lanes, rows - row0);
      for (std::size_t l = 0; l < st.lanes; ++l) {
        st.pos[l] = pos0 + row0 + l;
      }
      const auto key = [row0](std::size_t l) { return row0 + l; };
      if (seed) {
        batch_seed(st, xs, ys);
      } else {
        batch_load(st, xs, ys, carry->lo, carry->hi, carry->s_m, carry->t_m,
                   terms, key);
      }
      batch_resume(st, xs, ys, hs, poly,
                   [&](std::size_t b, std::size_t l, Scalar sq) {
                     write(b, row0 + l, sq);
                   });
      if (carry != nullptr) {
        batch_store(st, carry->lo, carry->hi, carry->s_m, carry->t_m, terms,
                    key);
      }
    });
    return;
  }

  device.launch(name, cfg, [&](const spmd::ThreadCtx& t) {
    const std::size_t r = t.global_idx();
    if (r >= rows) {
      return;  // padding thread in the last block
    }
    const std::size_t pos = pos0 + r;
    Scalar s_m[SweepPolynomial::kMaxPower + 1] = {};
    Scalar t_m[SweepPolynomial::kMaxPower + 1] = {};
    const std::span<Scalar> sm(s_m, terms);
    const std::span<Scalar> tm(t_m, terms);
    std::size_t lo = 0;
    std::size_t hi = 0;
    if (seed) {
      window_sweep_seed<Scalar>(ys, pos, lo, hi, sm, tm);
    } else {
      lo = carry->lo[r];
      hi = carry->hi[r];
      for (std::size_t m = 0; m < terms; ++m) {
        s_m[m] = carry->s_m[r * terms + m];
        t_m[m] = carry->t_m[r * terms + m];
      }
    }
    window_sweep_resume<Scalar>(xs, ys, hs, poly, pos, lo, hi, sm, tm,
                                [&](std::size_t b, Scalar sq) {
                                  write(b, r, sq);
                                });
    if (carry != nullptr) {
      carry->lo[r] = lo;
      carry->hi[r] = hi;
      for (std::size_t m = 0; m < terms; ++m) {
        carry->s_m[r * terms + m] = s_m[m];
        carry->t_m[r * terms + m] = t_m[m];
      }
    }
  });
}

}  // namespace kreg::detail
