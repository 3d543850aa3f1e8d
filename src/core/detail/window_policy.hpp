#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/detail/device_sweep.hpp"
#include "core/detail/kde_polynomials.hpp"
#include "core/kernels.hpp"

namespace kreg::detail {

/// One observation's carried window state in the layout every backend
/// shares: P pointer words plus up to S scalars (the policy's `scalars()`
/// of them are live). The host tiled driver keeps one per row; a streamed
/// device pass stores the P words and the live scalars of each row in two
/// buffers between grid slices (PassCarry, window_drivers.hpp; NW's
/// device pass keeps its own WindowCarry, window_pass.hpp).
template <class Scalar, std::size_t P, std::size_t S>
struct WindowState {
  static constexpr std::size_t kWords = P;
  std::size_t word[P];
  Scalar scalar[S];
};

/// ---- Window policies ---------------------------------------------------
///
/// A policy is one 1-D window estimator written once: the sorted arrays it
/// reads, its `State`, `seed(pos, state)` and `resume(grid_slice, pos,
/// state, write)`. `resume` sweeps any ascending slice of the grid from the
/// carried state and hands `write(b, values...)` the per-entry values at
/// slice index b. Each policy wraps its estimator's seed/resume bodies
/// unchanged, so every driver (sequential, tiled, device) performs the
/// same operations per observation and a streamed profile matches the
/// resident one bitwise. For the device driver each policy also names its
/// `scalar_type`, the live `scalars()` count a carry stores, its `kArrays`
/// sorted arrays, and `rebind(map)`: the same policy over `map(array)` for
/// each of them (a device upload or an n-block's halo slab).

/// Nadaraya–Watson LOOCV: words (lo, hi), scalars S_m then T_m (`terms`
/// each). write(b, sq): the squared LOO residual.
template <class Scalar>
struct NwWindow {
  using scalar_type = Scalar;
  using State = WindowState<Scalar, 2, 2 * (SweepPolynomial::kMaxPower + 1)>;
  static constexpr std::size_t kArrays = 2;

  std::span<const Scalar> xs;
  std::span<const Scalar> ys;
  SweepPolynomial poly;

  std::size_t scalars() const noexcept { return 2 * terms(); }

  template <class Map>
  NwWindow rebind(Map&& map) const {
    return {map(xs), map(ys), poly};
  }

  void seed(std::size_t pos, State& st) const {
    window_sweep_seed<Scalar>(ys, pos, st.word[0], st.word[1], s_m(st),
                              t_m(st));
  }

  template <class Grid, class Write>
  void resume(Grid hs, std::size_t pos, State& st, Write&& write) const {
    window_sweep_resume<Scalar>(xs, ys, hs, poly, pos, st.word[0], st.word[1],
                                s_m(st), t_m(st), write);
  }

 private:
  std::size_t terms() const noexcept { return poly.max_power + 1; }
  std::span<Scalar> s_m(State& st) const { return {st.scalar, terms()}; }
  std::span<Scalar> t_m(State& st) const {
    return {st.scalar + terms(), terms()};
  }
};

/// k-NN LOOCV over a neighbour-count grid: words (lo, hi), scalars (left
/// Y-sum, right Y-sum). write(b, sq): the squared LOO residual.
template <class Scalar>
struct KnnWindow {
  using scalar_type = Scalar;
  using State = WindowState<Scalar, 2, 2>;
  static constexpr std::size_t kArrays = 2;

  std::span<const Scalar> xs;
  std::span<const Scalar> ys;

  static constexpr std::size_t scalars() noexcept { return 2; }

  template <class Map>
  KnnWindow rebind(Map&& map) const {
    return {map(xs), map(ys)};
  }

  void seed(std::size_t pos, State& st) const {
    knn_sweep_seed<Scalar>(pos, st.word[0], st.word[1], st.scalar[0],
                           st.scalar[1]);
  }

  template <class Grid, class Write>
  void resume(Grid ks, std::size_t pos, State& st, Write&& write) const {
    knn_sweep_resume<Scalar>(xs, ys, ks, pos, st.word[0], st.word[1],
                             st.scalar[0], st.scalar[1], write);
  }
};

/// One-sided CV: words (lo, admitted count), scalars M_q then N_q
/// (oscv_moment_count each). write(b, sq): the squared one-sided residual.
template <class Scalar>
struct OscvWindow {
  using scalar_type = Scalar;
  using State = WindowState<Scalar, 2, 2 * kOscvMaxMoments>;
  static constexpr std::size_t kArrays = 2;

  std::span<const Scalar> xs;
  std::span<const Scalar> ys;
  SweepPolynomial poly;

  std::size_t scalars() const noexcept { return 2 * moments(); }

  template <class Map>
  OscvWindow rebind(Map&& map) const {
    return {map(xs), map(ys), poly};
  }

  void seed(std::size_t pos, State& st) const {
    oscv_sweep_seed<Scalar>(pos, st.word[0], st.word[1], m_q(st), n_q(st));
  }

  template <class Grid, class Write>
  void resume(Grid hs, std::size_t pos, State& st, Write&& write) const {
    oscv_sweep_resume<Scalar>(xs, ys, hs, poly, pos, st.word[0], st.word[1],
                              m_q(st), n_q(st), write);
  }

 private:
  std::size_t moments() const noexcept { return oscv_moment_count(poly); }
  std::span<Scalar> m_q(State& st) const { return {st.scalar, moments()}; }
  std::span<Scalar> n_q(State& st) const {
    return {st.scalar + moments(), moments()};
  }
};

/// KDE LSCV over the globally sorted X: two admission windows, |Δ| ≤ 2h
/// for the K̄ = K*K convolution sum and |Δ| ≤ h for the leave-one-out K
/// sum, each a pair of monotone pointers growing outward. Words (conv lo,
/// conv hi, loo lo, loo hi), scalars the conv then the loo moment sums.
/// write(b, conv, loo): both pair sums, self term excluded.
struct KdeWindow {
  using scalar_type = double;
  static constexpr std::size_t kSums = kKdeMaxMoment + 1;
  using State = WindowState<double, 4, 2 * kSums>;
  static constexpr std::size_t kArrays = 1;

  std::span<const double> xs;
  SupportPolynomial kpoly;
  SupportPolynomial cpoly;

  static constexpr std::size_t scalars() noexcept { return 2 * kSums; }

  template <class Map>
  KdeWindow rebind(Map&& map) const {
    return {map(xs), kpoly, cpoly};
  }

  void seed(std::size_t pos, State& st) const {
    conv(st).seed(pos);
    loo(st).seed(pos);
  }

  template <class Grid, class Write>
  void resume(Grid hs, std::size_t pos, State& st, Write&& write) const {
    WindowMomentSweep conv_sweep = conv(st);
    WindowMomentSweep loo_sweep = loo(st);
    const double xi = xs[pos];
    const std::size_t max_power = std::max(kpoly.max_power, cpoly.max_power);
    for (std::size_t b = 0; b < hs.size(); ++b) {
      const double h = hs[b];
      conv_sweep.expand(xs, xi, cpoly.support_scale * h, max_power);
      loo_sweep.expand(xs, xi, kpoly.support_scale * h, max_power);
      write(b, conv_sweep.combine(cpoly, h), loo_sweep.combine(kpoly, h));
    }
  }

 private:
  static WindowMomentSweep conv(State& st) {
    return {st.word[0], st.word[1], std::span<double, kSums>(st.scalar, kSums)};
  }
  static WindowMomentSweep loo(State& st) {
    return {st.word[2], st.word[3],
            std::span<double, kSums>(st.scalar + kSums, kSums)};
  }
};

}  // namespace kreg::detail
