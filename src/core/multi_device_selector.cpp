#include "core/multi_device_selector.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "core/batched_sweep.hpp"
#include "core/detail/batched_lanes.hpp"
#include "core/detail/device_sweep.hpp"
#include "core/detail/lane_reduce.hpp"
#include "core/window_sweep.hpp"
#include "parallel/blocked_range.hpp"
#include "spmd/reduce.hpp"

namespace kreg {

MultiDeviceGridSelector::MultiDeviceGridSelector(
    std::vector<spmd::Device*> devices, SpmdSelectorConfig config)
    : devices_(std::move(devices)), config_(config) {
  if (devices_.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: no devices");
  }
  for (const spmd::Device* device : devices_) {
    if (device == nullptr) {
      throw std::invalid_argument("MultiDeviceGridSelector: null device");
    }
  }
  (void)resolve_lane_width(config_.lane_width);  // reject bad widths early
  config_.prefetch_distance =
      resolve_prefetch_distance(config_.prefetch_distance);
}

std::size_t MultiDeviceGridSelector::estimated_bytes_per_device(
    std::size_t n, std::size_t k, std::size_t devices, Precision precision,
    bool streaming, SweepAlgorithm algorithm, std::size_t k_block,
    KernelType kernel) {
  if (devices == 0) {
    throw std::invalid_argument("estimated_bytes_per_device: devices == 0");
  }
  const std::size_t elem =
      precision == Precision::kFloat ? sizeof(float) : sizeof(double);
  const std::size_t slice = (n + devices - 1) / devices;  // worst slice
  if (algorithm == SweepAlgorithm::kWindow) {
    // Replicated sorted x + y, the slice's carried window state, and one
    // slice×k_block residual block (k_block = 0 keeps the whole grid).
    const std::size_t kb = k_block == 0 ? k : std::min(k_block, k);
    const std::size_t terms = sweep_polynomial(kernel).max_power + 1;
    return 2 * n * elem + 2 * slice * terms * elem +
           2 * slice * sizeof(std::size_t) + slice * kb * elem;
  }
  // Full x + y replicated, plus slice-sized matrices and per-device scores.
  std::size_t elems = 2 * n + k + 3 * slice * k;
  if (!streaming) {
    elems += 2 * slice * n;
  }
  return elems * elem;
}

namespace {

template <class Scalar>
SelectionResult run_multi_device(const std::vector<spmd::Device*>& devices,
                                 const SpmdSelectorConfig& config,
                                 const data::Dataset& data,
                                 const BandwidthGrid& grid,
                                 std::string method_name) {
  const std::size_t n = data.size();
  const std::size_t k = grid.size();
  const SweepPolynomial poly = sweep_polynomial(config.kernel);
  const bool streaming = config.streaming;

  const bool window = config.algorithm == SweepAlgorithm::kWindow;

  std::vector<Scalar> host_x(n);
  std::vector<Scalar> host_y(n);
  if (window) {
    // One global sort on the host; every device indexes the same sorted
    // arrays, each sweeping its contiguous slice of *positions*.
    SortedDataset<Scalar> sorted = sort_dataset<Scalar>(data.x, data.y);
    host_x = std::move(sorted.x);
    host_y = std::move(sorted.y);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      host_x[i] = static_cast<Scalar>(data.x[i]);
      host_y[i] = static_cast<Scalar>(data.y[i]);
    }
  }
  std::vector<Scalar> host_grid(k);
  for (std::size_t b = 0; b < k; ++b) {
    host_grid[b] = static_cast<Scalar>(grid[b]);
  }

  const std::vector<parallel::BlockedRange> slices =
      parallel::partition_evenly(n, devices.size());

  // Combined per-bandwidth sums of squared residuals across devices.
  std::vector<double> combined(k, 0.0);

  if (window) {
    // Window path: shards are (device × n-block × k-block). Each device
    // sweeps its contiguous slice of sorted positions; within a device the
    // slice tiles further into n-blocks (each uploading only a halo-padded
    // slab of the sorted arrays and carrying slice totals in per-lane
    // accumulators — see lane_reduce.hpp) and the bandwidth grid streams
    // through in k-blocks, each dimension sized to that device's own
    // memory budget (a resident plan is simply the single-block
    // degenerate, so one code path serves both). Only the per-bandwidth
    // slice totals leave the device; every shard shape is bitwise
    // identical to the resident sweep.
    const std::size_t terms = poly.max_power + 1;
    const std::span<const Scalar> xs_host(host_x);
    const std::span<const Scalar> ys_host(host_y);
    const Scalar reach = host_grid.back();  // widest admission: h_max
    // Lane batching: the σ-sort key is a global property of the sorted
    // array, so one pass serves every device's slice.
    const std::size_t lane_width = resolve_lane_width(config.lane_width);
    AdmissionWindows win;
    if (lane_width > 1) {
      win = admission_windows<Scalar>(xs_host, reach);
    }
    for (std::size_t d = 0; d < slices.size(); ++d) {
      spmd::Device& device = *devices[d];
      const parallel::BlockedRange slice = slices[d];
      const std::size_t rows = slice.size();
      const std::size_t base = slice.begin;
      const std::size_t tpb = std::min(
          config.threads_per_block, device.properties().max_threads_per_block);
      const std::size_t elem = sizeof(Scalar);
      const std::size_t lane_dim =
          spmd::detail::reduction_block_dim(device, tpb);
      const std::size_t base_bytes = 2 * n * elem + 2 * rows * terms * elem +
                                     2 * rows * sizeof(std::size_t);
      const std::size_t per_k_bytes = rows * elem;
      const auto tile_bytes = [&, rows, base, k](std::size_t nb,
                                                 std::size_t kb)
          -> std::size_t {
        if (nb >= rows) {
          // Slice-resident: full sorted arrays + carry state + one block.
          return base_bytes + kb * per_k_bytes;
        }
        const std::size_t slab =
            detail::max_halo_span(xs_host, base, base + rows, nb, reach);
        return 2 * slab * elem +
               nb * (2 * terms * elem + 2 * sizeof(std::size_t)) +
               nb * kb * elem + k * lane_dim * elem;
      };
      const StreamingPlan plan = resolve_streaming_2d(
          config.stream, rows, k, base_bytes + k * per_k_bytes, tile_bytes,
          device.properties().memory_budget().global_bytes);

      if (plan.n_streamed) {
        // Carried per-(bandwidth, lane) accumulators, keyed on the
        // *slice-local* row index mod lane_dim — exactly how the resident
        // per-device reduce_sum lanes its slice — and zero-uploaded like
        // phase 1's initial state.
        spmd::DeviceBuffer<Scalar> d_lanes =
            device.alloc_global<Scalar>(k * lane_dim, "score-lanes");
        {
          const std::vector<Scalar> zeros(k * lane_dim, Scalar{});
          device.copy_to_device(d_lanes, std::span<const Scalar>(zeros));
        }
        spmd::MemView<Scalar> lanes = d_lanes.view();

        for (std::size_t n0 = 0; n0 < rows; n0 += plan.n_block) {
          const std::size_t nb = std::min(plan.n_block, rows - n0);
          const std::size_t slab_begin =
              detail::halo_begin(xs_host, base + n0, reach);
          const std::size_t slab_end =
              detail::halo_end(xs_host, base + n0 + nb - 1, reach);
          const std::size_t slab = slab_end - slab_begin;

          spmd::DeviceBuffer<Scalar> d_x =
              device.alloc_global<Scalar>(slab, "x-slab");
          spmd::DeviceBuffer<Scalar> d_y =
              device.alloc_global<Scalar>(slab, "y-slab");
          device.copy_to_device(d_x, xs_host.subspan(slab_begin, slab));
          device.copy_to_device(d_y, ys_host.subspan(slab_begin, slab));
          spmd::DeviceBuffer<std::size_t> d_lo =
              device.alloc_global<std::size_t>(nb, "window-lo");
          spmd::DeviceBuffer<std::size_t> d_hi =
              device.alloc_global<std::size_t>(nb, "window-hi");
          spmd::DeviceBuffer<Scalar> d_sm =
              device.alloc_global<Scalar>(nb * terms, "moment-s");
          spmd::DeviceBuffer<Scalar> d_tm =
              device.alloc_global<Scalar>(nb * terms, "moment-t");
          spmd::DeviceBuffer<Scalar> d_resid =
              device.alloc_global<Scalar>(nb * plan.k_block,
                                          "residual-block");

          std::span<const Scalar> xs = d_x.span();
          std::span<const Scalar> ys = d_y.span();
          spmd::MemView<std::size_t> lo_all = d_lo.view();
          spmd::MemView<std::size_t> hi_all = d_hi.view();
          spmd::MemView<Scalar> sm_all = d_sm.view();
          spmd::MemView<Scalar> tm_all = d_tm.view();
          spmd::MemView<Scalar> resid_all = d_resid.view();

          const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(nb, tpb);
          const std::size_t rel0 = base + n0 - slab_begin;

          std::vector<std::uint32_t> tile_order;
          if (lane_width > 1) {
            tile_order = sigma_batch_order(
                win.length, win.lo, base + n0, base + n0 + nb, tpb,
                config.sigma, sigma_position_bucket(sizeof(Scalar)));
          }
          const std::span<const std::uint32_t> order_s(tile_order);

          for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
            const std::size_t kb = std::min(plan.k_block, k - b0);
            const std::vector<Scalar> host_block(host_grid.begin() + b0,
                                                 host_grid.begin() + b0 + kb);
            spmd::ConstantBuffer<Scalar> c_block =
                device.upload_constant<Scalar>(host_block,
                                               "bandwidth-grid-block");
            spmd::MemView<const Scalar> hs = c_block.view();
            const bool first = b0 == 0;

            if (lane_width > 1) {
              // Batched fast path over slab-relative positions; carry and
              // residuals keyed by the observation's tile-relative index,
              // so the σ permutation never changes what any cell holds.
              detail::with_lane_width(lane_width, [&](auto width_c) {
                constexpr std::size_t C = decltype(width_c)::value;
                device.launch_lanes("cv_sweep_slice_tile", cfg, C,
                                    [&, nb, first, rel0](
                                        const spmd::LaneCtx& t) {
                  detail::LaneBatch<Scalar, C> st;
                  st.lanes = 0;
                  for (std::size_t l = 0; l < t.lanes; ++l) {
                    const std::size_t r = t.global_base() + l;
                    if (r < nb) {
                      st.pos[st.lanes++] = rel0 + order_s[r];
                    }
                  }
                  if (st.lanes == 0) {
                    return;
                  }
                  const auto key = [&st, rel0](std::size_t l) {
                    return st.pos[l] - rel0;
                  };
                  if (first) {
                    detail::batch_seed(st, xs, ys);
                  } else {
                    detail::batch_load(st, xs, ys, lo_all, hi_all, sm_all,
                                       tm_all, terms, key);
                  }
                  detail::batch_resume(
                      st, xs, ys, hs, poly,
                      [&](std::size_t b, std::size_t l, Scalar sq) {
                        const std::size_t q = st.pos[l] - rel0;
                        resid_all[b * nb + q] = sq;
                      },
                      config.prefetch_distance);
                  detail::batch_store(st, lo_all, hi_all, sm_all, tm_all,
                                      terms, key);
                });
              });
            } else {
              device.launch("cv_sweep_slice_tile", cfg,
                            [&, nb, kb, first, rel0](const spmd::ThreadCtx& t) {
                const std::size_t r = t.global_idx();
                if (r >= nb) {
                  return;
                }
                // Slab-relative position: the halo guarantees the slab
                // never truncates an admission, so the slab-edge guards
                // decide exactly as the resident full-array guards.
                const std::size_t pos = rel0 + r;
                Scalar s_m[SweepPolynomial::kMaxPower + 1] = {};
                Scalar t_m[SweepPolynomial::kMaxPower + 1] = {};
                std::size_t lo = 0;
                std::size_t hi = 0;
                if (first) {
                  detail::window_sweep_seed<Scalar>(
                      ys, pos, lo, hi, std::span<Scalar>(s_m, terms),
                      std::span<Scalar>(t_m, terms));
                } else {
                  lo = lo_all[r];
                  hi = hi_all[r];
                  for (std::size_t m = 0; m < terms; ++m) {
                    s_m[m] = sm_all[r * terms + m];
                    t_m[m] = tm_all[r * terms + m];
                  }
                }
                detail::window_sweep_resume<Scalar>(
                    xs, ys, hs, poly, pos, lo, hi,
                    std::span<Scalar>(s_m, terms),
                    std::span<Scalar>(t_m, terms),
                    [&](std::size_t b, Scalar sq) {
                      resid_all[b * nb + r] = sq;
                    });
                lo_all[r] = lo;
                hi_all[r] = hi;
                for (std::size_t m = 0; m < terms; ++m) {
                  sm_all[r * terms + m] = s_m[m];
                  tm_all[r * terms + m] = t_m[m];
                }
              });
            }

            // Phase 1 of the per-device resident reduction, continued
            // across n-blocks (slice-local rows).
            detail::lane_fold<Scalar>(device, "score_lane_accum", lanes, b0,
                                      resid_all,
                                      spmd::RowLayout::contiguous(kb, nb), n0,
                                      lane_dim);
          }
        }

        // Phase-2 replay over every bandwidth, same variant as the
        // per-device resident reduction.
        std::vector<Scalar> totals(k);
        detail::lane_tree_reduce<Scalar>(device, lanes, lane_dim,
                                         config.reduce_variant,
                                         std::span<Scalar>(totals));
        for (std::size_t b = 0; b < k; ++b) {
          combined[b] += static_cast<double>(totals[b]);
        }
        continue;
      }

      spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
      spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
      device.copy_to_device(d_x, std::span<const Scalar>(host_x));
      device.copy_to_device(d_y, std::span<const Scalar>(host_y));

      spmd::DeviceBuffer<std::size_t> d_lo =
          device.alloc_global<std::size_t>(rows, "window-lo");
      spmd::DeviceBuffer<std::size_t> d_hi =
          device.alloc_global<std::size_t>(rows, "window-hi");
      spmd::DeviceBuffer<Scalar> d_sm =
          device.alloc_global<Scalar>(rows * terms, "moment-s");
      spmd::DeviceBuffer<Scalar> d_tm =
          device.alloc_global<Scalar>(rows * terms, "moment-t");
      spmd::DeviceBuffer<Scalar> d_resid =
          device.alloc_global<Scalar>(rows * plan.k_block, "residual-block");

      std::span<const Scalar> xs = d_x.span();
      std::span<const Scalar> ys = d_y.span();
      spmd::MemView<std::size_t> lo_all = d_lo.view();
      spmd::MemView<std::size_t> hi_all = d_hi.view();
      spmd::MemView<Scalar> sm_all = d_sm.view();
      spmd::MemView<Scalar> tm_all = d_tm.view();
      spmd::MemView<Scalar> resid_all = d_resid.view();

      const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(rows, tpb);
      std::vector<Scalar> totals(plan.k_block);

      std::vector<std::uint32_t> slice_order;
      if (lane_width > 1) {
        slice_order = sigma_batch_order(
            win.length, win.lo, base, base + rows, tpb, config.sigma,
            sigma_position_bucket(sizeof(Scalar)));
      }
      const std::span<const std::uint32_t> order_s(slice_order);

      for (std::size_t b0 = 0; b0 < k; b0 += plan.k_block) {
        const std::size_t kb = std::min(plan.k_block, k - b0);
        const std::vector<Scalar> host_block(host_grid.begin() + b0,
                                             host_grid.begin() + b0 + kb);
        spmd::ConstantBuffer<Scalar> c_block = device.upload_constant<Scalar>(
            host_block, "bandwidth-grid-block");
        spmd::MemView<const Scalar> hs = c_block.view();
        const bool first = b0 == 0;

        if (lane_width > 1) {
          // Batched fast path: carry and residuals keyed by the
          // observation's slice-relative index, so the σ permutation never
          // changes what any cell holds.
          detail::with_lane_width(lane_width, [&](auto width_c) {
            constexpr std::size_t C = decltype(width_c)::value;
            device.launch_lanes("cv_sweep_slice_kblock", cfg, C,
                                [&, base, rows, first](
                                    const spmd::LaneCtx& t) {
              detail::LaneBatch<Scalar, C> st;
              st.lanes = 0;
              for (std::size_t l = 0; l < t.lanes; ++l) {
                const std::size_t r = t.global_base() + l;
                if (r < rows) {
                  st.pos[st.lanes++] = base + order_s[r];
                }
              }
              if (st.lanes == 0) {
                return;
              }
              const auto key = [&st, base](std::size_t l) {
                return st.pos[l] - base;
              };
              if (first) {
                detail::batch_seed(st, xs, ys);
              } else {
                detail::batch_load(st, xs, ys, lo_all, hi_all, sm_all, tm_all,
                                   terms, key);
              }
              detail::batch_resume(
                  st, xs, ys, hs, poly,
                  [&](std::size_t b, std::size_t l, Scalar sq) {
                    const std::size_t q = st.pos[l] - base;
                    resid_all[b * rows + q] = sq;
                  },
                  config.prefetch_distance);
              detail::batch_store(st, lo_all, hi_all, sm_all, tm_all, terms,
                                  key);
            });
          });
        } else {
          device.launch("cv_sweep_slice_kblock", cfg,
                        [&, base, rows, kb, first](const spmd::ThreadCtx& t) {
            const std::size_t r = t.global_idx();
            if (r >= rows) {
              return;
            }
            const std::size_t pos = base + r;
            Scalar s_m[SweepPolynomial::kMaxPower + 1] = {};
            Scalar t_m[SweepPolynomial::kMaxPower + 1] = {};
            std::size_t lo = 0;
            std::size_t hi = 0;
            if (first) {
              detail::window_sweep_seed<Scalar>(ys, pos, lo, hi,
                                                std::span<Scalar>(s_m, terms),
                                                std::span<Scalar>(t_m, terms));
            } else {
              lo = lo_all[r];
              hi = hi_all[r];
              for (std::size_t m = 0; m < terms; ++m) {
                s_m[m] = sm_all[r * terms + m];
                t_m[m] = tm_all[r * terms + m];
              }
            }
            detail::window_sweep_resume<Scalar>(
                xs, ys, hs, poly, pos, lo, hi, std::span<Scalar>(s_m, terms),
                std::span<Scalar>(t_m, terms), [&](std::size_t b, Scalar sq) {
                  resid_all[b * rows + r] = sq;
                });
            lo_all[r] = lo;
            hi_all[r] = hi;
            for (std::size_t m = 0; m < terms; ++m) {
              sm_all[r * terms + m] = s_m[m];
              tm_all[r * terms + m] = t_m[m];
            }
          });
        }

        spmd::reduce_sum_rows<Scalar>(device, resid_all,
                                      spmd::RowLayout::contiguous(kb, rows),
                                      std::span<Scalar>(totals), tpb,
                                      config.reduce_variant);
        for (std::size_t b = 0; b < kb; ++b) {
          combined[b0 + b] += static_cast<double>(totals[b]);
        }
      }
    }
  }

  // Per-row-sort path (the paper-faithful baseline): skipped entirely when
  // the window algorithm ran above.
  for (std::size_t d = 0; !window && d < slices.size(); ++d) {
    spmd::Device& device = *devices[d];
    const parallel::BlockedRange slice = slices[d];
    const std::size_t rows = slice.size();
    const std::size_t tpb = std::min(
        config.threads_per_block, device.properties().max_threads_per_block);

    // Device-side data: the full X/Y (distances need every observation),
    // the grid in constant memory, and slice-sized working matrices.
    spmd::ConstantBuffer<Scalar> c_grid =
        device.upload_constant<Scalar>(host_grid, "bandwidth-grid");
    spmd::DeviceBuffer<Scalar> d_x = device.alloc_global<Scalar>(n, "x");
    spmd::DeviceBuffer<Scalar> d_y = device.alloc_global<Scalar>(n, "y");
    device.copy_to_device(d_x, std::span<const Scalar>(host_x));
    device.copy_to_device(d_y, std::span<const Scalar>(host_y));

    spmd::DeviceBuffer<Scalar> d_dist;
    spmd::DeviceBuffer<Scalar> d_ymat;
    if (!streaming) {
      d_dist = device.alloc_global<Scalar>(rows * n, "dist-rows");
      d_ymat = device.alloc_global<Scalar>(rows * n, "y-rows");
    }
    spmd::DeviceBuffer<Scalar> d_sum_y =
        device.alloc_global<Scalar>(rows * k, "sum-y");
    spmd::DeviceBuffer<Scalar> d_sum_w =
        device.alloc_global<Scalar>(rows * k, "sum-w");
    spmd::DeviceBuffer<Scalar> d_resid =
        device.alloc_global<Scalar>(rows * k, "residuals");
    spmd::DeviceBuffer<Scalar> d_scores =
        device.alloc_global<Scalar>(k, "slice-scores");

    std::span<const Scalar> xs = d_x.span();
    std::span<const Scalar> ys = d_y.span();
    spmd::MemView<const Scalar> hs = c_grid.view();
    std::span<Scalar> dist_all = d_dist.span();
    std::span<Scalar> ymat_all = d_ymat.span();
    spmd::MemView<Scalar> sum_y_all = d_sum_y.view();
    spmd::MemView<Scalar> sum_w_all = d_sum_w.view();
    spmd::MemView<Scalar> resid_all = d_resid.view();

    // Main kernel over this device's slice; residuals are written
    // bandwidth-major within the slice (k groups of `rows`).
    const spmd::LaunchConfig cfg = spmd::LaunchConfig::cover(rows, tpb);
    const std::size_t base = slice.begin;
    device.launch("cv_sweep_slice", cfg,
                  [&, base, rows, n, k](const spmd::ThreadCtx& t) {
      const std::size_t r = t.global_idx();
      if (r >= rows) {
        return;
      }
      const std::size_t obs = base + r;
      std::vector<Scalar> local_dist;
      std::vector<Scalar> local_y;
      std::span<Scalar> dist;
      std::span<Scalar> yrow;
      if (streaming) {
        local_dist.resize(n);
        local_y.resize(n);
        dist = local_dist;
        yrow = local_y;
      } else {
        dist = dist_all.subspan(r * n, n);
        yrow = ymat_all.subspan(r * n, n);
      }
      detail::sweep_thread<Scalar>(
          xs, ys, hs, poly, obs, dist, yrow, sum_y_all.subview(r * k, k),
          sum_w_all.subview(r * k, k),
          [&](std::size_t b, Scalar sq) { resid_all[b * rows + r] = sq; });
    });

    // Per-bandwidth slice reductions on this device, in one launch.
    spmd::MemView<Scalar> scores = d_scores.view();
    spmd::reduce_sum_rows<Scalar>(device, resid_all,
                                  spmd::RowLayout::contiguous(k, rows), scores,
                                  tpb, config.reduce_variant);
    for (std::size_t b = 0; b < k; ++b) {
      combined[b] += static_cast<double>(scores[b]);
    }
  }

  // Final argmin on device 0, as the published program does with its single
  // GPU (host-combined partials are uploaded as the reduction input).
  std::vector<Scalar> combined_scalar(k);
  for (std::size_t b = 0; b < k; ++b) {
    combined_scalar[b] = static_cast<Scalar>(combined[b]);
  }
  spmd::Device& primary = *devices.front();
  spmd::DeviceBuffer<Scalar> d_combined =
      primary.alloc_global<Scalar>(k, "combined-scores");
  primary.copy_to_device(d_combined, std::span<const Scalar>(combined_scalar));
  const spmd::ArgminResult<Scalar> best = spmd::reduce_argmin<Scalar>(
      primary, spmd::MemView<const Scalar>(d_combined.view()),
      std::min(config.threads_per_block,
               primary.properties().max_threads_per_block));

  SelectionResult result;
  std::vector<double> cv(k);
  for (std::size_t b = 0; b < k; ++b) {
    cv[b] = combined[b] / static_cast<double>(n);
  }
  result.bandwidth = grid[best.index];
  result.cv_score = cv[best.index];
  result.grid = grid.values();
  result.scores = std::move(cv);
  result.evaluations = k;
  result.method = std::move(method_name);
  return result;
}

}  // namespace

SelectionResult MultiDeviceGridSelector::select(
    const data::Dataset& data, const BandwidthGrid& grid) const {
  data.validate();
  if (data.empty()) {
    throw std::invalid_argument("MultiDeviceGridSelector: empty dataset");
  }
  if (!is_sweepable(config_.kernel)) {
    throw std::invalid_argument(
        "MultiDeviceGridSelector: kernel '" +
        std::string(to_string(config_.kernel)) +
        "' is not supported by the device sweep");
  }
  return config_.precision == Precision::kFloat
             ? run_multi_device<float>(devices_, config_, data, grid, name())
             : run_multi_device<double>(devices_, config_, data, grid, name());
}

std::string MultiDeviceGridSelector::name() const {
  std::string n = "multi-device-grid(devices=" +
                  std::to_string(devices_.size()) + ",";
  n += to_string(config_.kernel);
  n += ",";
  n += to_string(config_.precision);
  if (config_.streaming) {
    n += ",streaming";
  }
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    n += ",window";
  }
  if (config_.stream.k_block != 0) {
    n += ",kblock=" + std::to_string(config_.stream.k_block);
  }
  if (config_.stream.n_block != 0) {
    n += ",nblock=" + std::to_string(config_.stream.n_block);
  }
  if (config_.stream.memory_budget_bytes != 0) {
    n += ",budget=" + std::to_string(config_.stream.memory_budget_bytes);
  }
  if (config_.algorithm == SweepAlgorithm::kWindow) {
    const std::size_t lanes = resolve_lane_width(config_.lane_width);
    if (lanes > 1) {
      n += ",lanes=" + std::to_string(lanes);
      if (config_.sigma != SigmaPolicy::kNone) {
        n += ",sigma=" + std::string(to_string(config_.sigma));
      }
      if (config_.prefetch_distance != 0) {
        n += ",prefetch=" + std::to_string(config_.prefetch_distance);
      }
    }
  }
  n += ")";
  return n;
}

}  // namespace kreg
