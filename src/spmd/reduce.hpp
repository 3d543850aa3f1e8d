#pragma once

#include <bit>
#include <cstddef>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "spmd/device.hpp"

namespace kreg::spmd {

/// Shared-memory tree-reduction schedules, following the progression in
/// Harris, "Optimizing Parallel Reduction in CUDA" (the code the paper's
/// reductions are modified from, ref [17]).
enum class ReduceVariant {
  /// Harris reduction #1: interleaved addressing — thread t is active when
  /// t % (2*stride) == 0. Simple but divergent on real warps.
  kInterleaved,
  /// Harris reduction #3: sequential addressing — active threads are the
  /// compact prefix t < stride. This is the schedule the paper describes
  /// ("each thread with t < T/2 adds to its sum the sum from thread
  /// t + T/2 … with T/4, T/8, and so on").
  kSequential,
};

std::string_view to_string(ReduceVariant variant) noexcept;

/// Result of an argmin reduction: the minimum value and its index in the
/// input array. Ties resolve to the smallest index, making the reduction
/// deterministic.
template <class T>
struct ArgminResult {
  T value = std::numeric_limits<T>::infinity();
  std::size_t index = 0;
};

/// Where row r's element j of a batched sum's input lives:
/// input[r * row_pitch + j * stride].
struct RowLayout {
  std::size_t rows = 1;
  std::size_t length = 0;  ///< elements per row
  std::size_t row_pitch = 0;
  std::size_t stride = 1;

  /// `rows` rows of `length` contiguous elements, back to back (the
  /// bandwidth-major residual matrix: row b = bandwidth b).
  static constexpr RowLayout contiguous(std::size_t rows,
                                        std::size_t length) noexcept {
    return {rows, length, length, 1};
  }
  /// `length` records of `rows` interleaved values, row r being field r of
  /// every record (the observation-major residual matrix: stride = rows).
  static constexpr RowLayout interleaved(std::size_t rows,
                                         std::size_t length) noexcept {
    return {rows, length, 1, rows};
  }
};

namespace detail {

/// Rounds the requested block size down to a power of two within the
/// device's limit (tree reductions halve the active set each phase).
inline std::size_t reduction_block_dim(const Device& device,
                                       std::size_t requested) {
  std::size_t dim = std::min(requested,
                             device.properties().max_threads_per_block);
  if (dim == 0) {
    dim = 1;
  }
  return std::size_t{1} << (std::bit_width(dim) - 1);
}

/// Phase 2 of every single-block sum: the configured Harris tree over
/// shared[0, block_dim), leaving the total in shared[0]. Each
/// for_each_thread return is a barrier.
template <class T>
void harris_tree(BlockCtx& ctx, SharedSpan<T> shared, std::size_t block_dim,
                 ReduceVariant variant) {
  if (variant == ReduceVariant::kSequential) {
    for (std::size_t stride = block_dim / 2; stride > 0; stride /= 2) {
      ctx.for_each_thread([&](std::size_t t) {
        if (t < stride) {
          shared[t] += shared[t + stride];
        }
      });
    }
  } else {
    for (std::size_t stride = 1; stride < block_dim; stride *= 2) {
      ctx.for_each_thread([&](std::size_t t) {
        if (t % (2 * stride) == 0 && t + stride < block_dim) {
          shared[t] += shared[t + stride];
        }
      });
    }
  }
}

/// One cooperative launch of `rows` blocks of `block_dim` threads, block r
/// running body(ctx, r). Rows beyond the device's grid limit go to further
/// launches of at most max_grid_blocks blocks each.
template <class Body>
void launch_rows(Device& device, const char* name, std::size_t rows,
                 std::size_t block_dim, std::size_t shared_bytes,
                 Body&& body) {
  const std::size_t max_blocks = device.properties().max_grid_blocks;
  for (std::size_t r0 = 0; r0 < rows; r0 += max_blocks) {
    const std::size_t count = std::min(max_blocks, rows - r0);
    device.launch_cooperative(
        name, LaunchConfig{count, block_dim}, shared_bytes,
        [&, r0](BlockCtx& ctx) { body(ctx, r0 + ctx.block_idx()); });
  }
}

/// Generic body shared by the span and MemView entry points: `View` only
/// needs an operator[] whose result converts to T — raw spans run
/// unchecked, MemViews run under the sanitizer shadows. `Out` takes the
/// row totals (a host span or a device MemView).
template <class T, class View, class Out>
void reduce_sum_rows_impl(Device& device, const char* name, View input,
                          RowLayout layout, Out out,
                          std::size_t threads_per_block,
                          ReduceVariant variant) {
  if (layout.length == 0) {
    for (std::size_t r = 0; r < layout.rows; ++r) {
      out[r] = T{0};
    }
    return;
  }
  const std::size_t block_dim =
      reduction_block_dim(device, threads_per_block);
  launch_rows(device, name, layout.rows, block_dim, block_dim * sizeof(T),
              [&](BlockCtx& ctx, std::size_t r) {
    auto shared = ctx.template shared_as<T>(block_dim);
    const std::size_t first = r * layout.row_pitch;
    // Phase 1: strided load-and-add. Thread t owns j ≡ t (mod T).
    ctx.for_each_thread([&](std::size_t t) {
      T acc{};
      for (std::size_t j = t; j < layout.length; j += block_dim) {
        acc += input[first + j * layout.stride];
      }
      shared[t] = acc;
    });
    harris_tree(ctx, shared, block_dim, variant);
    out[r] = static_cast<T>(shared[0]);
  });
}

template <class T, class View>
T reduce_sum_impl(Device& device, View input, std::size_t threads_per_block,
                  ReduceVariant variant) {
  T result{};
  reduce_sum_rows_impl<T>(device, "reduce_sum", input,
                          RowLayout::contiguous(1, input.size()),
                          std::span<T>(&result, 1), threads_per_block,
                          variant);
  return result;
}

template <class T, class View>
ArgminResult<T> reduce_argmin_impl(Device& device, View input,
                                   std::size_t threads_per_block) {
  ArgminResult<T> result;
  if (input.empty()) {
    return result;
  }
  const std::size_t block_dim =
      reduction_block_dim(device, threads_per_block);
  // 2T shared elements: T values following T payload indices.
  const std::size_t shared_bytes =
      block_dim * (sizeof(T) + sizeof(std::size_t));
  device.launch_cooperative(
      "reduce_argmin", LaunchConfig{1, block_dim}, shared_bytes,
      [&](BlockCtx& ctx) {
        // Payload indices first: sizeof(size_t) >= alignof(T) for the
        // float/double instantiations, so the value array that follows is
        // correctly aligned for any power-of-two block size.
        auto idxs = ctx.template shared_as<std::size_t>(block_dim);
        auto vals = ctx.template shared_as<T>(
            block_dim, block_dim * sizeof(std::size_t));

        ctx.for_each_thread([&](std::size_t t) {
          T best = std::numeric_limits<T>::infinity();
          std::size_t best_idx = input.size();  // sentinel: "no element"
          for (std::size_t j = t; j < input.size(); j += block_dim) {
            if (input[j] < best) {
              best = input[j];
              best_idx = j;
            }
          }
          vals[t] = best;
          idxs[t] = best_idx;
        });
        for (std::size_t stride = block_dim / 2; stride > 0; stride /= 2) {
          ctx.for_each_thread([&](std::size_t t) {
            if (t < stride) {
              const bool take_other =
                  vals[t + stride] < vals[t] ||
                  (vals[t + stride] == vals[t] && idxs[t + stride] < idxs[t]);
              if (take_other) {
                vals[t] = vals[t + stride];
                idxs[t] = idxs[t + stride];
              }
            }
          });
        }
        result.value = vals[0];
        result.index = idxs[0] < input.size() ? idxs[0] : std::size_t{0};
      });
  return result;
}

template <class T, class View>
T reduce_sum_grid_impl(Device& device, View input,
                       std::size_t threads_per_block) {
  if (input.empty()) {
    return T{0};
  }
  const std::size_t block_dim =
      reduction_block_dim(device, threads_per_block);
  const std::size_t chunk = 2 * block_dim;  // first add during global load
  std::size_t blocks = (input.size() + chunk - 1) / chunk;
  blocks = std::min(blocks, device.properties().max_grid_blocks);

  DeviceBuffer<T> partials =
      device.template alloc_global<T>(blocks, "reduce-partials");
  MemView<T> partial_view = partials.view();
  device.launch_cooperative(
      "reduce_sum_grid", LaunchConfig{blocks, block_dim},
      block_dim * sizeof(T), [&](BlockCtx& ctx) {
        auto shared = ctx.template shared_as<T>(block_dim);
        const std::size_t b = ctx.block_idx();
        ctx.for_each_thread([&](std::size_t t) {
          // Grid-stride over the whole array so any block count covers it;
          // "first add during load" folds two elements per step.
          T acc{};
          const std::size_t stride = blocks * chunk;
          for (std::size_t base = b * chunk; base < input.size();
               base += stride) {
            const std::size_t j0 = base + t;
            const std::size_t j1 = base + t + block_dim;
            if (j0 < input.size()) {
              acc += input[j0];
            }
            if (j1 < input.size() && j1 < base + chunk) {
              acc += input[j1];
            }
          }
          shared[t] = acc;
        });
        harris_tree(ctx, shared, block_dim, ReduceVariant::kSequential);
        partial_view[b] = shared[0];
      });
  return reduce_sum_impl<T>(device, partial_view, threads_per_block,
                            ReduceVariant::kSequential);
}

}  // namespace detail

/// Single-block device sum, exactly the paper's §IV-B schedule: thread t
/// first accumulates the elements j with j ≡ t (mod T) into shared[t], then
/// a tree reduction leaves the total in shared[0].
///
/// `input` is a device-resident span (a DeviceBuffer's span) or, on a
/// sanitizer-enabled device, a checked MemView (DeviceBuffer::view()). The
/// requested block size is rounded down to a power of two and clamped to
/// the device limit.
template <class T>
T reduce_sum(Device& device, std::span<const T> input,
             std::size_t threads_per_block = 512,
             ReduceVariant variant = ReduceVariant::kSequential) {
  return detail::reduce_sum_impl<T>(device, input, threads_per_block,
                                    variant);
}
template <class T>
T reduce_sum(Device& device, MemView<const T> input,
             std::size_t threads_per_block = 512,
             ReduceVariant variant = ReduceVariant::kSequential) {
  return detail::reduce_sum_impl<T>(device, input, threads_per_block,
                                    variant);
}

/// `layout.rows` independent sums in one cooperative launch: block r runs
/// exactly reduce_sum's schedule (phase-1 strided fold, then the configured
/// Harris tree) over row r and writes its total to out[r], so every total
/// is bitwise the one a separate reduce_sum over that row returns —
/// reduce_sum is the rows = 1 case. `out` is a host span or a device
/// MemView of at least `layout.rows` elements.
template <class T, class Out>
void reduce_sum_rows(Device& device, MemView<const T> input,
                     RowLayout layout, Out out,
                     std::size_t threads_per_block = 512,
                     ReduceVariant variant = ReduceVariant::kSequential) {
  detail::reduce_sum_rows_impl<T>(device, "reduce_sum_rows", input, layout,
                                  out, threads_per_block, variant);
}

/// Single-block device argmin — the paper's bandwidth-selection reduction.
///
/// The paper stores 2T elements in shared memory: T cross-validation scores
/// and T corresponding bandwidths, updated in tandem. Following the paper's
/// own footnote 2 ("we can simply save the integer-value of the thread
/// index… and access that element of the bandwidth array… after the
/// procedure"), the payload here is the input *index*, which the caller
/// maps back to a bandwidth. Ties resolve to the smallest index.
template <class T>
ArgminResult<T> reduce_argmin(Device& device, std::span<const T> input,
                              std::size_t threads_per_block = 512) {
  return detail::reduce_argmin_impl<T>(device, input, threads_per_block);
}
template <class T>
ArgminResult<T> reduce_argmin(Device& device, MemView<const T> input,
                              std::size_t threads_per_block = 512) {
  return detail::reduce_argmin_impl<T>(device, input, threads_per_block);
}

/// Single-block device minimum (same schedule as reduce_sum with `min`
/// replacing `+`).
template <class T>
T reduce_min(Device& device, std::span<const T> input,
             std::size_t threads_per_block = 512) {
  ArgminResult<T> r = reduce_argmin(device, input, threads_per_block);
  return r.value;
}

/// Two-level grid-wide sum for inputs too large for one block to chew
/// through efficiently: a grid of blocks each reduces a contiguous chunk to
/// a partial (in global memory), then a single-block pass reduces the
/// partials. Mirrors the multi-launch structure of Harris's full reduction.
template <class T>
T reduce_sum_grid(Device& device, std::span<const T> input,
                  std::size_t threads_per_block = 512) {
  return detail::reduce_sum_grid_impl<T>(device, input, threads_per_block);
}
template <class T>
T reduce_sum_grid(Device& device, MemView<const T> input,
                  std::size_t threads_per_block = 512) {
  return detail::reduce_sum_grid_impl<T>(device, input, threads_per_block);
}

}  // namespace kreg::spmd
