#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "spmd/buffer.hpp"
#include "spmd/device_properties.hpp"
#include "spmd/errors.hpp"
#include "spmd/sanitizer/report.hpp"
#include "spmd/sanitizer/shadow.hpp"
#include "spmd/verify/interceptor.hpp"

namespace kreg::spmd {

/// 1-D launch configuration: `grid_blocks` blocks of `threads_per_block`
/// threads, exactly CUDA's <<<grid, block>>> for the 1-D case the paper
/// uses.
struct LaunchConfig {
  std::size_t grid_blocks = 1;
  std::size_t threads_per_block = 1;

  std::size_t total_threads() const noexcept {
    return grid_blocks * threads_per_block;
  }

  /// The paper's configuration: total threads == number of observations,
  /// 512 threads per block ("the fastest performance was found with threads
  /// per block set to 512").
  static LaunchConfig cover(std::size_t total, std::size_t block = 512) {
    LaunchConfig cfg;
    cfg.threads_per_block = block;
    cfg.grid_blocks = (total + block - 1) / block;
    if (cfg.grid_blocks == 0) {
      cfg.grid_blocks = 1;
    }
    return cfg;
  }
};

/// Per-thread identity inside an independent kernel (CUDA's
/// blockIdx/threadIdx/blockDim/gridDim for the 1-D case).
struct ThreadCtx {
  std::size_t block_idx = 0;
  std::size_t thread_idx = 0;
  std::size_t block_dim = 1;
  std::size_t grid_dim = 1;

  /// blockIdx.x * blockDim.x + threadIdx.x
  std::size_t global_idx() const noexcept {
    return block_idx * block_dim + thread_idx;
  }
  std::size_t total_threads() const noexcept { return grid_dim * block_dim; }
};

/// Per-dispatch identity for lane-batched kernels (Device::launch_lanes):
/// one dispatch covers `lanes` consecutive threads of a block — a simulated
/// warp slice of compile-time-friendly width — whose bodies the kernel is
/// expected to step in lockstep (SIMT). `lanes` is the full lane width for
/// every dispatch except possibly the block's ragged tail.
struct LaneCtx {
  std::size_t block_idx = 0;
  std::size_t base = 0;   ///< first thread_idx covered by this dispatch
  std::size_t lanes = 1;  ///< threads covered: [base, base + lanes)
  std::size_t block_dim = 1;
  std::size_t grid_dim = 1;

  /// global_idx() of the dispatch's first lane; lane l is global_base() + l.
  std::size_t global_base() const noexcept {
    return block_idx * block_dim + base;
  }
  std::size_t total_threads() const noexcept { return grid_dim * block_dim; }
};

/// Per-block context for cooperative (shared-memory) kernels.
///
/// CUDA kernels that use __syncthreads() are bulk-synchronous: computation
/// alternates "all threads run" phases with barriers. The simulator makes
/// those phases explicit: each `for_each_thread(f)` call runs f(tid) for
/// every tid in the block, and *returning from for_each_thread is the
/// barrier*. A CUDA kernel of the form
///
///     stage1();  __syncthreads();  stage2();
///
/// is expressed as
///
///     ctx.for_each_thread(stage1);
///     ctx.for_each_thread(stage2);
///
/// Within a phase the simulator may run threads in any order (the current
/// implementation runs them sequentially on the block's worker, which is a
/// legal schedule), so — exactly as on real hardware — a phase must not
/// read locations another thread of the same phase writes. On a
/// sanitizer-enabled device a per-block SharedShadow records every access
/// made through shared_as() views and reports exactly those intra-phase
/// RAW/WAR/WAW hazards.
class BlockCtx {
 public:
  BlockCtx(std::size_t block_idx, std::size_t block_dim, std::size_t grid_dim,
           std::span<std::byte> shared,
           detail::SharedShadow* shadow = nullptr) noexcept
      : block_idx_(block_idx),
        block_dim_(block_dim),
        grid_dim_(grid_dim),
        shared_(shared),
        shadow_(shadow) {}

  std::size_t block_idx() const noexcept { return block_idx_; }
  std::size_t block_dim() const noexcept { return block_dim_; }
  std::size_t grid_dim() const noexcept { return grid_dim_; }

  /// The block's shared memory reinterpreted as an array of T starting at
  /// `byte_offset` (for carving one shared arena into typed sections, e.g.
  /// argmin's index + value arrays). Throws LaunchConfigError when the
  /// request exceeds the bytes requested at launch or breaks T's alignment
  /// — on a sanitizer-enabled device a memcheck report is emitted first.
  template <class T>
  SharedSpan<T> shared_as(std::size_t count, std::size_t byte_offset = 0) {
    const std::size_t need = byte_offset + count * sizeof(T);
    if (need > shared_.size()) {
      if (shadow_ != nullptr) {
        shadow_->report_oob(
            byte_offset, "shared_as request of " + std::to_string(need) +
                             " bytes exceeds the " +
                             std::to_string(shared_.size()) +
                             " shared bytes requested at launch");
      }
      throw LaunchConfigError(
          "shared_as: request of " + std::to_string(need) +
          " bytes exceeds the " + std::to_string(shared_.size()) +
          " shared bytes requested at launch");
    }
    if (byte_offset % alignof(T) != 0) {
      throw LaunchConfigError("shared_as: byte offset " +
                              std::to_string(byte_offset) +
                              " breaks the requested type's alignment");
    }
    return SharedSpan<T>(reinterpret_cast<T*>(shared_.data() + byte_offset),
                         count, shadow_, byte_offset);
  }

  std::size_t shared_bytes() const noexcept { return shared_.size(); }

  /// One barrier-delimited phase: runs f(tid) for every tid in [0,
  /// block_dim). Returning = __syncthreads().
  template <class F>
  void for_each_thread(F&& f) {
    if (shadow_ != nullptr) {
      shadow_->begin_phase();
      for (std::size_t tid = 0; tid < block_dim_; ++tid) {
        shadow_->set_tid(tid);
        f(tid);
      }
      shadow_->end_phase();
      return;
    }
    for (std::size_t tid = 0; tid < block_dim_; ++tid) {
      f(tid);
    }
  }

 private:
  std::size_t block_idx_;
  std::size_t block_dim_;
  std::size_t grid_dim_;
  std::span<std::byte> shared_;
  detail::SharedShadow* shadow_;
};

/// Cumulative execution counters, for tests and the bench harness.
struct LaunchStats {
  std::size_t kernel_launches = 0;
  std::size_t cooperative_launches = 0;
  std::size_t blocks_executed = 0;
  std::size_t threads_executed = 0;
  std::size_t lane_dispatches = 0;  ///< LaneCtx invocations by launch_lanes
};

/// A simulated SPMD device.
///
/// Owns a global-memory ledger (allocation beyond
/// DeviceProperties::global_memory_bytes throws DeviceAllocError — the
/// paper's n > 20,000 failure mode), a constant-memory ledger (capped at
/// the 8 KB constant-cache working set, the paper's k ≤ 2,048 bandwidth
/// limit), and a kernel launcher that executes blocks concurrently on a
/// host thread pool. Launches are synchronous: they return after every
/// block has finished, like a kernel launch followed by
/// cudaDeviceSynchronize().
///
/// The sanitizer layer (src/spmd/sanitizer/) hooks in here: when enabled —
/// via enable_sanitizer(), the CheckedDevice subclass, the
/// KREG_SPMD_SANITIZE environment variable, or the KREG_SPMD_SANITIZE
/// CMake option — every launch gets per-block racecheck shadows, every
/// allocation an initcheck valid-bit shadow, and checked views report
/// memcheck violations, all through a pluggable SanitizerSink.
class Device {
 public:
  /// Creates a device with the given capabilities, executing on `pool`
  /// (nullptr = the process-global pool). Honors KREG_SPMD_SANITIZE in the
  /// environment: unset/"0"/"off" leaves the sanitizer disabled (unless the
  /// KREG_SPMD_SANITIZE CMake option compiled it default-on), "count"/"log"
  /// installs a CountingSink on stderr, anything else a ThrowSink.
  explicit Device(DeviceProperties props = DeviceProperties::tesla_s10(),
                  parallel::ThreadPool* pool = nullptr);

  /// Runs a non-throwing leak check over still-live allocations (the
  /// compute-sanitizer "leaked N bytes" summary at context teardown).
  ~Device();

  const DeviceProperties& properties() const noexcept { return props_; }
  const LaunchStats& stats() const noexcept { return stats_; }

  /// ---- Sanitizer ---------------------------------------------------------

  /// Installs `sink` and turns on full instrumentation for every later
  /// allocation and launch.
  void enable_sanitizer(std::shared_ptr<SanitizerSink> sink);
  bool sanitizer_enabled() const noexcept { return sanitizer_ != nullptr; }
  /// The live sanitizer state (counters, registry), or nullptr.
  detail::SanitizerState* sanitizer() noexcept { return sanitizer_.get(); }
  /// Reports every still-live allocation as a leak (throwing sinks throw on
  /// the first) and returns how many are live. No-op without a sanitizer.
  std::size_t check_leaks();

  /// ---- Verifier ----------------------------------------------------------

  /// Installs a launch interceptor (the static verifier's entry point):
  /// every later launch is offered to it first, and skipped here when the
  /// interceptor executed it itself. Requires the sanitizer — the verifier
  /// records through its shadows — and throws LaunchConfigError otherwise.
  void enable_interceptor(std::shared_ptr<verify::LaunchInterceptor> hook);
  bool interceptor_enabled() const noexcept { return interceptor_ != nullptr; }

  /// ---- Global memory ----------------------------------------------------

  /// Allocates `count` zero-initialized elements of global memory. Throws
  /// DeviceAllocError when the request exceeds the remaining capacity.
  /// `label` names the allocation in sanitizer reports.
  template <class T>
  DeviceBuffer<T> alloc_global(std::size_t count,
                               std::string_view label = "global") {
    charge(global_, count * sizeof(T));
    DeviceBuffer<T> buf(global_, count);
    if (sanitizer_) {
      buf.shadow_ =
          sanitizer_->register_alloc(std::string(label), sizeof(T), count);
      buf.state_ = sanitizer_;
    }
    return buf;
  }

  /// Bytes of global memory currently allocated / ever allocated at peak.
  std::size_t global_allocated() const noexcept {
    return global_->allocated_bytes;
  }
  std::size_t global_peak() const noexcept { return global_->peak_bytes; }
  std::size_t global_available() const noexcept {
    return global_->available();
  }

  /// ---- Constant memory --------------------------------------------------

  /// Uploads `values` into constant memory. Throws ConstantCapacityError
  /// when the data exceeds the constant-cache working set.
  template <class T>
  ConstantBuffer<T> upload_constant(std::span<const T> values,
                                    std::string_view label = "constant") {
    charge_constant(values.size() * sizeof(T));
    ConstantBuffer<T> buf(constant_, values.size());
    std::memcpy(buf.mutable_span().data(), values.data(),
                values.size() * sizeof(T));
    if (sanitizer_) {
      buf.shadow_ = sanitizer_->register_alloc(std::string(label), sizeof(T),
                                               values.size());
      buf.shadow_->mark_all_valid();  // fully written at upload
    }
    return buf;
  }

  /// ---- Transfers ----------------------------------------------------------

  /// Host → device copy; sizes must match. Marks the destination fully
  /// initialized in the initcheck shadow.
  template <class T>
  void copy_to_device(DeviceBuffer<T>& dst, std::span<const T> src) {
    dst.ensure_not_moved_from();
    if (dst.size() != src.size()) {
      throw LaunchConfigError("copy_to_device: size mismatch");
    }
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(T));
    if (dst.shadow_) {
      dst.shadow_->mark_all_valid();
    }
  }

  /// Device → host copy; sizes must match. Reading back an allocation the
  /// device never fully wrote is an initcheck finding.
  template <class T>
  void copy_to_host(std::span<T> dst, const DeviceBuffer<T>& src) {
    src.ensure_not_moved_from();
    if (dst.size() != src.size()) {
      throw LaunchConfigError("copy_to_host: size mismatch");
    }
    if (src.shadow_) {
      if (auto bad = src.shadow_->first_invalid()) {
        src.shadow_->check_read(*bad);
      }
    }
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(T));
  }

  /// ---- Kernel launches ----------------------------------------------------

  /// Launches an independent kernel: `kernel(ThreadCtx)` runs once per
  /// thread with no intra-block communication (the paper's main kernel
  /// "does not use shared memory or coordination across threads"). Blocks
  /// execute concurrently on the pool, each block's threads in ascending
  /// order — split into concurrent contiguous ranges when the grid has too
  /// few blocks to fill the pool (see run_blocks). Synchronous. `name`
  /// labels sanitizer reports.
  template <class F>
  void launch(const char* name, LaunchConfig cfg, F&& kernel) {
    validate(cfg, 0);
    ++stats_.kernel_launches;
    stats_.blocks_executed += cfg.grid_blocks;
    stats_.threads_executed += cfg.total_threads();
    detail::KernelScope scope(sanitizer_.get(), name);
    if (interceptor_ != nullptr) {
      const std::function<void(const ThreadCtx&)> thread_fn =
          [&kernel](const ThreadCtx& t) { kernel(t); };
      if (interceptor_->on_launch(name, cfg, thread_fn)) {
        return;
      }
    }
    run_blocks(cfg.grid_blocks, cfg.threads_per_block,
               [&](std::size_t block, std::size_t begin, std::size_t end) {
      ThreadCtx ctx;
      ctx.block_idx = block;
      ctx.block_dim = cfg.threads_per_block;
      ctx.grid_dim = cfg.grid_blocks;
      for (std::size_t tid = begin; tid < end; ++tid) {
        ctx.thread_idx = tid;
        kernel(ctx);
      }
    });
  }
  template <class F>
  void launch(LaunchConfig cfg, F&& kernel) {
    launch("<kernel>", cfg, std::forward<F>(kernel));
  }

  /// Launches a lane-batched independent kernel: `kernel(LaneCtx)` runs
  /// once per group of `lane_width` consecutive threads — the batch
  /// interpretation of SIMT execution, where the kernel body itself steps
  /// its lanes in lockstep instead of the device stepping one thread at a
  /// time. A block of B threads yields ⌈B / lane_width⌉ dispatches, the
  /// last one ragged when B mod lane_width ≠ 0. Blocks execute
  /// concurrently on the pool, each block's dispatches in ascending base
  /// order — split into concurrent contiguous ranges when the grid has too
  /// few blocks to fill the pool (see run_blocks). Synchronous.
  template <class F>
  void launch_lanes(const char* name, LaunchConfig cfg,
                    std::size_t lane_width, F&& kernel) {
    validate(cfg, 0);
    if (lane_width == 0) {
      throw LaunchConfigError("launch_lanes: lane_width must be > 0");
    }
    ++stats_.kernel_launches;
    stats_.blocks_executed += cfg.grid_blocks;
    stats_.threads_executed += cfg.total_threads();
    const std::size_t per_block =
        (cfg.threads_per_block + lane_width - 1) / lane_width;
    stats_.lane_dispatches += per_block * cfg.grid_blocks;
    detail::KernelScope scope(sanitizer_.get(), name);
    if (interceptor_ != nullptr) {
      const std::function<void(const LaneCtx&)> dispatch_fn =
          [&kernel](const LaneCtx& d) { kernel(d); };
      if (interceptor_->on_launch_lanes(name, cfg, lane_width, dispatch_fn)) {
        return;
      }
    }
    run_blocks(cfg.grid_blocks, per_block,
               [&](std::size_t block, std::size_t begin, std::size_t end) {
      LaneCtx ctx;
      ctx.block_idx = block;
      ctx.block_dim = cfg.threads_per_block;
      ctx.grid_dim = cfg.grid_blocks;
      for (std::size_t d = begin; d < end; ++d) {
        ctx.base = d * lane_width;
        ctx.lanes = std::min(lane_width, cfg.threads_per_block - ctx.base);
        kernel(ctx);
      }
    });
  }
  template <class F>
  void launch_lanes(LaunchConfig cfg, std::size_t lane_width, F&& kernel) {
    launch_lanes("<kernel>", cfg, lane_width, std::forward<F>(kernel));
  }

  /// Launches a cooperative kernel: `body(BlockCtx&)` runs once per block
  /// with `shared_bytes` of shared memory; intra-block barriers are the
  /// phase boundaries of BlockCtx::for_each_thread. Synchronous. On a
  /// sanitizer-enabled device each block gets a byte-granular racecheck
  /// shadow of its shared memory. `name` labels sanitizer reports.
  template <class F>
  void launch_cooperative(const char* name, LaunchConfig cfg,
                          std::size_t shared_bytes, F&& body) {
    validate(cfg, shared_bytes);
    ++stats_.cooperative_launches;
    stats_.blocks_executed += cfg.grid_blocks;
    stats_.threads_executed += cfg.total_threads();
    detail::KernelScope scope(sanitizer_.get(), name);
    if (interceptor_ != nullptr) {
      const std::function<void(BlockCtx&)> body_fn = [&body](BlockCtx& ctx) {
        body(ctx);
      };
      if (interceptor_->on_launch_cooperative(name, cfg, shared_bytes,
                                              body_fn)) {
        return;
      }
    }
    detail::SanitizerState* state = sanitizer_.get();
    parallel::parallel_for(
        cfg.grid_blocks,
        [&](std::size_t block) {
          std::vector<std::byte> shared(shared_bytes);
          if (state != nullptr) {
            detail::SharedShadow shadow(state, name, block, shared_bytes);
            BlockCtx ctx(block, cfg.threads_per_block, cfg.grid_blocks,
                         std::span<std::byte>(shared), &shadow);
            body(ctx);
          } else {
            BlockCtx ctx(block, cfg.threads_per_block, cfg.grid_blocks,
                         std::span<std::byte>(shared));
            body(ctx);
          }
        },
        pool_);
  }
  template <class F>
  void launch_cooperative(LaunchConfig cfg, std::size_t shared_bytes,
                          F&& body) {
    launch_cooperative("<kernel>", cfg, shared_bytes, std::forward<F>(body));
  }

 private:
  void charge(const std::shared_ptr<detail::MemoryLedger>& ledger,
              std::size_t bytes);
  void charge_constant(std::size_t bytes);
  void validate(const LaunchConfig& cfg, std::size_t shared_bytes) const;

  /// Work items per pool worker a barrier-free launch aims for.
  static constexpr std::size_t kItemsPerWorker = 4;

  /// Runs a barrier-free launch of `blocks` blocks of `per_block` items
  /// (threads or lane dispatches) on the pool: `body(block, begin, end)`
  /// runs items [begin, end) of `block` in ascending order. The launch
  /// becomes about kItemsPerWorker work items per worker, which the
  /// workers claim dynamically: with fewer blocks than that each block
  /// splits into contiguous ranges — the paper's 512-thread blocks leave a
  /// 1,000-observation launch 2 blocks, which split 8 ways on a 4-worker
  /// pool — and with more, one work item is a run of whole blocks. Which
  /// worker runs an item changes nothing a kernel may observe: items share
  /// no state, and the launch's shape, ctx values and LaunchStats stay the
  /// paper's.
  template <class Body>
  void run_blocks(std::size_t blocks, std::size_t per_block, Body&& body) {
    parallel::ThreadPool* pool =
        pool_ != nullptr ? pool_ : &parallel::ThreadPool::global();
    const std::size_t items = kItemsPerWorker * pool->size();
    const std::size_t ranges = std::min(per_block, (items - 1) / blocks + 1);
    const std::size_t chunk = std::max<std::size_t>(1, blocks * ranges / items);
    parallel::parallel_for(
        blocks * ranges,
        [&](std::size_t i) {
          const std::size_t block = i / ranges;
          const std::size_t r = i % ranges;
          body(block, r * per_block / ranges, (r + 1) * per_block / ranges);
        },
        pool, parallel::Schedule::kDynamic, chunk);
  }

  DeviceProperties props_;
  parallel::ThreadPool* pool_;
  std::shared_ptr<detail::MemoryLedger> global_;
  std::shared_ptr<detail::MemoryLedger> constant_;
  std::shared_ptr<detail::SanitizerState> sanitizer_;
  std::shared_ptr<verify::LaunchInterceptor> interceptor_;
  LaunchStats stats_;
};

}  // namespace kreg::spmd
