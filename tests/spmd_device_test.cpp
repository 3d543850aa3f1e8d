// Tests for the SPMD device simulator: memory ledger accounting, the
// paper's capacity failure modes (global OOM, constant-cache cap), launch
// validation, and kernel execution semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "spmd/buffer.hpp"
#include "spmd/device.hpp"
#include "spmd/device_properties.hpp"
#include "spmd/errors.hpp"

namespace {

using kreg::spmd::BlockCtx;
using kreg::spmd::ConstantCapacityError;
using kreg::spmd::Device;
using kreg::spmd::DeviceAllocError;
using kreg::spmd::DeviceBuffer;
using kreg::spmd::DeviceProperties;
using kreg::spmd::LaunchConfig;
using kreg::spmd::LaunchConfigError;
using kreg::spmd::LaneCtx;
using kreg::spmd::ThreadCtx;

TEST(DeviceProperties, TeslaS10MatchesPaperHardware) {
  const auto p = DeviceProperties::tesla_s10();
  EXPECT_EQ(p.total_cores(), 240u);  // "240 streaming cores"
  EXPECT_EQ(p.max_threads_per_block, 512u);
  EXPECT_EQ(p.constant_cache_bytes, 8u * 1024u);  // 8 KB -> k <= 2048 floats
  EXPECT_EQ(p.global_memory_bytes, 4ULL * 1024 * 1024 * 1024);
  EXPECT_NO_THROW(p.validate());
}

TEST(DeviceProperties, ValidateRejectsZeroLimits) {
  auto p = DeviceProperties::tesla_s10();
  p.max_threads_per_block = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(DeviceMemory, LedgerTracksAllocationAndRelease) {
  Device dev(DeviceProperties::tiny(1 << 20));
  EXPECT_EQ(dev.global_allocated(), 0u);
  {
    auto buf = dev.alloc_global<float>(1000);
    EXPECT_EQ(dev.global_allocated(), 4000u);
    EXPECT_EQ(dev.global_peak(), 4000u);
    auto buf2 = dev.alloc_global<double>(100);
    EXPECT_EQ(dev.global_allocated(), 4800u);
  }
  EXPECT_EQ(dev.global_allocated(), 0u);  // RAII returned the bytes
  EXPECT_EQ(dev.global_peak(), 4800u);    // peak persists
}

TEST(DeviceMemory, OverAllocationThrowsDeviceAllocError) {
  Device dev(DeviceProperties::tiny(1024));
  auto small = dev.alloc_global<float>(128);  // 512 bytes
  try {
    auto big = dev.alloc_global<float>(256);  // 1024 more: over capacity
    FAIL() << "expected DeviceAllocError";
  } catch (const DeviceAllocError& e) {
    EXPECT_EQ(e.requested_bytes, 1024u);
    EXPECT_EQ(e.available_bytes, 512u);
  }
}

TEST(DeviceMemory, PaperScaleOomReproduces) {
  // The paper's failure: two n×n float matrices exceed 4 GB for n > 23,170
  // (and with the n×k matrices on top, for n just above 20,000). Check the
  // arithmetic against the ledger without touching real gigabytes by
  // scaling everything down 1024×: capacity 4 MB, n = 1,024 rows?
  // 2·n²·4 bytes = 8 MB > 4 MB -> must throw on the second matrix.
  Device dev(DeviceProperties::tiny(4 << 20));
  const std::size_t n = 1024;
  auto first = dev.alloc_global<float>(n * n);  // 4 MB exactly fills it
  EXPECT_THROW(dev.alloc_global<float>(n * n), DeviceAllocError);
}

TEST(DeviceMemory, FreedBufferCanBeReallocated) {
  Device dev(DeviceProperties::tiny(4096));
  {
    auto a = dev.alloc_global<float>(1024);  // fills capacity
  }
  EXPECT_NO_THROW(dev.alloc_global<float>(1024));
}

TEST(DeviceMemory, MoveTransfersOwnershipWithoutDoubleFree) {
  Device dev(DeviceProperties::tiny(4096));
  auto a = dev.alloc_global<float>(256);
  const std::size_t after_alloc = dev.global_allocated();
  DeviceBuffer<float> b = std::move(a);
  EXPECT_EQ(dev.global_allocated(), after_alloc);  // unchanged by the move
  b = DeviceBuffer<float>();                       // releases
  EXPECT_EQ(dev.global_allocated(), 0u);
}

TEST(DeviceMemory, ZeroInitialized) {
  Device dev(DeviceProperties::tiny(4096));
  auto buf = dev.alloc_global<float>(64);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], 0.0f);
  }
}

TEST(ConstantMemory, CapEnforcesPaperBandwidthLimit) {
  Device dev;  // Tesla S10: 8 KB constant cache
  std::vector<float> okay(2048, 1.0f);  // exactly 8 KB
  EXPECT_NO_THROW(dev.upload_constant<float>(okay));
}

TEST(ConstantMemory, ExceedingCapThrows) {
  Device dev;
  std::vector<float> too_many(2049, 1.0f);
  try {
    auto buf = dev.upload_constant<float>(too_many);
    FAIL() << "expected ConstantCapacityError";
  } catch (const ConstantCapacityError& e) {
    EXPECT_EQ(e.capacity_bytes, 8192u);
  }
}

TEST(ConstantMemory, DoubleHalvesTheCap) {
  Device dev;
  std::vector<double> okay(1024, 1.0);
  EXPECT_NO_THROW(dev.upload_constant<double>(okay));
  std::vector<double> too_many(1025, 1.0);
  EXPECT_THROW(dev.upload_constant<double>(too_many), ConstantCapacityError);
}

TEST(ConstantMemory, ContentsMatchUpload) {
  Device dev;
  const std::vector<float> values = {1.5f, -2.0f, 3.25f};
  auto buf = dev.upload_constant<float>(values);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf[0], 1.5f);
  EXPECT_EQ(buf[2], 3.25f);
}

TEST(Transfers, RoundTripHostDeviceHost) {
  Device dev(DeviceProperties::tiny(1 << 16));
  std::vector<float> host(100);
  std::iota(host.begin(), host.end(), 0.0f);
  auto d = dev.alloc_global<float>(100);
  dev.copy_to_device(d, std::span<const float>(host));
  std::vector<float> back(100, -1.0f);
  dev.copy_to_host(std::span<float>(back), d);
  EXPECT_EQ(back, host);
}

TEST(Transfers, SizeMismatchThrows) {
  Device dev(DeviceProperties::tiny(1 << 16));
  auto d = dev.alloc_global<float>(10);
  std::vector<float> wrong(11);
  EXPECT_THROW(dev.copy_to_device(d, std::span<const float>(wrong)),
               LaunchConfigError);
  EXPECT_THROW(dev.copy_to_host(std::span<float>(wrong), d),
               LaunchConfigError);
}

TEST(LaunchConfig, CoverComputesCeilingGrid) {
  const auto cfg = LaunchConfig::cover(1000, 512);
  EXPECT_EQ(cfg.grid_blocks, 2u);
  EXPECT_EQ(cfg.threads_per_block, 512u);
  EXPECT_GE(cfg.total_threads(), 1000u);
  const auto exact = LaunchConfig::cover(1024, 512);
  EXPECT_EQ(exact.grid_blocks, 2u);
  const auto zero = LaunchConfig::cover(0, 512);
  EXPECT_EQ(zero.grid_blocks, 1u);  // at least one block
}

TEST(Launch, RejectsOversizedBlock) {
  Device dev;  // max 512 threads/block
  EXPECT_THROW(dev.launch(LaunchConfig{1, 513}, [](const ThreadCtx&) {}),
               LaunchConfigError);
}

TEST(Launch, RejectsZeroDimensions) {
  Device dev;
  EXPECT_THROW(dev.launch(LaunchConfig{0, 32}, [](const ThreadCtx&) {}),
               LaunchConfigError);
  EXPECT_THROW(dev.launch(LaunchConfig{1, 0}, [](const ThreadCtx&) {}),
               LaunchConfigError);
}

TEST(Launch, RejectsOversizedSharedMemory) {
  Device dev;  // 16 KB shared per block
  EXPECT_THROW(
      dev.launch_cooperative(LaunchConfig{1, 32}, 16 * 1024 + 1,
                             [](BlockCtx&) {}),
      LaunchConfigError);
}

TEST(Launch, EveryThreadRunsExactlyOnce) {
  Device dev;
  // 40,005 threads make 313 blocks, more than the pool's work items, so
  // runs of whole blocks are claimed together and the last run is short.
  for (const std::size_t n : {std::size_t{2000}, std::size_t{40005}}) {
    std::vector<std::atomic<int>> hits(n);
    const auto cfg = LaunchConfig::cover(n, 128);
    dev.launch(cfg, [&](const ThreadCtx& t) {
      const std::size_t j = t.global_idx();
      if (j < n) {
        hits[j].fetch_add(1);
      }
    });
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(hits[j].load(), 1) << "n " << n << ", thread " << j;
    }
  }
}

TEST(Launch, ThreadCtxIdentitiesAreConsistent) {
  Device dev;
  const LaunchConfig cfg{4, 64};
  std::vector<std::atomic<int>> hits(cfg.total_threads());
  dev.launch(cfg, [&](const ThreadCtx& t) {
    EXPECT_LT(t.block_idx, 4u);
    EXPECT_LT(t.thread_idx, 64u);
    EXPECT_EQ(t.block_dim, 64u);
    EXPECT_EQ(t.grid_dim, 4u);
    hits[t.global_idx()].fetch_add(1);
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Launch, StatsAccumulate) {
  Device dev;
  dev.launch(LaunchConfig{2, 32}, [](const ThreadCtx&) {});
  dev.launch_cooperative(LaunchConfig{3, 16}, 64, [](BlockCtx& ctx) {
    ctx.for_each_thread([](std::size_t) {});
  });
  EXPECT_EQ(dev.stats().kernel_launches, 1u);
  EXPECT_EQ(dev.stats().cooperative_launches, 1u);
  EXPECT_EQ(dev.stats().blocks_executed, 5u);
  EXPECT_EQ(dev.stats().threads_executed, 2u * 32u + 3u * 16u);
}

TEST(LaunchCooperative, PhasesActAsBarriers) {
  // Classic barrier test: phase 1 writes shared[tid], phase 2 reads the
  // neighbour's slot. Without barrier semantics the read could see stale
  // data; with for_each_thread phases it must see phase 1's writes.
  Device dev;
  const std::size_t block = 64;
  std::vector<int> out(block);
  dev.launch_cooperative(
      LaunchConfig{1, block}, block * sizeof(int), [&](BlockCtx& ctx) {
        auto shared = ctx.shared_as<int>(block);
        ctx.for_each_thread(
            [&](std::size_t tid) { shared[tid] = static_cast<int>(tid); });
        ctx.for_each_thread([&](std::size_t tid) {
          out[tid] = shared[(tid + 1) % block];
        });
      });
  for (std::size_t tid = 0; tid < block; ++tid) {
    EXPECT_EQ(out[tid], static_cast<int>((tid + 1) % block));
  }
}

TEST(LaunchCooperative, BlocksGetPrivateSharedMemory) {
  Device dev;
  const std::size_t blocks = 8;
  std::vector<int> result(blocks, -1);
  dev.launch_cooperative(
      LaunchConfig{blocks, 4}, 4 * sizeof(int), [&](BlockCtx& ctx) {
        auto shared = ctx.shared_as<int>(4);
        ctx.for_each_thread([&](std::size_t tid) {
          shared[tid] = static_cast<int>(ctx.block_idx());
        });
        ctx.for_each_thread([&](std::size_t tid) {
          if (tid == 0) {
            result[ctx.block_idx()] = shared[3];
          }
        });
      });
  for (std::size_t b = 0; b < blocks; ++b) {
    EXPECT_EQ(result[b], static_cast<int>(b));  // no cross-block bleed
  }
}

TEST(Launch, WorksWithDedicatedPool) {
  kreg::parallel::ThreadPool pool(2);
  Device dev(DeviceProperties::tesla_s10(), &pool);
  std::atomic<int> count{0};
  dev.launch(LaunchConfig{16, 32},
             [&](const ThreadCtx&) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16 * 32);
}

/// Counts the distinct threads that run a kernel. Each thread waits once,
/// on its first entry, until `want` distinct threads are inside or the
/// gate's 10 s deadline passes.
class WorkerGate {
 public:
  explicit WorkerGate(std::size_t want)
      : want_(want),
        deadline_(std::chrono::steady_clock::now() + std::chrono::seconds(10)) {
  }

  void enter() {
    std::unique_lock lock(mutex_);
    if (!seen_.insert(std::this_thread::get_id()).second) {
      return;
    }
    cv_.notify_all();
    cv_.wait_until(lock, deadline_, [&] { return seen_.size() >= want_; });
  }

  std::size_t distinct() {
    const std::lock_guard lock(mutex_);
    return seen_.size();
  }

 private:
  std::size_t want_;
  std::chrono::steady_clock::time_point deadline_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::set<std::thread::id> seen_;
};

TEST(Launch, FewBlocksSplitAcrossEveryWorker) {
  // Two blocks on four workers: the launch hands out ranges of each block,
  // so all four workers get inside the kernel at once (one block per
  // worker would let in only two). The launch shape and stats stay the
  // configured ones.
  kreg::parallel::ThreadPool pool(4);
  Device dev(DeviceProperties::tesla_s10(), &pool);
  const LaunchConfig cfg{2, 64};
  {
    WorkerGate gate(4);
    std::vector<std::atomic<int>> hits(cfg.total_threads());
    dev.launch("split_threads", cfg, [&](const ThreadCtx& t) {
      gate.enter();
      EXPECT_EQ(t.block_dim, 64u);
      EXPECT_EQ(t.grid_dim, 2u);
      hits[t.global_idx()].fetch_add(1);
    });
    EXPECT_EQ(gate.distinct(), 4u);
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
  {
    WorkerGate gate(4);
    std::vector<std::atomic<int>> hits(cfg.total_threads());
    dev.launch_lanes("split_lanes", cfg, 8, [&](const LaneCtx& t) {
      gate.enter();
      EXPECT_EQ(t.lanes, 8u);
      for (std::size_t l = 0; l < t.lanes; ++l) {
        hits[t.global_base() + l].fetch_add(1);
      }
    });
    EXPECT_EQ(gate.distinct(), 4u);
    for (const auto& h : hits) {
      EXPECT_EQ(h.load(), 1);
    }
  }
  EXPECT_EQ(dev.stats().kernel_launches, 2u);
  EXPECT_EQ(dev.stats().blocks_executed, 4u);
  EXPECT_EQ(dev.stats().threads_executed, 4u * 64u);
  EXPECT_EQ(dev.stats().lane_dispatches, 2u * 8u);
}

}  // namespace
