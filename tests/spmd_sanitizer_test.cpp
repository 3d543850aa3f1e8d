// Tests for the kreg-sanitizer checked device layer: seeded-hazard
// "mutation" kernels the sanitizer MUST catch (racecheck / memcheck /
// initcheck / leakcheck), report contents (hazard kind, kernel, phase,
// tids, byte offset), sink behavior, and a clean-suite pass asserting zero
// false positives on the real device algorithms.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/grid.hpp"
#include "core/spmd_kde.hpp"
#include "core/spmd_selector.hpp"
#include "data/dataset.hpp"
#include "spmd/device.hpp"
#include "spmd/device_properties.hpp"
#include "spmd/errors.hpp"
#include "spmd/reduce.hpp"
#include "spmd/sanitizer/checked_device.hpp"
#include "spmd/scan.hpp"

namespace {

using kreg::spmd::BlockCtx;
using kreg::spmd::CheckedDevice;
using kreg::spmd::ConstantCapacityError;
using kreg::spmd::CountingSink;
using kreg::spmd::Device;
using kreg::spmd::DeviceBuffer;
using kreg::spmd::DeviceProperties;
using kreg::spmd::HazardKind;
using kreg::spmd::LaunchConfig;
using kreg::spmd::LaunchConfigError;
using kreg::spmd::SanitizerError;
using kreg::spmd::SanitizerReport;

// ---------------------------------------------------------------------------
// racecheck: seeded intra-phase hazards

TEST(Racecheck, DroppedBarrierReductionIsCaught) {
  // The classic barrier bug: the whole Harris tree reduction collapsed into
  // ONE for_each_thread phase. On the sequential simulator this silently
  // "works"; on any parallel schedule it races. The sanitizer must flag it.
  CheckedDevice dev;
  const std::size_t block = 64;
  try {
    dev.launch_cooperative(
        "dropped_barrier_reduce", LaunchConfig{1, block},
        block * sizeof(double), [&](BlockCtx& ctx) {
          auto shared = ctx.shared_as<double>(block);
          ctx.for_each_thread(
              [&](std::size_t t) { shared[t] = static_cast<double>(t); });
          // BUG: all strides in one phase — no barrier between levels.
          ctx.for_each_thread([&](std::size_t t) {
            for (std::size_t stride = block / 2; stride > 0; stride /= 2) {
              if (t < stride) {
                shared[t] += shared[t + stride];
              }
            }
          });
        });
    FAIL() << "sanitizer missed the dropped-barrier race";
  } catch (const SanitizerError& e) {
    const SanitizerReport& r = e.report();
    EXPECT_EQ(r.kind, HazardKind::kRace);
    EXPECT_EQ(r.kernel, "dropped_barrier_reduce");
    EXPECT_EQ(r.phase, 1u);  // the collapsed reduction phase
    EXPECT_NE(r.tid_a, SanitizerReport::kNoTid);
    EXPECT_NE(r.tid_b, SanitizerReport::kNoTid);
    EXPECT_NE(r.tid_a, r.tid_b);
    EXPECT_NE(e.what(), nullptr);
  }
}

TEST(Racecheck, WriteWriteConflictIsCaught) {
  CheckedDevice dev;
  try {
    dev.launch_cooperative(
        "waw_kernel", LaunchConfig{1, 8}, sizeof(int), [&](BlockCtx& ctx) {
          auto shared = ctx.shared_as<int>(1);
          // Every thread writes shared[0] in the same phase: WAW.
          ctx.for_each_thread(
              [&](std::size_t t) { shared[0] = static_cast<int>(t); });
        });
    FAIL() << "sanitizer missed the write-write race";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kRace);
    EXPECT_EQ(e.report().byte_offset, 0u);
    EXPECT_NE(e.report().message.find("WAW"), std::string::npos);
  }
}

TEST(Racecheck, ReadAfterWriteConflictIsCaught) {
  CheckedDevice dev;
  try {
    dev.launch_cooperative(
        "raw_kernel", LaunchConfig{1, 8}, 8 * sizeof(int), [&](BlockCtx& ctx) {
          auto shared = ctx.shared_as<int>(8);
          // One phase: tid 0 writes slot 1, then tid 1 (later in the same
          // phase) reads its own slot — a RAW hazard across tids.
          ctx.for_each_thread([&](std::size_t t) {
            if (t == 0) {
              shared[1] = 7;
            } else if (t == 1) {
              volatile int v = shared[1];
              (void)v;
            }
          });
        });
    FAIL() << "sanitizer missed the read-after-write race";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kRace);
    EXPECT_EQ(e.report().tid_a, 0u);
    EXPECT_EQ(e.report().tid_b, 1u);
    EXPECT_NE(e.report().message.find("RAW"), std::string::npos);
  }
}

TEST(Racecheck, CrossPhaseCommunicationIsNotFlagged) {
  // Phase barriers order accesses: writing in phase 1 and reading the
  // neighbour's slot in phase 2 is the *correct* pattern and must stay
  // silent (the false-positive guard).
  CheckedDevice dev;
  const std::size_t block = 32;
  std::vector<int> out(block);
  EXPECT_NO_THROW(dev.launch_cooperative(
      "neighbour_exchange", LaunchConfig{1, block}, block * sizeof(int),
      [&](BlockCtx& ctx) {
        auto shared = ctx.shared_as<int>(block);
        ctx.for_each_thread(
            [&](std::size_t t) { shared[t] = static_cast<int>(t); });
        ctx.for_each_thread([&](std::size_t t) {
          out[t] = shared[(t + 1) % block];
        });
      }));
}

// ---------------------------------------------------------------------------
// memcheck: out-of-bounds and moved-from

TEST(Memcheck, OobSharedIndexIsCaught) {
  CheckedDevice dev;
  try {
    dev.launch_cooperative(
        "oob_shared", LaunchConfig{1, 4}, 4 * sizeof(double),
        [&](BlockCtx& ctx) {
          auto shared = ctx.shared_as<double>(4);
          ctx.for_each_thread([&](std::size_t t) {
            shared[t + 1] = 1.0;  // BUG: t == 3 writes shared[4]
          });
        });
    FAIL() << "sanitizer missed the out-of-bounds shared index";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kOob);
    EXPECT_EQ(e.report().kernel, "oob_shared");
    EXPECT_EQ(e.report().object, "shared");
    EXPECT_EQ(e.report().byte_offset, 4 * sizeof(double));
    EXPECT_EQ(e.report().tid_b, 3u);
  }
}

TEST(Memcheck, SharedAsOverRequestIsCaughtOnCheckedDevice) {
  CheckedDevice dev;
  EXPECT_THROW(
      dev.launch_cooperative(
          "over_request", LaunchConfig{1, 4}, 4 * sizeof(double),
          [&](BlockCtx& ctx) {
            auto shared = ctx.shared_as<double>(8);  // 64 bytes of 32
            (void)shared;
          }),
      SanitizerError);
}

TEST(Memcheck, SharedAsOverRequestThrowsOnPlainDeviceToo) {
  // Satellite: the unchecked device also validates shared_as against the
  // launch's shared bytes instead of silently reinterpreting past the span.
  if (std::getenv("KREG_SPMD_SANITIZE") != nullptr) {
    GTEST_SKIP() << "KREG_SPMD_SANITIZE set: Device is not unchecked here";
  }
  Device dev;
  ASSERT_FALSE(dev.sanitizer_enabled());
  EXPECT_THROW(
      dev.launch_cooperative(LaunchConfig{1, 4}, 4 * sizeof(double),
                             [&](BlockCtx& ctx) {
                               auto shared = ctx.shared_as<double>(5);
                               (void)shared;
                             }),
      LaunchConfigError);
}

TEST(Memcheck, SharedAsMisalignedOffsetThrows) {
  Device dev;
  EXPECT_THROW(
      dev.launch_cooperative(LaunchConfig{1, 2}, 64,
                             [&](BlockCtx& ctx) {
                               auto v = ctx.shared_as<double>(1, 4);
                               (void)v;
                             }),
      LaunchConfigError);
}

TEST(Memcheck, OobBufferIndexIsCaught) {
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  auto buf = dev.alloc_global<double>(8, "small-buffer");
  std::vector<double> host(8, 1.0);
  dev.copy_to_device(buf, std::span<const double>(host));
  auto view = buf.view();
  try {
    volatile double v = view[8];  // one past the end
    (void)v;
    FAIL() << "sanitizer missed the out-of-bounds buffer index";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kOob);
    EXPECT_EQ(e.report().object, "small-buffer");
  }
}

TEST(Memcheck, MovedFromBufferUseIsCaught) {
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  auto buf = dev.alloc_global<double>(8, "donor");
  auto taken = std::move(buf);
  try {
    auto view = buf.view();  // NOLINT(bugprone-use-after-move): intentional
    (void)view;
    FAIL() << "sanitizer missed the moved-from buffer use";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kOob);
    EXPECT_NE(e.report().message.find("moved-from"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// initcheck: uninitialized reads and teardown leaks

TEST(Initcheck, UninitializedPartialSumReadIsCaught) {
  // The seeded bug: reduce over a buffer the main kernel never wrote (e.g.
  // a partial-sum array whose fill launch was skipped). Zero-initialized
  // storage makes this numerically silent; initcheck must flag it.
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  auto partials = dev.alloc_global<double>(32, "partial-sums");
  try {
    const double total = kreg::spmd::reduce_sum<double>(
        dev, kreg::spmd::MemView<const double>(partials.view()), 32);
    (void)total;
    FAIL() << "sanitizer missed the uninitialized read";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kUninit);
    EXPECT_EQ(e.report().object, "partial-sums");
    EXPECT_EQ(e.report().kernel, "reduce_sum");
  }
}

TEST(Initcheck, CopyToHostOfNeverWrittenBufferIsCaught) {
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  auto buf = dev.alloc_global<float>(16, "never-written");
  std::vector<float> host(16);
  EXPECT_THROW(dev.copy_to_host(std::span<float>(host), buf), SanitizerError);
}

TEST(Initcheck, PartiallyWrittenBufferIsCaught) {
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  auto buf = dev.alloc_global<double>(8, "half-written");
  auto view = buf.view();
  dev.launch("half_fill", LaunchConfig{1, 4},
             [&](const kreg::spmd::ThreadCtx& t) {
               view[t.thread_idx] = 1.0;  // elements 4..7 stay unwritten
             });
  std::vector<double> host(8);
  try {
    dev.copy_to_host(std::span<double>(host), buf);
    FAIL() << "sanitizer missed the partially-written buffer";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.report().kind, HazardKind::kUninit);
    EXPECT_EQ(e.report().byte_offset, 4 * sizeof(double));
  }
}

TEST(Initcheck, LeakedAllocationIsReportedByCheckLeaks) {
  auto sink = std::make_shared<CountingSink>();
  std::optional<DeviceBuffer<double>> leaked;
  {
    CheckedDevice dev(DeviceProperties::tiny(1 << 16), nullptr, sink);
    leaked = dev.alloc_global<double>(64, "leaky");
    EXPECT_EQ(dev.check_leaks(), 1u);
    EXPECT_EQ(sink->count(HazardKind::kLeak), 1u);
    // Device teardown runs a second, non-throwing pass; the leak was
    // already reported once and must not be double-counted.
  }
  EXPECT_EQ(sink->count(HazardKind::kLeak), 1u);
  const std::vector<SanitizerReport> reports = sink->reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].object, "leaky");
  EXPECT_NE(reports[0].format().find("leakcheck"), std::string::npos);
}

TEST(Initcheck, TeardownReportsLeaksThroughNonThrowingPath) {
  auto sink = std::make_shared<CountingSink>();
  std::optional<DeviceBuffer<double>> leaked;
  {
    CheckedDevice dev(DeviceProperties::tiny(1 << 16), nullptr, sink);
    leaked = dev.alloc_global<double>(8, "teardown-leak");
  }  // ~Device: leak pass must not throw even with a ThrowSink installed
  EXPECT_EQ(sink->count(HazardKind::kLeak), 1u);
}

TEST(Initcheck, ReleasedBuffersAreNotLeaks) {
  CheckedDevice dev(DeviceProperties::tiny(1 << 16));
  {
    auto a = dev.alloc_global<double>(8, "scoped");
  }
  EXPECT_EQ(dev.check_leaks(), 0u);
}

// ---------------------------------------------------------------------------
// Report formatting and sinks

TEST(Report, FormatNamesHazardKindPhaseAndTids) {
  SanitizerReport r;
  r.kind = HazardKind::kRace;
  r.kernel = "reduce_sum";
  r.object = "shared";
  r.phase = 3;
  r.block = 2;
  r.tid_a = 5;
  r.tid_b = 9;
  r.byte_offset = 40;
  r.message = "WAR hazard";
  const std::string text = r.format();
  EXPECT_NE(text.find("racecheck"), std::string::npos);
  EXPECT_NE(text.find("kernel=reduce_sum"), std::string::npos);
  EXPECT_NE(text.find("phase=3"), std::string::npos);
  EXPECT_NE(text.find("tids=5,9"), std::string::npos);
  EXPECT_NE(text.find("byte=40"), std::string::npos);

  SanitizerReport u;
  u.kind = HazardKind::kUninit;
  EXPECT_NE(u.format().find("initcheck"), std::string::npos);
  SanitizerReport o;
  o.kind = HazardKind::kOob;
  EXPECT_NE(o.format().find("memcheck"), std::string::npos);
}

TEST(Sinks, CountingSinkCountsPerKindAndKeepsReports) {
  CountingSink sink(nullptr, 2);
  SanitizerReport race;
  race.kind = HazardKind::kRace;
  SanitizerReport oob;
  oob.kind = HazardKind::kOob;
  sink.report(race);
  sink.report(race);
  sink.report(oob);
  EXPECT_EQ(sink.count(HazardKind::kRace), 2u);
  EXPECT_EQ(sink.count(HazardKind::kOob), 1u);
  EXPECT_EQ(sink.count(HazardKind::kUninit), 0u);
  EXPECT_EQ(sink.total(), 3u);
  EXPECT_EQ(sink.reports().size(), 2u);  // max_kept
}

TEST(Sinks, CountingSinkDeviceKeepsRunningPastFindings) {
  // The bench mode: log-and-count races don't abort the launch (OOB still
  // throws — there's no valid location to redirect the access to).
  auto sink = std::make_shared<CountingSink>();
  CheckedDevice dev(DeviceProperties::tesla_s10(), nullptr, sink);
  dev.launch_cooperative("waw_counted", LaunchConfig{1, 4}, sizeof(int),
                         [&](BlockCtx& ctx) {
                           auto shared = ctx.shared_as<int>(1);
                           ctx.for_each_thread([&](std::size_t t) {
                             shared[0] = static_cast<int>(t);
                           });
                         });
  EXPECT_GE(sink->count(HazardKind::kRace), 1u);
  EXPECT_EQ(dev.sanitizer()->races_detected(), sink->count(HazardKind::kRace));
}

// ---------------------------------------------------------------------------
// Clean suite: the real device algorithms produce zero findings

TEST(CleanSuite, DeviceAlgorithmsProduceZeroFindings) {
  auto sink = std::make_shared<CountingSink>();
  {
    CheckedDevice dev(DeviceProperties::tesla_s10(), nullptr, sink);

    // Primitives: both reduction variants, argmin, grid reduce, scan.
    // Scoped so the buffers are released before the final leak check.
    {
      const std::size_t n = 1000;
      std::vector<double> host(n);
      std::iota(host.begin(), host.end(), 1.0);
      auto buf = dev.alloc_global<double>(n, "clean-input");
      dev.copy_to_device(buf, std::span<const double>(host));
      const kreg::spmd::MemView<const double> view = buf.view();
      EXPECT_DOUBLE_EQ(kreg::spmd::reduce_sum<double>(dev, view, 128),
                       n * (n + 1) / 2.0);
      EXPECT_DOUBLE_EQ(
          kreg::spmd::reduce_sum<double>(
              dev, view, 128, kreg::spmd::ReduceVariant::kInterleaved),
          n * (n + 1) / 2.0);
      EXPECT_EQ(kreg::spmd::reduce_argmin<double>(dev, view, 64).index, 0u);
      EXPECT_DOUBLE_EQ(kreg::spmd::reduce_sum_grid<double>(dev, view, 64),
                       n * (n + 1) / 2.0);

      auto scan_buf = dev.alloc_global<double>(300, "clean-scan");
      std::vector<double> ones(300, 1.0);
      dev.copy_to_device(scan_buf, std::span<const double>(ones));
      kreg::spmd::inclusive_scan<double>(dev, scan_buf.view(), 64);
      std::vector<double> scanned(300);
      dev.copy_to_host(std::span<double>(scanned), scan_buf);
      EXPECT_DOUBLE_EQ(scanned.back(), 300.0);
    }

    // Full selectors: regression (both layouts, window + per-row) and KDE.
    kreg::data::Dataset data;
    for (std::size_t i = 0; i < 80; ++i) {
      const double x = static_cast<double>(i) / 8.0;
      data.x.push_back(x);
      data.y.push_back(x * 0.5 + ((i % 7) - 3.0) * 0.05);
    }
    const kreg::BandwidthGrid grid(0.3, 3.0, 12);
    for (const auto algorithm :
         {kreg::SweepAlgorithm::kWindow, kreg::SweepAlgorithm::kPerRowSort}) {
      for (const auto layout : {kreg::ResidualLayout::kBandwidthMajor,
                                kreg::ResidualLayout::kObservationMajor}) {
        kreg::SpmdSelectorConfig config;
        config.algorithm = algorithm;
        config.layout = layout;
        config.threads_per_block = 64;
        kreg::SpmdGridSelector selector(dev, config);
        const auto result = selector.select(data, grid);
        EXPECT_GT(result.bandwidth, 0.0);
      }
      kreg::SpmdKdeConfig kde_config;
      kde_config.algorithm = algorithm;
      kde_config.threads_per_block = 64;
      kreg::SpmdKdeSelector kde(dev, kde_config);
      const auto kde_result =
          kde.select(std::span<const double>(data.x), grid);
      EXPECT_GT(kde_result.bandwidth, 0.0);
    }

    EXPECT_EQ(dev.check_leaks(), 0u);
  }
  EXPECT_EQ(sink->total(), 0u)
      << "false positive: " << (sink->reports().empty()
                                    ? std::string("<none kept>")
                                    : sink->reports().front().format());
}

// ---------------------------------------------------------------------------
// Device error paths (unchecked device): launch validation and recovery

TEST(DeviceErrorPaths, CoverZeroStillLaunchesOneBlock) {
  const LaunchConfig cfg = LaunchConfig::cover(0, 128);
  EXPECT_EQ(cfg.grid_blocks, 1u);
  EXPECT_EQ(cfg.threads_per_block, 128u);
  Device dev;
  // Ranges of one block may run on several workers at once.
  std::atomic<std::size_t> executed{0};
  dev.launch(cfg, [&](const kreg::spmd::ThreadCtx&) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 128u);
  EXPECT_EQ(dev.stats().blocks_executed, 1u);
}

TEST(DeviceErrorPaths, ZeroSizedGridOrBlockIsRejected) {
  Device dev;
  EXPECT_THROW(dev.launch(LaunchConfig{0, 8}, [](const kreg::spmd::ThreadCtx&) {}),
               LaunchConfigError);
  EXPECT_THROW(dev.launch(LaunchConfig{1, 0}, [](const kreg::spmd::ThreadCtx&) {}),
               LaunchConfigError);
  EXPECT_EQ(dev.stats().kernel_launches, 0u);  // rejected before counting
}

TEST(DeviceErrorPaths, SharedBytesAtCapacityPassesOverCapacityThrows) {
  Device dev;
  const std::size_t cap = dev.properties().shared_memory_per_block;
  EXPECT_NO_THROW(dev.launch_cooperative(
      LaunchConfig{1, 1}, cap,
      [&](BlockCtx& ctx) { EXPECT_EQ(ctx.shared_bytes(), cap); }));
  EXPECT_THROW(
      dev.launch_cooperative(LaunchConfig{1, 1}, cap + 1, [](BlockCtx&) {}),
      LaunchConfigError);
  EXPECT_EQ(dev.stats().cooperative_launches, 1u);  // only the valid launch
}

TEST(DeviceErrorPaths, ConstantMemoryExhaustionIsRecoverable) {
  Device dev;
  const std::size_t cap_floats =
      dev.properties().constant_cache_bytes / sizeof(float);
  std::vector<float> host(cap_floats, 1.0f);
  {
    auto full = dev.upload_constant<float>(std::span<const float>(host));
    EXPECT_EQ(full.size(), cap_floats);
    // The cache is full: even one more float must be refused...
    EXPECT_THROW(dev.upload_constant<float>(
                     std::span<const float>(host).first(1)),
                 ConstantCapacityError);
  }  // ...until the RAII release returns the bytes...
  auto again = dev.upload_constant<float>(std::span<const float>(host));
  EXPECT_EQ(again.size(), cap_floats);  // ...after which a re-upload fits.
}

TEST(DeviceErrorPaths, LaunchStatsAccumulateAcrossMixedLaunches) {
  Device dev;
  dev.launch(LaunchConfig{2, 8}, [](const kreg::spmd::ThreadCtx&) {});
  dev.launch_cooperative(LaunchConfig{3, 4}, 64, [](BlockCtx& ctx) {
    ctx.for_each_thread([](std::size_t) {});
  });
  dev.launch(LaunchConfig{1, 16}, [](const kreg::spmd::ThreadCtx&) {});
  const kreg::spmd::LaunchStats& s = dev.stats();
  EXPECT_EQ(s.kernel_launches, 2u);
  EXPECT_EQ(s.cooperative_launches, 1u);
  EXPECT_EQ(s.blocks_executed, 2u + 3u + 1u);
  EXPECT_EQ(s.threads_executed, 16u + 12u + 16u);
}

// ---------------------------------------------------------------------------
// Environment activation

TEST(Activation, PlainDeviceHasNoSanitizerByDefault) {
  // The test harness may set KREG_SPMD_SANITIZE for the `sanitize` label
  // re-run; skip the "off by default" claim in that configuration.
  if (std::getenv("KREG_SPMD_SANITIZE") != nullptr) {
    GTEST_SKIP() << "KREG_SPMD_SANITIZE set in environment";
  }
  Device dev;
  EXPECT_FALSE(dev.sanitizer_enabled());
  EXPECT_EQ(dev.check_leaks(), 0u);  // no-op without a sanitizer
}

TEST(Activation, CheckedDeviceAlwaysHasSanitizer) {
  CheckedDevice dev;
  EXPECT_TRUE(dev.sanitizer_enabled());
  ASSERT_NE(dev.sanitizer(), nullptr);
  EXPECT_EQ(dev.sanitizer()->findings(), 0u);
}

}  // namespace
