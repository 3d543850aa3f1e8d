// Tests for the host parallel substrate: thread pool lifecycle, parallel_for
// correctness under both schedules, exception propagation, and deterministic
// reduction.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "parallel/blocked_range.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using kreg::parallel::BlockedRange;
using kreg::parallel::parallel_for;
using kreg::parallel::parallel_reduce;
using kreg::parallel::partition_evenly;
using kreg::parallel::Schedule;
using kreg::parallel::ThreadPool;

TEST(BlockedRangePartition, EvenSplitCoversAllIndices) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1001u}) {
    for (std::size_t parts : {1u, 2u, 3u, 16u}) {
      const auto ranges = partition_evenly(n, parts);
      std::vector<bool> covered(n, false);
      for (const BlockedRange& r : ranges) {
        for (std::size_t i = r.begin; i < r.end; ++i) {
          EXPECT_FALSE(covered[i]) << "index covered twice";
          covered[i] = true;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(covered[i]) << "index " << i << " not covered";
      }
    }
  }
}

TEST(BlockedRangePartition, SizesDifferByAtMostOne) {
  const auto ranges = partition_evenly(103, 8);
  std::size_t lo = SIZE_MAX;
  std::size_t hi = 0;
  for (const BlockedRange& r : ranges) {
    lo = std::min(lo, r.size());
    hi = std::max(hi, r.size());
  }
  EXPECT_LE(hi - lo, 1u);
}

TEST(BlockedRangePartition, MorePartsThanElements) {
  const auto ranges = partition_evenly(3, 10);
  EXPECT_EQ(ranges.size(), 3u);
  for (const BlockedRange& r : ranges) {
    EXPECT_EQ(r.size(), 1u);
  }
}

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, VisitsEveryIndexOnce) {
  ThreadPool pool(4);
  for (Schedule sched : {Schedule::kStatic, Schedule::kDynamic}) {
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(
        n, [&](std::size_t i) { hits[i].fetch_add(1); }, &pool, sched, 64);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
    }
  }
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(0, [&](std::size_t) { touched = true; }, &pool);
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SingleWorkerFallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); },
               &pool);
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // serial path preserves order
}

TEST(ParallelFor, DynamicZeroChunkThrowsOnEveryPoolSize) {
  // A zero chunk has no ranges to hand out; it must fail loudly on every
  // pool, not run every iteration serially on one pool and none on another.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(workers);
    std::atomic<int> runs{0};
    EXPECT_THROW(parallel_for(
                     100, [&](std::size_t) { runs.fetch_add(1); }, &pool,
                     Schedule::kDynamic, 0),
                 std::invalid_argument)
        << workers << " workers";
    EXPECT_EQ(runs.load(), 0) << workers << " workers";
  }
}

TEST(ParallelFor, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) {
              throw std::runtime_error("boom");
            }
          },
          &pool),
      std::runtime_error);
}

TEST(ParallelFor, UsesGlobalPoolWhenNull) {
  std::atomic<int> counter{0};
  parallel_for(50, [&](std::size_t) { counter.fetch_add(1); }, nullptr);
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelReduce, SumMatchesSerial) {
  ThreadPool pool(4);
  const std::size_t n = 100000;
  const double parallel_sum = parallel_reduce<double>(
      n, 0.0, [](std::size_t i) { return static_cast<double>(i); },
      [](double a, double b) { return a + b; }, &pool);
  EXPECT_DOUBLE_EQ(parallel_sum, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ParallelReduce, DeterministicAcrossRuns) {
  ThreadPool pool(4);
  const std::size_t n = 12345;
  auto run = [&] {
    return parallel_reduce<double>(
        n, 0.0,
        [](std::size_t i) { return 1.0 / (static_cast<double>(i) + 1.0); },
        [](double a, double b) { return a + b; }, &pool);
  };
  const double first = run();
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_DOUBLE_EQ(run(), first);
  }
}

TEST(ParallelReduce, MinReduction) {
  ThreadPool pool(4);
  const double m = parallel_reduce<double>(
      1000, std::numeric_limits<double>::infinity(),
      [](std::size_t i) { return std::abs(static_cast<double>(i) - 500.5); },
      [](double a, double b) { return std::min(a, b); }, &pool);
  EXPECT_DOUBLE_EQ(m, 0.5);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  const double r = parallel_reduce<double>(
      0, 42.0, [](std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; }, nullptr);
  EXPECT_DOUBLE_EQ(r, 42.0);
}

TEST(ParallelFor, NestedCallsFromWorkersRunSeriallyWithoutDeadlock) {
  // A parallel_for body that itself calls parallel_for/parallel_reduce on
  // the same pool must not deadlock: the nested call detects it is on a
  // worker thread and degrades to a serial loop.
  ThreadPool pool(2);
  std::atomic<long> total{0};
  parallel_for(
      8,
      [&](std::size_t) {
        const double inner = parallel_reduce<double>(
            1000, 0.0, [](std::size_t i) { return static_cast<double>(i); },
            [](double a, double b) { return a + b; }, &pool);
        EXPECT_DOUBLE_EQ(inner, 999.0 * 1000.0 / 2.0);
        parallel_for(10, [&](std::size_t) { total.fetch_add(1); }, &pool);
      },
      &pool);
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, CurrentIsNullOffWorkersAndSetOnWorkers) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  std::atomic<bool> saw_pool{false};
  pool.submit([&] { saw_pool = ThreadPool::current() == &pool; });
  pool.wait_idle();
  EXPECT_TRUE(saw_pool.load());
  EXPECT_EQ(ThreadPool::current(), nullptr);
}

TEST(ParallelReduce, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_reduce<double>(
                   1000, 0.0,
                   [](std::size_t i) -> double {
                     if (i == 999) {
                       throw std::logic_error("bad");
                     }
                     return 0.0;
                   },
                   [](double a, double b) { return a + b; }, &pool),
               std::logic_error);
}

}  // namespace
