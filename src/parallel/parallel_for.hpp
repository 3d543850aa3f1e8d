#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "parallel/blocked_range.hpp"
#include "parallel/thread_pool.hpp"

namespace kreg::parallel {

/// Scheduling policy for `parallel_for`.
enum class Schedule {
  kStatic,   ///< one contiguous slice per worker (lowest overhead)
  kDynamic,  ///< fixed-size chunks claimed from an atomic counter
};

namespace detail {

/// Rethrows the first exception captured by any worker, if any.
class ExceptionCollector {
 public:
  void capture() noexcept {
    std::lock_guard lock(mutex_);
    if (!first_) {
      first_ = std::current_exception();
    }
  }
  void rethrow_if_any() {
    if (first_) {
      std::rethrow_exception(first_);
    }
  }

 private:
  std::mutex mutex_;
  std::exception_ptr first_;
};

/// Marks one submitted range done. The count drops under `done_mutex`, so
/// the caller waiting for zero cannot see it until this worker has made its
/// last touch of the mutex and the condition variable — all three live on
/// the caller's stack and die as soon as its wait returns.
inline void finish_one(std::atomic<std::size_t>& pending,
                       std::mutex& done_mutex,
                       std::condition_variable& done_cv) {
  const std::lock_guard lock(done_mutex);
  if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv.notify_all();
  }
}

}  // namespace detail

/// Runs body(i) for every i in [0, n) across the pool.
///
/// `body` must be safe to invoke concurrently for distinct indices. The call
/// blocks until all iterations complete; the first exception thrown by any
/// iteration is rethrown on the calling thread (remaining iterations in
/// flight still run to completion). Passing pool == nullptr uses
/// ThreadPool::global(). Small n short-circuits to a serial loop.
///
/// kStatic submits one contiguous slice per worker. kDynamic submits one
/// task per worker (at most one per chunk); each task claims `chunk`
/// consecutive iterations at a time from a shared atomic counter until none
/// are left, so a worker that starts late or stalls leaves its share to the
/// others. The call returns once every chunk has run: a task that starts
/// after that finds nothing to claim and touches nothing of the caller's.
/// kDynamic throws std::invalid_argument when `chunk` is 0.
template <class Body>
void parallel_for(std::size_t n, Body&& body, ThreadPool* pool = nullptr,
                  Schedule schedule = Schedule::kStatic,
                  std::size_t chunk = 64) {
  if (schedule == Schedule::kDynamic && chunk == 0) {
    throw std::invalid_argument("parallel_for: dynamic chunk must be > 0");
  }
  if (n == 0) {
    return;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  const std::size_t workers = pool->size();
  // Serial fallbacks: tiny pools, single iterations, and — crucially —
  // nested calls from one of this pool's own workers (blocking a worker on
  // subtasks that need a worker slot would deadlock once all workers wait).
  if (workers <= 1 || n == 1 || ThreadPool::current() == pool) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  detail::ExceptionCollector errors;
  std::atomic<std::size_t> pending{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;

  auto run_range = [&](BlockedRange range) {
    try {
      for (std::size_t i = range.begin; i < range.end; ++i) {
        body(i);
      }
    } catch (...) {
      errors.capture();
    }
    detail::finish_one(pending, done_mutex, done_cv);
  };

  if (schedule == Schedule::kStatic) {
    const std::vector<BlockedRange> ranges = partition_evenly(n, workers);
    pending.store(ranges.size(), std::memory_order_relaxed);
    for (const BlockedRange& range : ranges) {
      pool->submit([run_range, range] { run_range(range); });
    }
  } else {
    // A task touches the caller's stack (through run_range) only with a
    // claimed chunk in hand, and the call cannot return while a claimed
    // chunk is unfinished. The counter itself lives on the heap, so a task
    // that starts after the last chunk finished can still read it.
    const std::size_t chunks = (n - 1) / chunk + 1;
    const auto next = std::make_shared<std::atomic<std::size_t>>(0);
    pending.store(chunks, std::memory_order_relaxed);
    for (std::size_t t = 0; t < std::min(workers, chunks); ++t) {
      pool->submit([run_range, next, chunks, chunk, n] {
        for (std::size_t c = next->fetch_add(1); c < chunks;
             c = next->fetch_add(1)) {
          run_range({c * chunk, std::min(n, c * chunk + chunk)});
        }
      });
    }
  }
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] {
      return pending.load(std::memory_order_acquire) == 0;
    });
  }
  errors.rethrow_if_any();
}

/// Parallel reduction: combines body(i) values with `combine` into `init`.
/// `init` must be the identity element of `combine` (0 for +, +inf for min),
/// since each worker seeds its private partial with it.
///
/// Each worker accumulates a private partial over its slice; partials are
/// then combined in slice order on the calling thread, so the result is
/// deterministic for a fixed worker count (floating-point combination order
/// does not depend on scheduling).
template <class T, class Body, class Combine>
T parallel_reduce(std::size_t n, T init, Body&& body, Combine&& combine,
                  ThreadPool* pool = nullptr) {
  if (n == 0) {
    return init;
  }
  if (pool == nullptr) {
    pool = &ThreadPool::global();
  }
  const std::size_t workers = pool->size();
  // Same serial fallbacks as parallel_for, including the nested-call guard.
  if (workers <= 1 || n < 2 * workers || ThreadPool::current() == pool) {
    T acc = init;
    for (std::size_t i = 0; i < n; ++i) {
      acc = combine(acc, body(i));
    }
    return acc;
  }

  const std::vector<BlockedRange> ranges = partition_evenly(n, workers);
  std::vector<T> partials(ranges.size(), init);
  detail::ExceptionCollector errors;
  std::atomic<std::size_t> pending{ranges.size()};
  std::mutex done_mutex;
  std::condition_variable done_cv;

  for (std::size_t r = 0; r < ranges.size(); ++r) {
    pool->submit([&, r] {
      try {
        T acc = init;
        for (std::size_t i = ranges[r].begin; i < ranges[r].end; ++i) {
          acc = combine(acc, body(i));
        }
        partials[r] = acc;
      } catch (...) {
        errors.capture();
      }
      detail::finish_one(pending, done_mutex, done_cv);
    });
  }
  {
    std::unique_lock lock(done_mutex);
    done_cv.wait(lock, [&] {
      return pending.load(std::memory_order_acquire) == 0;
    });
  }
  errors.rethrow_if_any();

  T acc = init;
  for (const T& partial : partials) {
    acc = combine(acc, partial);
  }
  return acc;
}

}  // namespace kreg::parallel
