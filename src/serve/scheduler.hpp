#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/knobs.hpp"
#include "serve/profile_cache.hpp"
#include "spmd/device.hpp"

namespace kreg::serve {

/// One observable scheduling decision. The deterministic executor makes the
/// full sequence exactly reproducible, which is what the unit tests pin:
/// every admission deferral, co-schedule grouping, cache hit/miss, and
/// eviction appears here in decision order.
enum class EventKind {
  kSubmitted,    ///< job entered the queue
  kCacheHit,     ///< profile served from the cache (or wave-coalesced)
  kCacheMiss,    ///< cache consulted, no entry — job will execute
  kAdmitted,     ///< launch group admitted onto a device / host slot
  kDeferred,     ///< reservation did not fit this wave; retried next wave
  kCoScheduled,  ///< job merged into an already-admitted group's launch
  kEvicted,      ///< cache entry evicted at wave commit
  kCompleted,    ///< outcome delivered, ok
  kFailed,       ///< outcome delivered, error
};
std::string_view to_string(EventKind kind) noexcept;

struct Event {
  EventKind kind = EventKind::kSubmitted;
  std::uint64_t job = 0;    ///< job id (1-based); 0 = not job-specific
  std::uint64_t group = 0;  ///< launch-group id (1-based); 0 = none
  std::string detail;
};

struct SchedulerConfig {
  /// Worker threads for the threaded executor (0 = hardware concurrency;
  /// capped at kMaxServeWorkers). Ignored in deterministic mode.
  std::size_t workers = 0;
  /// true: waves execute inline on the draining thread, one group at a
  /// time, in admission order — every decision *and* every execution step
  /// is single-threaded and exactly reproducible. false: groups of a wave
  /// execute concurrently on the scheduler's own bounded pool. Both modes
  /// share the wave-formation and commit code, so decisions and outcomes
  /// are identical; only execution parallelism differs.
  bool deterministic = false;
  std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes;
  /// Global-memory capacity of each owned device (0 = the paper-default
  /// 4 GiB Tesla S10 ledger).
  std::size_t device_budget_bytes = 0;
  std::size_t device_count = 1;
  /// Most jobs merged into one co-scheduled launch (1 disables merging).
  std::size_t co_schedule_limit = 8;
  /// Only jobs with grids this small are co-schedule candidates; larger
  /// grids always launch solo.
  std::size_t co_schedule_max_grid = 64;
  bool record_events = true;
};

/// What a client gets back for one submitted job.
struct JobOutcome {
  std::uint64_t id = 0;
  bool ok = false;
  bool cache_hit = false;
  std::string error;
  SelectionProfile profile;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;  ///< within-wave duplicate served from twin
  std::uint64_t waves = 0;
  std::uint64_t launches = 0;       ///< launch groups executed
  std::uint64_t co_scheduled = 0;   ///< jobs that rode a merged launch
  std::uint64_t deferrals = 0;      ///< admission deferrals (job·wave pairs)
  std::uint64_t solo_overrides = 0; ///< admissions forced to guarantee progress
};

/// Async selection scheduler: owns the devices, a profile cache, and (in
/// threaded mode) a bounded worker pool. Clients submit SelectionJob plans
/// and receive futures; the scheduler drains the queue in waves:
///
///   1. *Formation* (single-threaded, even in threaded mode): jobs are
///      taken FIFO; each is validated, looked up in the cache, then either
///      merged into a compatible admitted group (co-scheduling: same data
///      handle/estimator/kernel/precision/device-backend small-grid jobs
///      share one launch over the sorted union of their grids — bitwise
///      safe only for estimators whose per-grid-point scores are
///      independent of the rest of the grid, i.e. the k-NN and OSCV device
///      folds; the NW sweep's admission order at each bandwidth depends on
///      the grid points below it, so NW never grid-merges), admitted solo
///      against the device's byte share (reservation = the
///      resolve_streaming plan's modeled bytes), or deferred to the next
///      wave. The first job of a wave on an empty device is always
///      admitted (solo-override) so progress is guaranteed even for jobs
///      that can never fit.
///   2. *Execution*: admitted groups run — inline and in admission order
///      (deterministic mode) or concurrently on the worker pool (threaded
///      mode, one mutex per device since the simulated Device is not
///      thread-safe).
///   3. *Commit* (single-threaded): outcomes are delivered and cache
///      insertions/evictions applied in ascending job-id order,
///      independent of completion order — which is why the cache's
///      hit/miss/eviction sequence is identical across both executors.
///
/// Admission tightens each executed job's stream.memory_budget_bytes to
/// its reserved share; by the streaming parity contract every plan the
/// budget induces is bitwise identical, so the tightening never shows in
/// the profile — outcomes are bitwise equal to a direct run_job call.
class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config = {});
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a job; the future resolves when a later drain() (or the
  /// pump thread) processes it. Never throws on bad jobs — validation
  /// errors surface as a failed outcome.
  std::future<JobOutcome> submit(SelectionJob job);

  /// Processes everything queued at call time (plus any deferrals it
  /// creates) to completion. Serialized: concurrent drainers take turns.
  void drain();

  /// Starts/stops a background pump thread that drains whenever jobs are
  /// queued — the daemon's operating mode. Idempotent.
  void start_pump();
  void stop_pump();

  const SchedulerConfig& config() const noexcept { return config_; }
  SchedulerStats stats() const;
  CacheStats cache_stats() const;
  /// Recorded decision sequence (empty unless config.record_events).
  std::vector<Event> events() const;
  std::size_t queued() const;

  std::size_t device_count() const noexcept { return devices_.size(); }
  const spmd::Device& device(std::size_t index) const {
    return *devices_.at(index);
  }

 private:
  struct Pending {
    std::uint64_t id = 0;
    SelectionJob job;
    std::promise<JobOutcome> promise;
  };
  struct Member;
  struct Group;

  void pump_loop();
  void process_wave(std::deque<Pending>& wave, std::deque<Pending>& deferred);
  void execute_group(Group& group);
  void record(EventKind kind, std::uint64_t job, std::uint64_t group,
              std::string detail);

  SchedulerConfig config_;
  std::vector<std::unique_ptr<spmd::Device>> devices_;
  std::vector<std::unique_ptr<std::mutex>> device_mutexes_;
  std::unique_ptr<parallel::ThreadPool> pool_;  // threaded mode only

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  std::uint64_t next_job_id_ = 1;
  bool stopping_ = false;

  std::mutex drain_mutex_;  // one wave-former at a time
  std::uint64_t next_group_id_ = 1;

  mutable std::mutex state_mutex_;  // cache, stats, events
  ProfileCache cache_;
  SchedulerStats stats_;
  std::vector<Event> events_;

  std::thread pump_;
  bool pump_running_ = false;
};

}  // namespace kreg::serve
