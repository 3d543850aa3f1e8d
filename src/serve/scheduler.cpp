#include "serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/streaming.hpp"
#include "serve/knobs.hpp"

namespace kreg::serve {

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/// A job prepared for execution plus the bytes its streaming plan reserves
/// on the device.
struct Reservation {
  SelectionJob exec;
  std::size_t bytes = 0;
};

/// Sizes `job` against a byte share of one device: tightens the streaming
/// budget to the share (auto-tuned jobs only — an explicit opt-out stays
/// opted out) and returns the resolve_streaming plan's modeled footprint.
/// Every plan a budget induces is bitwise identical, so the tightening is
/// an admission-control detail, never a result change.
Reservation plan_reservation(SelectionJob job, std::size_t share,
                             std::size_t capacity) {
  Reservation r;
  r.exec = std::move(job);
  const std::size_t k = r.exec.grid_size();
  const std::size_t resident = job_streamed_bytes(r.exec, k);
  const std::size_t base = job_streamed_bytes(r.exec, 0);
  const std::size_t one = job_streamed_bytes(r.exec, 1);
  const std::size_t per_k = one > base ? one - base : 0;
  StreamingConfig cfg = r.exec.stream;
  if (cfg.auto_tune && share > 0 &&
      (cfg.memory_budget_bytes == 0 || cfg.memory_budget_bytes > share)) {
    cfg.memory_budget_bytes = share;
  }
  const StreamingPlan plan =
      resolve_streaming(cfg, k, resident, base, per_k, capacity);
  r.bytes = plan.streamed ? base + plan.k_block * per_k : resident;
  r.exec.stream = cfg;
  return r;
}

/// Two device jobs may share one launch exactly when merging their grids
/// provably cannot change either job's bits: same dataset handle, same
/// estimator/kernel/precision, and — the load-bearing part — an estimator
/// whose per-grid-point score is independent of the rest of the grid. The
/// k-NN and OSCV device folds are bitwise invariant under grid composition
/// (each point's fold runs in the same ascending observation order
/// regardless of its neighbours). The NW sweep is not: at each bandwidth it
/// admits the left run and then the right run into one set of moment sums,
/// so a grid point inserted below h splits both runs and changes the order
/// of the additions, and with it the last-ulp bits of the score at h. NW
/// jobs therefore never grid-merge; identical NW jobs still coalesce onto
/// one launch via their shared cache key.
bool co_schedulable(const SelectionJob& lhs, const SelectionJob& rhs) {
  return lhs.backend == JobBackend::kDevice &&
         rhs.backend == JobBackend::kDevice &&
         lhs.estimator != EstimatorKind::kNadarayaWatson &&
         lhs.data == rhs.data && lhs.estimator == rhs.estimator &&
         lhs.kernel == rhs.kernel && lhs.precision == rhs.precision;
}

template <class T>
std::vector<T> sorted_union(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> merged;
  merged.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(merged));
  return merged;
}

/// The group's launch plan extended with `job`'s grid: the sorted,
/// deduplicated union. Both inputs are strictly ascending, so the union is
/// a valid grid for the same estimator.
SelectionJob merged_job(const SelectionJob& base, const SelectionJob& job) {
  SelectionJob merged = base;
  if (base.estimator == EstimatorKind::kKnn) {
    merged.neighbor_grid = sorted_union(base.neighbor_grid, job.neighbor_grid);
  } else {
    merged.bandwidth_grid =
        sorted_union(base.bandwidth_grid, job.bandwidth_grid);
  }
  return merged;
}

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSubmitted:
      return "submitted";
    case EventKind::kCacheHit:
      return "cache-hit";
    case EventKind::kCacheMiss:
      return "cache-miss";
    case EventKind::kAdmitted:
      return "admitted";
    case EventKind::kDeferred:
      return "deferred";
    case EventKind::kCoScheduled:
      return "co-scheduled";
    case EventKind::kEvicted:
      return "evicted";
    case EventKind::kCompleted:
      return "completed";
    case EventKind::kFailed:
      return "failed";
  }
  return "?";
}

struct Scheduler::Member {
  Pending pending;
  bool has_key = false;
  CacheKey key;
  /// Outcome fully determined at formation (validation error, cache hit).
  bool done = false;
  JobOutcome outcome;
  /// Index of the earlier wave member executing an identical key, or
  /// kNoIndex. The follower's outcome is copied from the twin at commit.
  std::size_t follower_of = kNoIndex;
  /// Executing launch group, or kNoIndex when done/follower/deferred.
  std::size_t group_index = kNoIndex;
};

struct Scheduler::Group {
  std::uint64_t gid = 0;
  SelectionJob exec;
  std::vector<std::size_t> members;  ///< indices into the wave's members
  std::size_t reserved = 0;
  std::size_t device_index = kNoIndex;  ///< kNoIndex = host backend
  bool mergeable = false;
  bool ok = false;
  std::string error;
  SelectionProfile profile;  ///< the (possibly merged) launch's profile
};

Scheduler::Scheduler(SchedulerConfig config)
    : config_(config), cache_(config.cache_budget_bytes) {
  if (config_.device_count == 0) {
    throw std::invalid_argument("Scheduler: device_count must be positive");
  }
  if (config_.workers != 0 && config_.workers > kMaxServeWorkers) {
    throw std::invalid_argument(
        "Scheduler: workers exceeds the maximum (" +
        std::to_string(kMaxServeWorkers) + ")");
  }
  if (config_.co_schedule_limit == 0) {
    config_.co_schedule_limit = 1;  // 0 and 1 both mean "no merging"
  }
  // The paper-default device, with only the global ledger resized: the
  // constant cache and launch limits stay at hardware values so a capped
  // ledger exercises streaming, not unrelated capability failures.
  spmd::DeviceProperties props = spmd::DeviceProperties::tesla_s10();
  if (config_.device_budget_bytes != 0) {
    props.global_memory_bytes = config_.device_budget_bytes;
  }
  for (std::size_t i = 0; i < config_.device_count; ++i) {
    devices_.push_back(std::make_unique<spmd::Device>(props));
    device_mutexes_.push_back(std::make_unique<std::mutex>());
  }
  if (!config_.deterministic) {
    pool_ = std::make_unique<parallel::ThreadPool>(config_.workers);
  }
}

Scheduler::~Scheduler() {
  stop_pump();
  std::deque<Pending> orphans;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    orphans.swap(queue_);
  }
  for (Pending& pending : orphans) {
    JobOutcome outcome;
    outcome.id = pending.id;
    outcome.error = "scheduler destroyed before the job ran";
    pending.promise.set_value(std::move(outcome));
  }
}

void Scheduler::record(EventKind kind, std::uint64_t job, std::uint64_t group,
                       std::string detail) {
  if (!config_.record_events) {
    return;
  }
  const std::lock_guard<std::mutex> lock(state_mutex_);
  events_.push_back(Event{kind, job, group, std::move(detail)});
}

std::future<JobOutcome> Scheduler::submit(SelectionJob job) {
  Pending pending;
  pending.job = std::move(job);
  std::future<JobOutcome> future = pending.promise.get_future();
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    id = next_job_id_++;
    pending.id = id;
    queue_.push_back(std::move(pending));
    // Record under the queue lock so the submitted-event order matches the
    // id order even with racing submitters (lock order: queue -> state).
    record(EventKind::kSubmitted, id, 0, "");
    queue_cv_.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.submitted;
  }
  return future;
}

void Scheduler::drain() {
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  std::deque<Pending> deferred;
  for (;;) {
    std::deque<Pending> wave;
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      wave.swap(queue_);
    }
    // Deferred jobs are older than anything just dequeued: they keep their
    // FIFO position at the front, which is what makes the next wave's
    // solo-override reach them first.
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      wave.push_front(std::move(*it));
    }
    deferred.clear();
    if (wave.empty()) {
      break;
    }
    process_wave(wave, deferred);
  }
}

void Scheduler::process_wave(std::deque<Pending>& wave,
                             std::deque<Pending>& deferred) {
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.waves;
  }
  const bool cache_on = config_.cache_budget_bytes > 0;
  std::vector<Member> members;
  std::vector<Group> groups;
  members.reserve(wave.size());
  std::vector<std::size_t> free_bytes(devices_.size());
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    free_bytes[d] = devices_[d]->properties().memory_budget().global_bytes;
  }
  bool any_device_admitted = false;
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> executing;

  // ---- Phase 1: formation (single-threaded in both executor modes) ------
  while (!wave.empty()) {
    Member m;
    m.pending = std::move(wave.front());
    wave.pop_front();
    const std::uint64_t id = m.pending.id;
    const SelectionJob& job = m.pending.job;

    try {
      validate_job(job);
    } catch (const std::exception& e) {
      m.done = true;
      m.outcome.error = e.what();
      members.push_back(std::move(m));
      continue;
    }

    if (cache_on) {
      m.key = cache_key(job);
      m.has_key = true;
      std::optional<SelectionProfile> hit;
      {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        hit = cache_.lookup(m.key);
        if (hit) {
          ++stats_.cache_hits;
        } else {
          ++stats_.cache_misses;
        }
      }
      if (hit) {
        m.done = true;
        m.outcome.ok = true;
        m.outcome.cache_hit = true;
        m.outcome.profile = std::move(*hit);
        // The payload is backend-invariant bitwise; the method string names
        // the backend *this* job asked for.
        m.outcome.profile.method = job_method(job);
        record(EventKind::kCacheHit, id, 0, "");
        members.push_back(std::move(m));
        continue;
      }
      record(EventKind::kCacheMiss, id, 0, "");
      if (const auto it = executing.find(m.key); it != executing.end()) {
        m.follower_of = it->second;
        record(EventKind::kCacheHit, id, 0,
               "coalesced with job " +
                   std::to_string(members[it->second].pending.id));
        {
          const std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.coalesced;
        }
        members.push_back(std::move(m));
        continue;
      }
    }

    const std::size_t member_index = members.size();

    if (job.backend != JobBackend::kDevice) {
      // Host backends take no device bytes: always admitted, never merged.
      Group group;
      group.gid = next_group_id_++;
      group.exec = job;
      group.members.push_back(member_index);
      m.group_index = groups.size();
      record(EventKind::kAdmitted, id, group.gid, "host backend");
      groups.push_back(std::move(group));
      if (m.has_key) {
        executing.emplace(m.key, member_index);
      }
      members.push_back(std::move(m));
      continue;
    }

    bool attached = false;
    if (config_.co_schedule_limit > 1 && job.grid_size() > 0 &&
        job.grid_size() <= config_.co_schedule_max_grid) {
      for (std::size_t gi = 0; gi < groups.size() && !attached; ++gi) {
        Group& group = groups[gi];
        if (!group.mergeable ||
            group.members.size() >= config_.co_schedule_limit ||
            !co_schedulable(group.exec, job)) {
          continue;
        }
        const std::size_t capacity = devices_[group.device_index]
                                         ->properties()
                                         .memory_budget()
                                         .global_bytes;
        // Release the group's reservation, re-reserve the merged launch.
        const std::size_t share =
            free_bytes[group.device_index] + group.reserved;
        Reservation merged =
            plan_reservation(merged_job(group.exec, job), share, capacity);
        if (merged.bytes > share) {
          continue;
        }
        free_bytes[group.device_index] = share - merged.bytes;
        group.exec = std::move(merged.exec);
        group.reserved = merged.bytes;
        group.members.push_back(member_index);
        m.group_index = gi;
        record(EventKind::kCoScheduled, id, group.gid,
               "merged grid now " + std::to_string(group.exec.grid_size()) +
                   " points, " + std::to_string(group.reserved) +
                   " bytes reserved");
        {
          const std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.co_scheduled;
        }
        attached = true;
      }
    }

    if (!attached) {
      std::size_t device_index = kNoIndex;
      Reservation reservation;
      for (std::size_t d = 0; d < devices_.size(); ++d) {
        const std::size_t capacity =
            devices_[d]->properties().memory_budget().global_bytes;
        reservation = plan_reservation(job, free_bytes[d], capacity);
        if (reservation.bytes <= free_bytes[d]) {
          device_index = d;
          break;
        }
      }
      bool solo_override = false;
      if (device_index == kNoIndex && !any_device_admitted) {
        // Nothing else holds bytes this wave: admit anyway so a job that
        // can never fit still executes (and fails with a real ledger
        // error) instead of deferring forever.
        const std::size_t capacity =
            devices_[0]->properties().memory_budget().global_bytes;
        reservation = plan_reservation(job, free_bytes[0], capacity);
        device_index = 0;
        solo_override = true;
        {
          const std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.solo_overrides;
        }
      }
      if (device_index == kNoIndex) {
        record(EventKind::kDeferred, id, 0,
               "needs " + std::to_string(reservation.bytes) +
                   " bytes, none of the devices has that free");
        {
          const std::lock_guard<std::mutex> lock(state_mutex_);
          ++stats_.deferrals;
        }
        deferred.push_back(std::move(m.pending));
        continue;  // not a wave member; retried next wave
      }
      Group group;
      group.gid = next_group_id_++;
      group.exec = std::move(reservation.exec);
      group.reserved = reservation.bytes;
      group.device_index = device_index;
      group.mergeable = config_.co_schedule_limit > 1 &&
                        job.estimator != EstimatorKind::kNadarayaWatson &&
                        job.grid_size() <= config_.co_schedule_max_grid;
      group.members.push_back(member_index);
      m.group_index = groups.size();
      free_bytes[device_index] -=
          std::min(reservation.bytes, free_bytes[device_index]);
      any_device_admitted = true;
      record(EventKind::kAdmitted, id, group.gid,
             "device " + std::to_string(device_index) + ", " +
                 std::to_string(group.reserved) + " bytes reserved" +
                 (solo_override ? " (solo-override)" : ""));
      groups.push_back(std::move(group));
      if (m.has_key) {
        executing.emplace(m.key, member_index);
      }
      members.push_back(std::move(m));
    } else {
      if (m.has_key) {
        executing.emplace(m.key, member_index);
      }
      members.push_back(std::move(m));
    }
  }

  // ---- Phase 2: execution -----------------------------------------------
  if (pool_) {
    for (Group& group : groups) {
      Group* g = &group;
      pool_->submit([this, g] { execute_group(*g); });
    }
    pool_->wait_idle();
  } else {
    for (Group& group : groups) {
      execute_group(group);
    }
  }
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    stats_.launches += groups.size();
  }

  // ---- Phase 3: commit (single-threaded, ascending job id) --------------
  for (Member& m : members) {
    m.outcome.id = m.pending.id;
    if (m.follower_of != kNoIndex) {
      const Member& twin = members[m.follower_of];
      if (twin.outcome.ok) {
        m.outcome.ok = true;
        m.outcome.cache_hit = true;
        m.outcome.profile = twin.outcome.profile;
        m.outcome.profile.method = job_method(m.pending.job);
      } else {
        m.outcome.error = "coalesced twin failed: " + twin.outcome.error;
      }
    } else if (!m.done) {
      Group& group = groups[m.group_index];
      if (group.ok) {
        m.outcome.ok = true;
        if (group.members.size() == 1) {
          m.outcome.profile = group.profile;
        } else {
          // Extract this job's scores from the merged launch: every one of
          // its grid values appears (bit-identically) in the merged grid.
          std::vector<double> scores;
          scores.reserve(m.pending.job.grid_size());
          const std::vector<double>& merged_grid = group.profile.grid;
          const auto extract_at = [&](double value) {
            const auto it = std::lower_bound(merged_grid.begin(),
                                             merged_grid.end(), value);
            scores.push_back(group.profile.scores[static_cast<std::size_t>(
                it - merged_grid.begin())]);
          };
          if (m.pending.job.estimator == EstimatorKind::kKnn) {
            for (const std::size_t count : m.pending.job.neighbor_grid) {
              extract_at(static_cast<double>(count));
            }
          } else {
            for (const double h : m.pending.job.bandwidth_grid) {
              extract_at(h);
            }
          }
          m.outcome.profile = profile_from_scores(
              m.pending.job, std::move(scores), job_method(m.pending.job));
        }
      } else {
        m.outcome.error = group.error;
      }
    }

    if (m.outcome.ok && !m.outcome.cache_hit && m.has_key) {
      std::vector<CacheKey> evicted;
      {
        const std::lock_guard<std::mutex> lock(state_mutex_);
        evicted = cache_.insert(m.key, m.outcome.profile);
      }
      for (const CacheKey& key : evicted) {
        record(EventKind::kEvicted, 0, 0,
               "n=" + std::to_string(key.n) +
                   " grid=" + std::to_string(key.grid_size) + " " +
                   std::string(to_string(key.estimator)));
      }
    }

    const std::uint64_t gid =
        m.group_index != kNoIndex ? groups[m.group_index].gid : 0;
    record(m.outcome.ok ? EventKind::kCompleted : EventKind::kFailed,
           m.outcome.id, gid, m.outcome.ok ? "" : m.outcome.error);
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      if (m.outcome.ok) {
        ++stats_.completed;
      } else {
        ++stats_.failed;
      }
    }
    m.pending.promise.set_value(m.outcome);
  }
}

void Scheduler::execute_group(Group& group) {
  try {
    JobContext ctx;
    if (group.device_index != kNoIndex) {
      // The simulated Device is not thread-safe (stats, memory ledger):
      // one launch at a time per device.
      const std::lock_guard<std::mutex> lock(
          *device_mutexes_[group.device_index]);
      ctx.device = devices_[group.device_index].get();
      group.profile = run_job(group.exec, ctx);
    } else {
      group.profile = run_job(group.exec, ctx);
    }
    group.ok = true;
  } catch (const std::exception& e) {
    group.error = e.what();
  }
}

void Scheduler::start_pump() {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  if (pump_running_) {
    return;
  }
  stopping_ = false;
  pump_running_ = true;
  pump_ = std::thread([this] { pump_loop(); });
}

void Scheduler::stop_pump() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!pump_running_) {
      return;
    }
    stopping_ = true;
    queue_cv_.notify_all();
  }
  pump_.join();
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  pump_running_ = false;
  stopping_ = false;
}

void Scheduler::pump_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) {
        return;
      }
    }
    drain();
  }
}

SchedulerStats Scheduler::stats() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

CacheStats Scheduler::cache_stats() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return cache_.stats();
}

std::vector<Event> Scheduler::events() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return events_;
}

std::size_t Scheduler::queued() const {
  const std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

}  // namespace kreg::serve
