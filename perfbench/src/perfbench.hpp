// Shared pieces of the kreg benchmark program: options, sample statistics,
// process probes (CPU time, peak RSS), the in-memory span tracer, and the
// result record printed as the run's last line.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "spmd/device.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The kreg_serve daemon binary (serve-mix only).
  std::string serve_binary;
  /// Working directory for the daemon's socket and log and the span dump.
  std::string run_dir;
  /// Print the generated inputs' digests and the serve script, then exit.
  bool dump_inputs = false;
  /// Self-test hook: perturb one output before it is checked.
  bool corrupt = false;
};

/// Median (mean of the two middle values for even counts); 0 when empty.
double median(std::vector<double> values);
/// Nearest-rank quantile q ∈ (0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// User+system CPU seconds of this process.
double self_cpu_seconds();
/// User+system CPU seconds of process `pid`, from /proc/<pid>/stat.
double proc_cpu_seconds(pid_t pid);
/// Peak resident set (VmHWM) of `pid` in MiB; pid 0 = this process.
double peak_rss_mib(pid_t pid);
/// Online CPUs.
std::size_t cpu_count();

/// Per-selection launch counters: `after − before` of Device::stats().
kreg::spmd::LaunchStats launch_delta(const kreg::spmd::LaunchStats& before,
                                     const kreg::spmd::LaunchStats& after);

/// 64-bit FNV-1a over raw bytes — the input digests of --dump-inputs.
std::uint64_t digest_bytes(const void* data, std::size_t bytes,
                           std::uint64_t hash = 14695981039346656037ULL);

/// JSON string literal with escapes.
std::string json_string(std::string_view text);
/// JSON number with every significant digit ("%.17g").
std::string json_number(double value);

/// Timed segments per run. The end-to-end metrics are medians over a run's
/// segments, so one segment disturbed by another process on the machine
/// does not move them.
inline constexpr std::size_t kSegments = 3;

/// One timed segment of a closed loop.
struct Segment {
  std::size_t verified = 0;  ///< completed selections that passed the checks
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU of the program under test
  std::vector<double> latency_ms;
};

/// Spans kept in memory and written out once, at the end of a traced run:
/// name, start, end (ns since the tracer was created), the parent span id
/// (0 = root) and the request id that groups one request's spans.
class Tracer {
 public:
  Tracer();
  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint64_t request);
  void end(std::uint32_t span);
  std::size_t size() const;
  /// Writes {"spans": [...]} to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
  };
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// What one run reports: the contract fields (correct/attempted/failed and
/// the metrics), plus a record of parameters and sample counts that run.py
/// extends with the machine and build and stores next to the spans.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A per-layer metric this workload has no layer for: reported as 0 and
  /// listed with the reason in the record.
  void not_applicable(const std::string& name, const std::string& unit,
                      const std::string& reason);
  /// A record entry; `raw_json` is an already-encoded JSON value.
  void note(const std::string& key, std::string raw_json);
  void note(const std::string& key, double value);
  /// Counts one wrong, failed or dropped operation.
  void fail(const std::string& why);

  std::size_t attempted = 0;
  std::size_t failed() const noexcept { return failed_; }

  /// One JSON object on one line: correct, attempted, failed, metrics,
  /// record.
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, std::string>> not_applicable_;
  std::vector<std::string> failures_;
  std::size_t failed_ = 0;
};

/// Where latency_p99_ms is taken: over all of a run's samples, or in each
/// segment, reporting the median over segments. Per segment suits workloads
/// with too few samples for a tail of ten beyond the p99 anyway: there it is
/// close to each segment's maximum, and the median keeps one disturbed
/// segment from moving it.
enum class Tail { kPooled, kPerSegment };

/// Reports selections_per_s, latency_p50_ms, latency_p99_ms and
/// cpu_ms_per_selection: the median over `segments` of each segment's
/// value, except latency_p50_ms, the median of all samples, and
/// latency_p99_ms, taken where `tail` says.
void report_segments(Result& result, const std::vector<Segment>& segments,
                     Tail tail);

/// Reports verified_ratio = 1 − failed ÷ attempted, clamped at 0: failures
/// that match no attempt (set-up, shutdown and host checks) can outnumber
/// the attempts of a badly broken run.
void report_verified_ratio(Result& result);

Result run_batch(const Options& options);
Result run_serve_mix(const Options& options);
bool is_batch_workload(std::string_view name);

}  // namespace perfbench
