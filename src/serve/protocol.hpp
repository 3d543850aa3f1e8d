#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/job.hpp"
#include "serve/profile_cache.hpp"
#include "serve/scheduler.hpp"

namespace kreg::serve {

/// The daemon's line protocol, parsed and formatted with no sockets in
/// sight so every request/response path is unit-testable in-process.
///
/// Requests (one line each):
///   ping
///   stats
///   shutdown
///   select [estimator=nw|knn|oscv] [kernel=<name>] [precision=float|double]
///          [dgp=<name>] [n=<count>] [seed=<u64>] [grid=<lo>:<hi>:<count>]
///          [backend=host|tiled|device] [budget=<bytes-with-suffix>]
///
/// Responses: "ok ..." or "error <message>".
enum class RequestKind { kSelect, kStats, kPing, kShutdown };

/// Longest request line the daemon buffers, newline excluded: far above
/// any valid request, so a client streaming an unterminated line gets an
/// error and is disconnected instead of growing the daemon's memory.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Largest dataset a select may ask for: 2^24 observations, 256 MiB of x
/// and y. The daemon generates a dataset under the registry lock every
/// other select waits on and keeps it until exit, so an unbounded n would
/// stall the daemon and exhaust its memory from one request line.
inline constexpr std::size_t kMaxRequestN = std::size_t{1} << 24;

/// Largest grid a select may ask for (grid=lo:hi:count): 2^16 points.
inline constexpr std::size_t kMaxGridPoints = std::size_t{1} << 16;

/// Grid range requested by a select line; unset means "use the library
/// default for the dataset" (BandwidthGrid::default_for /
/// default_neighbor_grid).
struct GridSpec {
  bool set = false;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t count = 0;
};

struct Request {
  RequestKind kind = RequestKind::kPing;
  // select fields (defaults match the CLI's)
  EstimatorKind estimator = EstimatorKind::kNadarayaWatson;
  KernelType kernel = KernelType::kEpanechnikov;
  Precision precision = Precision::kDouble;
  std::string dgp = "paper";
  std::size_t n = 512;
  std::uint64_t seed = 1;
  GridSpec grid;
  JobBackend backend = JobBackend::kDevice;
  std::size_t budget_bytes = 0;  ///< stream budget; 0 = derive
};

/// Parses one request line. Throws std::invalid_argument on an unknown
/// verb, unknown key, or malformed value — strict, like every other knob
/// parser in this library.
Request parse_request(std::string_view line);

/// Parses "epanechnikov" / "uniform" / ... (the to_string spellings).
KernelType parse_kernel(std::string_view text);
/// Parses "float" / "single" / "double".
Precision parse_precision(std::string_view text);

/// "ok id=<id> selected=... cv=... argmin=... grid=... cache=hit|miss
/// method=..." or "error id=<id> <message>". Doubles are printed with 17
/// significant digits so the wire value round-trips bitwise.
std::string format_outcome(const JobOutcome& outcome);

/// One-line stats snapshot for the `stats` verb.
std::string format_stats(const SchedulerStats& stats,
                         const CacheStats& cache);

std::string format_error(const std::string& message);

}  // namespace kreg::serve
