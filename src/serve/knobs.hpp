#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace kreg::serve {

/// Sentinel: "the knob was not given on the command line — consult the
/// environment, then fall back to the default". Mirrors the
/// kPrefetchFromEnv idiom (core/batched_sweep.hpp).
inline constexpr std::size_t kServeFromEnv = static_cast<std::size_t>(-1);

/// Upper bound on scheduler worker threads. Generous for any realistic
/// host but small enough that a mistyped value ("2566") fails loudly
/// instead of spawning a fork bomb's worth of threads.
inline constexpr std::size_t kMaxServeWorkers = 256;

/// Default profile-cache budget when neither --cache-budget nor
/// KREG_SERVE_CACHE_BUDGET is given: 64 MiB, roomy for tens of thousands
/// of profiles.
inline constexpr std::size_t kDefaultCacheBudgetBytes = std::size_t{64}
                                                        << 20;

/// Strict worker-count parser: digits only (no sign, no whitespace, no
/// suffix), value in [1, kMaxServeWorkers]. Throws std::invalid_argument
/// on empty input, non-digit characters, zero, overflow, or a count above
/// the bound — the same reject-don't-guess posture as
/// parse_memory_budget.
std::size_t parse_worker_count(std::string_view text);

/// Worker count from an explicit value or the environment:
/// `requested == kServeFromEnv` reads KREG_SERVE_WORKERS (unset/empty →
/// `fallback`); any other value must already be in range (throws
/// otherwise, same rules as parse_worker_count, except 0 is allowed to
/// mean `fallback` so SchedulerConfig{} stays default-constructible).
std::size_t resolve_worker_count(std::size_t requested, std::size_t fallback);

/// Cache-budget parser: "0", "off", "none", or "disabled" (case-sensitive
/// keywords) disable the cache and return 0; anything else must satisfy
/// parse_memory_budget (positive, optional binary suffix, strict overflow
/// checks). Unlike the device-memory knob, zero is meaningful here —
/// "no cache" is a deliberate serving mode, not an unset knob.
std::size_t parse_cache_budget(std::string_view text);

/// Cache budget from an explicit value or the environment:
/// `requested == kServeFromEnv` reads KREG_SERVE_CACHE_BUDGET via
/// parse_cache_budget (unset/empty → kDefaultCacheBudgetBytes); any other
/// value — including 0, cache disabled — passes through verbatim.
std::size_t resolve_cache_budget(std::size_t requested);

/// Validates a UNIX-domain socket path: non-empty, absolute (leading '/'),
/// and short enough for sockaddr_un::sun_path (107 chars + NUL). Throws
/// std::invalid_argument naming the violated rule.
void validate_socket_path(const std::string& path);

}  // namespace kreg::serve
