#include "serve/protocol.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"
#include "core/streaming.hpp"

namespace kreg::serve {

namespace {

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])) != 0) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < line.size() &&
           std::isspace(static_cast<unsigned char>(line[end])) == 0) {
      ++end;
    }
    if (end > pos) {
      tokens.push_back(line.substr(pos, end - pos));
    }
    pos = end;
  }
  return tokens;
}

std::uint64_t parse_u64(std::string_view text, const char* what) {
  if (text.empty()) {
    throw std::invalid_argument(std::string("parse_request: empty ") + what);
  }
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string("parse_request: bad ") + what +
                                " '" + std::string(text) + "'");
  }
  return value;
}

double parse_double(std::string_view text, const char* what) {
  if (text.empty()) {
    throw std::invalid_argument(std::string("parse_request: empty ") + what);
  }
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw std::invalid_argument(std::string("parse_request: bad ") + what +
                                " '" + std::string(text) + "'");
  }
  return value;
}

GridSpec parse_grid_spec(std::string_view text) {
  const std::size_t first = text.find(':');
  const std::size_t second =
      first == std::string_view::npos ? first : text.find(':', first + 1);
  if (first == std::string_view::npos || second == std::string_view::npos ||
      text.find(':', second + 1) != std::string_view::npos) {
    throw std::invalid_argument("parse_request: grid spec '" +
                                std::string(text) +
                                "' is not of the form lo:hi:count");
  }
  GridSpec spec;
  spec.set = true;
  spec.lo = parse_double(text.substr(0, first), "grid lo");
  spec.hi = parse_double(text.substr(first + 1, second - first - 1), "grid hi");
  const std::uint64_t count = parse_u64(text.substr(second + 1), "grid count");
  if (count == 0) {
    throw std::invalid_argument("parse_request: grid count must be positive");
  }
  spec.count = static_cast<std::size_t>(count);
  return spec;
}

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

KernelType parse_kernel(std::string_view text) {
  for (const KernelType kernel : kAllKernels) {
    if (text == to_string(kernel)) {
      return kernel;
    }
  }
  std::string valid;
  for (const KernelType kernel : kAllKernels) {
    if (!valid.empty()) {
      valid += ", ";
    }
    valid += std::string(to_string(kernel));
  }
  throw std::invalid_argument("parse_kernel: unknown kernel '" +
                              std::string(text) + "' (expected one of " +
                              valid + ")");
}

Precision parse_precision(std::string_view text) {
  if (text == "float" || text == "single") {
    return Precision::kFloat;
  }
  if (text == "double") {
    return Precision::kDouble;
  }
  throw std::invalid_argument("parse_precision: unknown precision '" +
                              std::string(text) +
                              "' (expected float, single, or double)");
}

Request parse_request(std::string_view line) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.empty()) {
    throw std::invalid_argument("parse_request: empty request line");
  }
  Request request;
  const std::string_view verb = tokens.front();
  if (verb == "ping") {
    request.kind = RequestKind::kPing;
  } else if (verb == "stats") {
    request.kind = RequestKind::kStats;
  } else if (verb == "shutdown") {
    request.kind = RequestKind::kShutdown;
  } else if (verb == "select") {
    request.kind = RequestKind::kSelect;
  } else {
    throw std::invalid_argument("parse_request: unknown verb '" +
                                std::string(verb) +
                                "' (expected select, stats, ping, shutdown)");
  }
  if (request.kind != RequestKind::kSelect) {
    if (tokens.size() > 1) {
      throw std::invalid_argument("parse_request: '" + std::string(verb) +
                                  "' takes no arguments");
    }
    return request;
  }
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 > token.size()) {
      throw std::invalid_argument("parse_request: expected key=value, got '" +
                                  std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "estimator") {
      request.estimator = parse_estimator(value);
    } else if (key == "kernel") {
      request.kernel = parse_kernel(value);
    } else if (key == "precision") {
      request.precision = parse_precision(value);
    } else if (key == "dgp") {
      if (value.empty()) {
        throw std::invalid_argument("parse_request: empty dgp name");
      }
      request.dgp = std::string(value);
    } else if (key == "n") {
      const std::uint64_t n = parse_u64(value, "n");
      if (n < 2) {
        throw std::invalid_argument("parse_request: n must be >= 2");
      }
      request.n = static_cast<std::size_t>(n);
    } else if (key == "seed") {
      request.seed = parse_u64(value, "seed");
    } else if (key == "grid") {
      request.grid = parse_grid_spec(value);
    } else if (key == "backend") {
      request.backend = parse_job_backend(value);
    } else if (key == "budget") {
      request.budget_bytes = parse_memory_budget(value);
    } else {
      throw std::invalid_argument("parse_request: unknown key '" +
                                  std::string(key) + "'");
    }
  }
  return request;
}

std::string format_outcome(const JobOutcome& outcome) {
  if (!outcome.ok) {
    return "error id=" + std::to_string(outcome.id) + " " + outcome.error;
  }
  return "ok id=" + std::to_string(outcome.id) +
         " selected=" + format_double(outcome.profile.selected) +
         " cv=" + format_double(outcome.profile.cv_score) +
         " argmin=" + std::to_string(outcome.profile.argmin) +
         " grid=" + std::to_string(outcome.profile.grid.size()) +
         " cache=" + (outcome.cache_hit ? "hit" : "miss") +
         " method=" + outcome.profile.method;
}

std::string format_stats(const SchedulerStats& stats,
                         const CacheStats& cache) {
  return "ok submitted=" + std::to_string(stats.submitted) +
         " completed=" + std::to_string(stats.completed) +
         " failed=" + std::to_string(stats.failed) +
         " cache_hits=" + std::to_string(stats.cache_hits) +
         " cache_misses=" + std::to_string(stats.cache_misses) +
         " coalesced=" + std::to_string(stats.coalesced) +
         " waves=" + std::to_string(stats.waves) +
         " launches=" + std::to_string(stats.launches) +
         " co_scheduled=" + std::to_string(stats.co_scheduled) +
         " deferrals=" + std::to_string(stats.deferrals) +
         " evictions=" + std::to_string(cache.evictions) +
         " resident_entries=" + std::to_string(cache.resident_entries);
}

std::string format_error(const std::string& message) {
  return "error " + message;
}

}  // namespace kreg::serve
