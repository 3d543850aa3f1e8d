#include "perfbench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double proc_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15 (clock ticks).
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) {
    return 0.0;
  }
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double peak_rss_mib(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

std::size_t cpu_count() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

kreg::spmd::LaunchStats launch_delta(const kreg::spmd::LaunchStats& before,
                                     const kreg::spmd::LaunchStats& after) {
  kreg::spmd::LaunchStats d;
  d.kernel_launches = after.kernel_launches - before.kernel_launches;
  d.cooperative_launches =
      after.cooperative_launches - before.cooperative_launches;
  d.blocks_executed = after.blocks_executed - before.blocks_executed;
  d.threads_executed = after.threads_executed - before.threads_executed;
  d.lane_dispatches = after.lane_dispatches - before.lane_dispatches;
  return d;
}

std::uint64_t digest_bytes(const void* data, std::size_t bytes,
                           std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash = (hash ^ p[i]) * 1099511628211ULL;
  }
  return hash;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent,
                            std::uint64_t request) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<std::uint32_t>(spans_.size());  // ids are 1-based
}

void Tracer::end(std::uint32_t span) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(span - 1).end_ns = now;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"name\": " << json_string(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << (i + 1 < spans_.size() ? "},\n" : "}\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Result::not_applicable(const std::string& name, const std::string& unit,
                            const std::string& reason) {
  metrics_.push_back(Metric{name, 0.0, unit, 0});
  not_applicable_.emplace_back(name, reason);
}

void Result::note(const std::string& key, std::string raw_json) {
  notes_.emplace_back(key, std::move(raw_json));
}

void Result::note(const std::string& key, double value) {
  notes_.emplace_back(key, json_number(value));
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) {
    failures_.push_back(why);
  }
}

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  out += "}, \"record\": {\"samples\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics_[i].name) + ": " +
           std::to_string(metrics_[i].samples);
  }
  out += "}, \"not_applicable\": {";
  for (std::size_t i = 0; i < not_applicable_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(not_applicable_[i].first) +
           ": " + json_string(not_applicable_[i].second);
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(failures_[i]);
  }
  out += "]";
  for (const auto& [key, value] : notes_) {
    out += ", " + json_string(key) + ": " + value;
  }
  return out + "}}";
}

void report_segments(Result& result, const std::vector<Segment>& segments,
                     Tail tail) {
  const auto beyond_p99 = [](std::size_t count) {
    const auto n = static_cast<double>(count);
    return n - std::ceil(0.99 * n);
  };
  std::vector<double> rates;
  std::vector<double> p99s;
  std::vector<double> cpu_ms;
  std::vector<double> all;
  double fewest_beyond = 1e300;
  for (const Segment& s : segments) {
    rates.push_back(static_cast<double>(s.verified) / s.wall_s);
    p99s.push_back(quantile(s.latency_ms, 0.99));
    cpu_ms.push_back(s.cpu_s * 1e3 / static_cast<double>(s.latency_ms.size()));
    all.insert(all.end(), s.latency_ms.begin(), s.latency_ms.end());
    fewest_beyond = std::min(fewest_beyond, beyond_p99(s.latency_ms.size()));
  }
  const bool pooled = tail == Tail::kPooled;
  result.metric("selections_per_s", median(rates), "1/s", all.size());
  result.metric("latency_p50_ms", median(all), "ms", all.size());
  result.metric("latency_p99_ms",
                pooled ? quantile(all, 0.99) : median(p99s), "ms",
                all.size());
  result.metric("cpu_ms_per_selection", median(cpu_ms), "ms", all.size());
  result.note("segments", static_cast<double>(segments.size()));
  result.note("latency_p99_over", json_string(pooled ? "run" : "segment"));
  result.note("latency_p99_samples_beyond",
              pooled ? beyond_p99(all.size()) : fewest_beyond);
}

void report_verified_ratio(Result& result) {
  const double failed_share =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed()) /
                                  static_cast<double>(result.attempted);
  result.metric("verified_ratio", std::max(0.0, 1.0 - failed_share), "ratio",
                result.attempted);
}

}  // namespace perfbench
