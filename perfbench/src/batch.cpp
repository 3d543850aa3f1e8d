// The three batch workloads: one caller runs SpmdGridSelector::select in a
// closed loop over a few seeded paper-DGP datasets.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/spmd_selector.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "layers.hpp"
#include "perfbench.hpp"
#include "rng/splitmix64.hpp"
#include "rng/stream.hpp"

namespace perfbench {

namespace {

using kreg::Precision;

struct BatchSpec {
  const char* name;
  std::size_t n;
  std::size_t k;
  Precision precision;
  /// Seeded datasets the closed loop cycles over.
  std::size_t datasets;
  /// Global memory of the simulated device; 0 = the paper's 4 GiB card.
  std::size_t device_bytes;
  /// Explicit grid range; h_hi == 0 = the paper's full-domain default.
  double h_lo;
  double h_hi;
  /// Largest relative difference allowed between a device score and the
  /// sequential host sweep's score at the same precision.
  double score_rtol;
  /// Set-ups timed per run (their median is setup_s): more where a set-up
  /// is short and noisy.
  std::size_t setup_reps;
};

constexpr BatchSpec kSpecs[] = {
    // Table I's largest sample: h_max spans the data, n² admissions.
    {"paper-n20k", 20'000, 100, Precision::kFloat, 3, 0, 0.0, 0.0, 1e-5, 3},
    // Table II's widest grid: k + 1 cooperative reduction launches.
    {"paper-wide-k", 1'000, 2'000, Precision::kFloat, 4, 0, 0.0, 0.0, 1e-5,
     9},
    // The 2-D streamed plan: a 24 MiB device cannot hold the O(n) state.
    {"stream-1m", 1'000'000, 32, Precision::kDouble, 2, 24ULL << 20, 1e-5,
     1e-4, 1e-11, 3},
};

const BatchSpec& find_spec(std::string_view name) {
  for (const BatchSpec& spec : kSpecs) {
    if (name == spec.name) {
      return spec;
    }
  }
  throw std::invalid_argument("not a batch workload: " + std::string(name));
}

struct Inputs {
  std::vector<kreg::data::Dataset> data;
  std::vector<kreg::BandwidthGrid> grids;
};

Inputs make_inputs(const BatchSpec& spec, std::uint64_t seed) {
  Inputs in;
  kreg::rng::SplitMix64 seeds(seed);
  for (std::size_t d = 0; d < spec.datasets; ++d) {
    kreg::rng::Stream stream(seeds());
    in.data.push_back(kreg::data::paper_dgp(spec.n, stream));
    in.grids.push_back(
        spec.h_hi > 0.0
            ? kreg::BandwidthGrid(spec.h_lo, spec.h_hi, spec.k)
            : kreg::BandwidthGrid::default_for(in.data.back(), spec.k));
  }
  return in;
}

void dump_inputs(const Inputs& in) {
  for (std::size_t d = 0; d < in.data.size(); ++d) {
    const auto& x = in.data[d].x;
    const auto& y = in.data[d].y;
    const auto& g = in.grids[d].values();
    std::uint64_t h = digest_bytes(x.data(), x.size() * sizeof(double));
    h = digest_bytes(y.data(), y.size() * sizeof(double), h);
    std::printf("dataset %zu n=%zu data=%016llx grid=%016llx k=%zu\n", d,
                x.size(), static_cast<unsigned long long>(h),
                static_cast<unsigned long long>(
                    digest_bytes(g.data(), g.size() * sizeof(double))),
                g.size());
  }
}

bool bitwise_equal(const kreg::SelectionResult& a,
                   const kreg::SelectionResult& b) {
  return a.scores.size() == b.scores.size() &&
         std::memcmp(a.scores.data(), b.scores.data(),
                     a.scores.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.bandwidth, &b.bandwidth, sizeof(double)) == 0;
}

std::size_t first_argmin(const std::vector<double>& scores) {
  std::size_t best = 0;
  for (std::size_t b = 1; b < scores.size(); ++b) {
    if (scores[b] < scores[best]) {
      best = b;
    }
  }
  return best;
}

struct Loop : Segment {
  std::vector<kreg::spmd::LaunchStats> launches;
};

/// The batch workload's state: inputs, the device and selector kept from
/// the last timed set-up, and the first profile of every dataset, which
/// every later selection of that dataset must reproduce bit for bit.
class BatchRun {
 public:
  BatchRun(const BatchSpec& spec, const Options& options)
      : spec_(spec), options_(options), in_(make_inputs(spec, options.seed)) {
    props_ = kreg::spmd::DeviceProperties::tesla_s10();
    if (spec.device_bytes != 0) {
      props_.global_memory_bytes = spec.device_bytes;
    }
    config_.precision = spec.precision;
    refs_.resize(in_.data.size());
  }

  const Inputs& inputs() const { return in_; }

  /// Device construction plus one warm-up selection, `reps` times; keeps
  /// the last device. Returns each set-up's seconds.
  std::vector<double> set_up(std::size_t reps) {
    std::vector<double> seconds;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = Clock::now();
      auto device = std::make_unique<kreg::spmd::Device>(props_);
      const kreg::SpmdGridSelector selector(*device, config_);
      kreg::SelectionResult warm = selector.select(in_.data[0], in_.grids[0]);
      seconds.push_back(seconds_since(t0));
      device_ = std::move(device);
      if (!refs_[0]) {
        refs_[0] = std::move(warm);
      }
    }
    return seconds;
  }

  Loop closed_loop(double seconds, Result& result, Tracer* tracer) {
    const kreg::SpmdGridSelector selector(*device_, config_);
    Loop loop;
    const auto start = Clock::now();
    auto last_end = start;
    const double cpu0 = self_cpu_seconds();
    do {
      const std::size_t d = next_ % in_.data.size();
      const std::uint64_t request = ++next_;
      const kreg::spmd::LaunchStats before = device_->stats();
      const std::uint32_t span =
          tracer != nullptr ? tracer->begin("spmd.select", 0, request) : 0;
      const auto t0 = Clock::now();
      kreg::SelectionResult r = selector.select(in_.data[d], in_.grids[d]);
      last_end = Clock::now();
      if (tracer != nullptr) {
        tracer->end(span);
      }
      loop.latency_ms.push_back(ms_between(t0, last_end));
      loop.launches.push_back(launch_delta(before, device_->stats()));
      ++result.attempted;
      if (options_.corrupt && !corrupted_) {
        r.scores[r.scores.size() / 2] =
            std::nextafter(r.scores[r.scores.size() / 2], 0.0);
        corrupted_ = true;
      }
      if (!refs_[d]) {
        refs_[d] = std::move(r);
        ++loop.verified;
      } else if (!bitwise_equal(r, *refs_[d])) {
        result.fail("selection " + std::to_string(request) + " of dataset " +
                    std::to_string(d) +
                    " differs from the first selection of that dataset");
      } else {
        ++loop.verified;
      }
    } while (seconds_since(start) < seconds);
    loop.cpu_s = self_cpu_seconds() - cpu0;
    loop.wall_s = std::chrono::duration<double>(last_end - start).count();
    return loop;
  }

  /// The selected argmin and every score against the sequential host
  /// sweep at the same precision, on one dataset chosen by the seed.
  void host_check(Result& result) {
    std::size_t d = options_.seed % in_.data.size();
    if (!refs_[d]) {
      d = 0;
    }
    const kreg::SelectionResult& dev = *refs_[d];
    const std::vector<double> host =
        kreg::window_cv_profile(in_.data[d], in_.grids[d].values(),
                                config_.kernel, spec_.precision);
    double max_rel = 0.0;
    for (std::size_t b = 0; b < host.size(); ++b) {
      const double rel = std::abs(dev.scores[b] - host[b]) /
                         std::max(std::abs(host[b]), 1e-300);
      max_rel = std::max(max_rel, rel);
    }
    const std::size_t host_argmin = first_argmin(host);
    const std::size_t dev_argmin = first_argmin(dev.scores);
    result.note("host_check",
                "{\"dataset\": " + std::to_string(d) +
                    ", \"score_rtol\": " + json_number(spec_.score_rtol) +
                    ", \"max_rel_diff\": " + json_number(max_rel) +
                    ", \"host_argmin\": " + std::to_string(host_argmin) +
                    ", \"device_argmin\": " + std::to_string(dev_argmin) +
                    "}");
    if (host_argmin != dev_argmin ||
        dev.bandwidth != in_.grids[d][host_argmin]) {
      result.fail("dataset " + std::to_string(d) + ": device argmin " +
                  std::to_string(dev_argmin) + " != host argmin " +
                  std::to_string(host_argmin));
    }
    if (!(max_rel <= spec_.score_rtol)) {
      result.fail("dataset " + std::to_string(d) +
                  ": device score off the host sweep by " +
                  json_number(max_rel) + " (relative)");
    }
  }

  std::size_t global_peak() const { return device_->global_peak(); }

 private:
  const BatchSpec& spec_;
  const Options& options_;
  Inputs in_;
  kreg::spmd::DeviceProperties props_;
  kreg::SpmdSelectorConfig config_;
  std::unique_ptr<kreg::spmd::Device> device_;
  std::vector<std::optional<kreg::SelectionResult>> refs_;
  std::uint64_t next_ = 0;
  bool corrupted_ = false;
};

void note_parameters(Result& result, const BatchSpec& spec,
                     const Options& options) {
  const std::size_t device_bytes =
      spec.device_bytes != 0
          ? spec.device_bytes
          : kreg::spmd::DeviceProperties::tesla_s10().global_memory_bytes;
  std::string record = "{\"name\": ";
  record += json_string(spec.name);
  record += ", \"seed\": " + std::to_string(options.seed);
  record += ", \"n\": " + std::to_string(spec.n);
  record += ", \"k\": " + std::to_string(spec.k);
  record += ", \"precision\": ";
  record += json_string(kreg::to_string(spec.precision));
  record += ", \"kernel\": \"epanechnikov\", \"datasets\": ";
  record += std::to_string(spec.datasets);
  record += ", \"grid\": ";
  if (spec.h_hi > 0.0) {
    record += '[';
    record += json_number(spec.h_lo);
    record += ", ";
    record += json_number(spec.h_hi);
    record += ']';
  } else {
    record += "\"paper default (domain/k .. domain)\"";
  }
  record += ", \"device_bytes\": " + std::to_string(device_bytes);
  record += ", \"selector\": \"SpmdGridSelector default config\"";
  record += ", \"clients\": 1, \"loop\": \"closed\"}";
  result.note("workload", std::move(record));
}

}  // namespace

bool is_batch_workload(std::string_view name) {
  for (const BatchSpec& spec : kSpecs) {
    if (name == spec.name) {
      return true;
    }
  }
  return false;
}

Result run_batch(const Options& options) {
  const BatchSpec& spec = find_spec(options.workload);
  Result result;
  BatchRun run(spec, options);
  if (options.dump_inputs) {
    dump_inputs(run.inputs());
    return result;
  }
  note_parameters(result, spec, options);

  if (!options.trace) {
    const std::vector<double> setup = run.set_up(spec.setup_reps);
    std::vector<Segment> segments;
    for (std::size_t s = 0; s < kSegments; ++s) {
      segments.push_back(
          run.closed_loop(options.seconds / kSegments, result, nullptr));
    }
    const double rss = peak_rss_mib(0);
    run.host_check(result);
    report_segments(result, segments, Tail::kPerSegment);
    result.metric("peak_rss_mb", rss, "MiB", 1);
    result.metric("setup_s", median(setup), "s", setup.size());
    report_verified_ratio(result);
    return result;
  }

  // Traced run: an untraced half and a traced half of the same loop, then
  // the standalone per-layer calls on every dataset.
  (void)run.set_up(1);
  const Loop plain = run.closed_loop(options.seconds / 2, result, nullptr);
  Tracer tracer;
  const Loop traced = run.closed_loop(options.seconds / 2, result, &tracer);
  run.host_check(result);

  LayerSamples layers;
  layers.select_ms = traced.latency_ms;
  layers.launches = traced.launches;
  layers.global_peak_bytes = run.global_peak();
  layers.cpu_util = traced.cpu_s / (traced.wall_s * static_cast<double>(
                                                         cpu_count()));
  for (std::size_t d = 0; d < run.inputs().data.size(); ++d) {
    probe_layers(run.inputs().data[d], run.inputs().grids[d], spec.precision,
                 tracer, 1'000'000 + d, layers);
  }
  report_layers(result, layers);
  report_no_serve_layers(result, "batch workload: no serving layer runs");

  const double plain_rate =
      static_cast<double>(plain.latency_ms.size()) / plain.wall_s;
  const double traced_rate =
      static_cast<double>(traced.latency_ms.size()) / traced.wall_s;
  result.metric("trace.untraced_selections_per_s", plain_rate, "1/s",
                plain.latency_ms.size());
  result.metric("trace.traced_selections_per_s", traced_rate, "1/s",
                traced.latency_ms.size());
  result.metric("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
                "%", traced.latency_ms.size());
  const std::string spans = options.run_dir + "/spans-" + spec.name + "-" +
                            std::to_string(options.seed) + ".json";
  if (!tracer.write(spans)) {
    throw std::runtime_error("cannot write " + spans);
  }
  result.note("spans", "{\"file\": " + json_string(spans) +
                           ", \"count\": " + std::to_string(tracer.size()) +
                           "}");
  return result;
}

}  // namespace perfbench
