#include "layers.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "core/batched_sweep.hpp"
#include "core/spmd_selector.hpp"
#include "core/window_sweep.hpp"

namespace perfbench {

namespace {

template <class Scalar>
void probe_typed(const kreg::data::Dataset& data,
                 const kreg::BandwidthGrid& grid, kreg::Precision precision,
                 Tracer& tracer, std::uint64_t request, LayerSamples& out) {
  const std::size_t n = data.size();
  const auto h_max = static_cast<Scalar>(grid.max());

  std::uint32_t span = tracer.begin("sort.sort_dataset", 0, request);
  auto t0 = Clock::now();
  const kreg::SortedDataset<Scalar> sorted =
      kreg::sort_dataset<Scalar>(data.x, data.y);
  auto t1 = Clock::now();
  tracer.end(span);
  out.sort_ms.push_back(ms_between(t0, t1));

  // σ-prep exactly as the selector stages a lane-batched launch: windows
  // at h_max, then the position-length order in launch-block scopes.
  span = tracer.begin("core.sigma_prep", 0, request);
  t0 = Clock::now();
  const kreg::AdmissionWindows windows =
      kreg::admission_windows<Scalar>(sorted.x, h_max);
  const std::vector<std::uint32_t> order = kreg::sigma_batch_order(
      windows.length, windows.lo, 0, n,
      kreg::SpmdSelectorConfig{}.threads_per_block,
      kreg::SigmaPolicy::kPositionLength,
      kreg::sigma_position_bucket(sizeof(Scalar)));
  t1 = Clock::now();
  tracer.end(span);
  out.sigma_prep_ms.push_back(ms_between(t0, t1));
  if (order.size() != n) {
    throw std::runtime_error("sigma_batch_order returned a short order");
  }

  const std::vector<std::size_t> lengths =
      kreg::admission_window_lengths<Scalar>(sorted.x, h_max);
  out.admissions.push_back(static_cast<double>(
      std::accumulate(lengths.begin(), lengths.end(), std::size_t{0})));
  out.recombinations.push_back(static_cast<double>(n * grid.size()));
  out.scalar_bytes = sizeof(Scalar);

  span = tracer.begin("core.host_sweep", 0, request);
  t0 = Clock::now();
  const std::vector<double> profile = kreg::window_cv_profile_batched(
      data, grid.values(), kreg::KernelType::kEpanechnikov, precision);
  t1 = Clock::now();
  tracer.end(span);
  out.host_sweep_ms.push_back(ms_between(t0, t1));
  if (profile.size() != grid.size()) {
    throw std::runtime_error("window_cv_profile_batched: short profile");
  }
}

double median_of(const std::vector<kreg::spmd::LaunchStats>& launches,
                 std::size_t kreg::spmd::LaunchStats::*field) {
  std::vector<double> values;
  values.reserve(launches.size());
  for (const auto& stats : launches) {
    values.push_back(static_cast<double>(stats.*field));
  }
  return median(std::move(values));
}

}  // namespace

void probe_layers(const kreg::data::Dataset& data,
                  const kreg::BandwidthGrid& grid, kreg::Precision precision,
                  Tracer& tracer, std::uint64_t request, LayerSamples& out) {
  if (precision == kreg::Precision::kFloat) {
    probe_typed<float>(data, grid, precision, tracer, request, out);
  } else {
    probe_typed<double>(data, grid, precision, tracer, request, out);
  }
}

void report_layers(Result& result, const LayerSamples& s) {
  using kreg::spmd::LaunchStats;
  const std::size_t probes = s.sort_ms.size();
  const std::size_t selects = s.select_ms.size();
  const double admissions = median(s.admissions);
  const double recombinations = median(s.recombinations);
  const double select_s = median(s.select_ms) / 1e3;
  // Computed, not measured: two scalars (x and y) read per admission and
  // one residual written per recombination.
  const double bytes = (2.0 * admissions + recombinations) *
                       static_cast<double>(s.scalar_bytes);

  result.metric("sort.sort_ms", median(s.sort_ms), "ms", probes);
  result.metric("core.sigma_prep_ms", median(s.sigma_prep_ms), "ms", probes);
  result.metric("core.admissions", admissions, "count", probes);
  result.metric("core.recombinations", recombinations, "count", probes);
  result.metric("core.elements_per_s",
                select_s > 0.0 ? (admissions + recombinations) / select_s
                               : 0.0,
                "1/s", selects);
  result.metric("core.bytes_computed", bytes, "B", probes);
  result.metric("core.est_gbps", select_s > 0.0 ? bytes / select_s / 1e9 : 0.0,
                "GB/s", selects);
  result.metric("core.host_sweep_ms", median(s.host_sweep_ms), "ms", probes);
  result.metric("spmd.select_ms", median(s.select_ms), "ms", selects);
  result.metric("spmd.kernel_launches",
                median_of(s.launches, &LaunchStats::kernel_launches), "count",
                s.launches.size());
  result.metric("spmd.cooperative_launches",
                median_of(s.launches, &LaunchStats::cooperative_launches),
                "count", s.launches.size());
  result.metric("spmd.lane_dispatches",
                median_of(s.launches, &LaunchStats::lane_dispatches), "count",
                s.launches.size());
  result.metric("spmd.threads_executed",
                median_of(s.launches, &LaunchStats::threads_executed), "count",
                s.launches.size());
  result.metric("spmd.global_peak_bytes",
                static_cast<double>(s.global_peak_bytes), "B", 1);
  result.metric("parallel.cpu_util", s.cpu_util, "ratio", 1);
}

void report_no_serve_layers(Result& result, const char* why) {
  static const char* const kServeMetrics[][2] = {
      {"serve.scheduler.jobs_per_wave", "jobs/wave"},
      {"serve.scheduler.launches_per_miss", "launches/miss"},
      {"serve.scheduler.co_scheduled", "count"},
      {"serve.scheduler.coalesced", "count"},
      {"serve.scheduler.deferrals", "count"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.evictions", "count"},
      {"serve.server.cpu_util", "ratio"},
      {"serve.protocol.parse_us", "us"},
      {"serve.context.build_us", "us"},
      {"serve.scheduler.wait_p50_ms", "ms"},
      {"serve.scheduler.wait_p99_ms", "ms"},
      {"serve.protocol.format_us", "us"},
      {"serve.cache.key_us", "us"},
      {"core.job.run_ms", "ms"},
      {"serve.scheduler.queue_ms", "ms"},
  };
  for (const auto& [name, unit] : kServeMetrics) {
    result.not_applicable(name, unit, why);
  }
}

}  // namespace perfbench
