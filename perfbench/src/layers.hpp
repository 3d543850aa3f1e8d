// Per-layer measurements shared by the batch and serving workloads: the
// standalone calls into sort and core that a selection repeats internally,
// and the per-layer metric report built from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/grid.hpp"
#include "core/sorted_sweep.hpp"
#include "data/dataset.hpp"
#include "perfbench.hpp"
#include "spmd/device.hpp"

namespace perfbench {

/// What the per-layer report is built from.
struct LayerSamples {
  // One entry per standalone probe (probe_layers call).
  std::vector<double> sort_ms;
  std::vector<double> sigma_prep_ms;
  std::vector<double> host_sweep_ms;
  std::vector<double> admissions;
  std::vector<double> recombinations;
  std::size_t scalar_bytes = sizeof(double);
  // One entry per traced device selection.
  std::vector<double> select_ms;
  std::vector<kreg::spmd::LaunchStats> launches;
  std::size_t global_peak_bytes = 0;
  double cpu_util = 0.0;
};

/// Times, as standalone calls on `data` and `grid`, the steps a device
/// selection performs internally: the host sort (`sort_dataset`), σ-prep
/// (`admission_windows` + `sigma_batch_order` at h_max) and the batched host
/// sweep (`window_cv_profile_batched`), and counts the admissions at h_max.
/// Appends one entry to each probe vector of `out`; records one span per
/// step under request id `request`.
void probe_layers(const kreg::data::Dataset& data,
                  const kreg::BandwidthGrid& grid, kreg::Precision precision,
                  Tracer& tracer, std::uint64_t request, LayerSamples& out);

/// Reports the sort.*, core.* (except core.job.run_ms), spmd.* and
/// parallel.* metrics from `samples`.
void report_layers(Result& result, const LayerSamples& samples);

/// Reports the serve.* metrics and core.job.run_ms as not applicable.
void report_no_serve_layers(Result& result, const char* why);

}  // namespace perfbench
