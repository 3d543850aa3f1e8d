#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/selectors.hpp"
#include "core/streaming.hpp"
#include "core/window_sweep.hpp"
#include "data/dataset.hpp"
#include "parallel/thread_pool.hpp"
#include "spmd/device.hpp"

namespace kreg {

/// Which execution substrate a SelectionJob runs on. Every backend here is
/// *schedule-invariant*: its profile does not depend on the executing
/// thread pool's size or on what else runs concurrently, which is the
/// property the serving layer's bitwise cache/replay contract rests on.
/// (The slice-parallel host profiles are deliberately absent — their slice
/// boundaries follow the pool size, so two pools could disagree in the
/// last bits.)
enum class JobBackend {
  /// Sequential host window sweep (window_cv_profile and friends).
  kHostSweep,
  /// Cache-blocked host sweep (window_cv_profile_tiled): tiles combine in
  /// tile order with fixed auto tile sizes, so the profile is identical
  /// for every pool size — including 1.
  kHostTiled,
  /// The SPMD device sweep, with the streaming knobs honored.
  kDevice,
};
std::string_view to_string(JobBackend backend) noexcept;

/// Parses "host" / "tiled" / "device" (the serve protocol's backend=
/// values). Throws std::invalid_argument on anything else.
JobBackend parse_job_backend(std::string_view text);

/// A submittable bandwidth-selection plan: everything a scheduler needs to
/// run one grid selection, with no live resources attached — the dataset
/// rides behind a shared handle, and the executing device/pool arrive at
/// run time (JobContext). This is the refactored entry point of the
/// selector family: `run_job` routes one SelectionJob through the same
/// window-sweep machinery the Selector classes call, so a job executed
/// directly and a job executed by the serve scheduler produce bitwise
/// identical profiles.
struct SelectionJob {
  std::shared_ptr<const data::Dataset> data;
  EstimatorKind estimator = EstimatorKind::kNadarayaWatson;
  KernelType kernel = KernelType::kEpanechnikov;
  Precision precision = Precision::kDouble;
  /// Candidate bandwidths (NW) or one-sided bandwidths (OSCV), strictly
  /// ascending and positive. Ignored for kKnn.
  std::vector<double> bandwidth_grid;
  /// Candidate neighbour counts (kKnn), strictly increasing in [1, n-1].
  /// Ignored for the bandwidth estimators.
  std::vector<std::size_t> neighbor_grid;
  JobBackend backend = JobBackend::kDevice;
  /// Streaming knobs for the device backend. The scheduler may
  /// tighten memory_budget_bytes to the job's admission share; every plan
  /// the budget induces is bitwise identical, so the tightening is
  /// invisible in the profile.
  StreamingConfig stream;
  /// Host tiling for kHostTiled (0 = auto; auto sizes are fixed
  /// constants, not pool-derived, so the default stays deterministic).
  HostTiling tiling;

  /// Grid length for this job's estimator.
  std::size_t grid_size() const noexcept {
    return estimator == EstimatorKind::kKnn ? neighbor_grid.size()
                                            : bandwidth_grid.size();
  }
};

/// The unified outcome of running a SelectionJob: the whole CV profile
/// plus the deterministic argmin. For kKnn the grid holds the neighbour
/// counts converted exactly to double; `selected` is the chosen h (NW),
/// the rescaled two-sided ĥ = C·b̂ (OSCV), or the chosen count (kKnn).
struct SelectionProfile {
  EstimatorKind estimator = EstimatorKind::kNadarayaWatson;
  std::vector<double> grid;
  std::vector<double> scores;
  std::size_t argmin = 0;
  double selected = 0.0;
  double cv_score = 0.0;
  std::string method;
};

/// Structural validation of a job: dataset handle present, dataset valid,
/// the estimator's grid present/valid (strictly ascending; neighbour
/// counts within [1, n-1]), the other estimator's grid absent, and the
/// kernel sweepable for the bandwidth estimators. Throws
/// std::invalid_argument naming the offending field.
void validate_job(const SelectionJob& job);

/// Live resources a job executes against.
struct JobContext {
  /// Required for JobBackend::kDevice; ignored otherwise.
  spmd::Device* device = nullptr;
  /// Worker pool for the tiled host backend (nullptr = global). Affects
  /// only scheduling, never the profile bits.
  parallel::ThreadPool* pool = nullptr;
};

/// Executes one job to completion on the calling thread and returns its
/// profile. This is the reference path the serve scheduler is
/// differential-tested against: for any fixed job, run_job returns the
/// same bits on every call, on every pool, under every memory budget.
SelectionProfile run_job(const SelectionJob& job, const JobContext& ctx);

/// The method string run_job stamps on this job's profile
/// ("job:<estimator>:<backend>:<kernel>:<precision>"). Exposed so the serve
/// layer can restamp a cache-served profile for the *requesting* job — the
/// numeric payload is backend-invariant bitwise, but the method string
/// names the backend the requester asked for, not the one that populated
/// the cache.
std::string job_method(const SelectionJob& job);

/// Builds the profile struct from a computed score vector: argmin with
/// smallest-index tie-break, estimator-specific `selected` (NW:
/// grid[argmin]; OSCV: rescale_constant·grid[argmin]; kKnn: the count).
SelectionProfile profile_from_scores(const SelectionJob& job,
                                     std::vector<double> scores,
                                     std::string method);

/// Modeled device-memory footprint of the job's k-block streaming plan
/// holding `k_block` grid entries resident (k_block = 0: the k-independent
/// base that resolve_streaming sizes blocks against). Routes to the
/// estimator's own byte model (SpmdGridSelector::estimated_streamed_bytes,
/// knn_estimated_streamed_bytes, oscv_estimated_streamed_bytes); the serve
/// scheduler's admission control reserves these bytes before dispatch.
std::size_t job_streamed_bytes(const SelectionJob& job, std::size_t k_block);

}  // namespace kreg
