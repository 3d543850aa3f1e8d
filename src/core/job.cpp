#include "core/job.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/grid.hpp"
#include "core/knn_sweep.hpp"
#include "core/oscv_sweep.hpp"
#include "core/spmd_selector.hpp"
#include "core/validate_grid.hpp"

namespace kreg {

std::string_view to_string(JobBackend backend) noexcept {
  switch (backend) {
    case JobBackend::kHostSweep:
      return "host";
    case JobBackend::kHostTiled:
      return "tiled";
    case JobBackend::kDevice:
      return "device";
  }
  return "?";
}

JobBackend parse_job_backend(std::string_view text) {
  if (text == "host") {
    return JobBackend::kHostSweep;
  }
  if (text == "tiled") {
    return JobBackend::kHostTiled;
  }
  if (text == "device") {
    return JobBackend::kDevice;
  }
  throw std::invalid_argument("parse_job_backend: unknown backend '" +
                              std::string(text) +
                              "' (expected host, tiled, or device)");
}

void validate_job(const SelectionJob& job) {
  if (!job.data) {
    throw std::invalid_argument("SelectionJob: dataset handle is null");
  }
  job.data->validate();
  if (job.data->empty()) {
    throw std::invalid_argument("SelectionJob: dataset is empty");
  }
  if (job.estimator == EstimatorKind::kKnn) {
    if (!job.bandwidth_grid.empty()) {
      throw std::invalid_argument(
          "SelectionJob: bandwidth_grid set on a knn job (use neighbor_grid)");
    }
    validate_neighbor_grid(job.neighbor_grid, job.data->size(),
                           "SelectionJob");
  } else {
    if (!job.neighbor_grid.empty()) {
      throw std::invalid_argument(
          "SelectionJob: neighbor_grid set on a bandwidth job");
    }
    validate_bandwidth_grid(job.bandwidth_grid, "SelectionJob");
    if (!is_sweepable(job.kernel)) {
      throw std::invalid_argument("SelectionJob: kernel '" +
                                  std::string(to_string(job.kernel)) +
                                  "' is not supported by the window sweep");
    }
  }
}

SelectionProfile profile_from_scores(const SelectionJob& job,
                                     std::vector<double> scores,
                                     std::string method) {
  if (scores.size() != job.grid_size()) {
    throw std::invalid_argument(
        "profile_from_scores: profile/grid size mismatch");
  }
  SelectionProfile profile;
  profile.estimator = job.estimator;
  if (job.estimator == EstimatorKind::kKnn) {
    profile.grid.reserve(job.neighbor_grid.size());
    for (const std::size_t count : job.neighbor_grid) {
      profile.grid.push_back(static_cast<double>(count));
    }
  } else {
    profile.grid = job.bandwidth_grid;
  }
  profile.scores = std::move(scores);
  for (std::size_t i = 1; i < profile.scores.size(); ++i) {
    if (profile.scores[i] < profile.scores[profile.argmin]) {
      profile.argmin = i;
    }
  }
  profile.cv_score = profile.scores[profile.argmin];
  switch (job.estimator) {
    case EstimatorKind::kNadarayaWatson:
    case EstimatorKind::kKnn:
      profile.selected = profile.grid[profile.argmin];
      break;
    case EstimatorKind::kOscv:
      profile.selected =
          oscv_rescale_constant(job.kernel) * profile.grid[profile.argmin];
      break;
  }
  profile.method = std::move(method);
  return profile;
}

std::string job_method(const SelectionJob& job) {
  return std::string("job:") + std::string(to_string(job.estimator)) + ":" +
         std::string(to_string(job.backend)) + ":" +
         std::string(to_string(job.kernel)) + ":" +
         std::string(to_string(job.precision));
}

namespace {

spmd::Device& require_device(const JobContext& ctx) {
  if (ctx.device == nullptr) {
    throw std::invalid_argument(
        "run_job: device backend requested but JobContext carries no device");
  }
  return *ctx.device;
}

std::vector<double> run_nw(const SelectionJob& job, const JobContext& ctx) {
  switch (job.backend) {
    case JobBackend::kHostSweep:
      return window_cv_profile(*job.data, job.bandwidth_grid, job.kernel,
                               job.precision);
    case JobBackend::kHostTiled:
      return window_cv_profile_tiled(*job.data, job.bandwidth_grid, job.kernel,
                                     job.precision, job.tiling, ctx.pool);
    case JobBackend::kDevice: {
      SpmdSelectorConfig config;
      config.kernel = job.kernel;
      config.precision = job.precision;
      config.stream = job.stream;
      const SpmdGridSelector selector(require_device(ctx), config);
      SelectionResult result = selector.select(
          *job.data, BandwidthGrid::from_values(job.bandwidth_grid));
      return std::move(result.scores);
    }
  }
  throw std::invalid_argument("run_job: unknown backend");
}

std::vector<double> run_knn(const SelectionJob& job, const JobContext& ctx) {
  switch (job.backend) {
    case JobBackend::kHostSweep:
      return knn_cv_profile(*job.data, job.neighbor_grid, job.precision);
    case JobBackend::kHostTiled:
      return knn_cv_profile_tiled(*job.data, job.neighbor_grid, job.precision,
                                  job.tiling, ctx.pool);
    case JobBackend::kDevice: {
      KnnDeviceConfig config;
      config.precision = job.precision;
      config.stream = job.stream;
      return knn_cv_profile_device(require_device(ctx), *job.data,
                                   job.neighbor_grid, config);
    }
  }
  throw std::invalid_argument("run_job: unknown backend");
}

std::vector<double> run_oscv(const SelectionJob& job, const JobContext& ctx) {
  switch (job.backend) {
    case JobBackend::kHostSweep:
      return oscv_profile(*job.data, job.bandwidth_grid, job.kernel,
                          job.precision);
    case JobBackend::kHostTiled:
      return oscv_profile_tiled(*job.data, job.bandwidth_grid, job.kernel,
                                job.precision, job.tiling, ctx.pool);
    case JobBackend::kDevice: {
      OscvDeviceConfig config;
      config.precision = job.precision;
      config.stream = job.stream;
      return oscv_profile_device(require_device(ctx), *job.data,
                                 job.bandwidth_grid, job.kernel, config);
    }
  }
  throw std::invalid_argument("run_job: unknown backend");
}

}  // namespace

SelectionProfile run_job(const SelectionJob& job, const JobContext& ctx) {
  validate_job(job);
  std::vector<double> scores;
  switch (job.estimator) {
    case EstimatorKind::kNadarayaWatson:
      scores = run_nw(job, ctx);
      break;
    case EstimatorKind::kKnn:
      scores = run_knn(job, ctx);
      break;
    case EstimatorKind::kOscv:
      scores = run_oscv(job, ctx);
      break;
  }
  return profile_from_scores(job, std::move(scores), job_method(job));
}

std::size_t job_streamed_bytes(const SelectionJob& job, std::size_t k_block) {
  const std::size_t n = job.data ? job.data->size() : 0;
  switch (job.estimator) {
    case EstimatorKind::kNadarayaWatson:
      return SpmdGridSelector::estimated_streamed_bytes(n, k_block,
                                                        job.precision,
                                                        job.kernel);
    case EstimatorKind::kKnn:
      return knn_estimated_streamed_bytes(n, k_block, job.precision);
    case EstimatorKind::kOscv:
      return oscv_estimated_streamed_bytes(n, k_block, job.precision,
                                           job.kernel);
  }
  return 0;
}

}  // namespace kreg
