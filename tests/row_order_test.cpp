// Row-order invariance: the one global sort orders rows with equal X by Y,
// so a sample with tied X gives the same profile bits in every row order,
// on every backend. X is rounded to 0.01 (about n / 100 rows share each
// value) at n = 5,000, sorted inline, and at an n above the sort's grain,
// sorted in parts on the global pool.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "core/kreg.hpp"
#include "rng/stream.hpp"
#include "sort/argsort.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::EstimatorKind;
using kreg::JobBackend;
using kreg::Precision;
using kreg::SelectionJob;
using kreg::data::Dataset;

Dataset tied_sample(std::size_t n) {
  kreg::rng::Stream stream(900 + n);
  Dataset data = kreg::data::paper_dgp(n, stream);
  for (double& x : data.x) {
    x = std::round(x * 100.0) / 100.0;
  }
  return data;
}

// The identity, the reversal and a stride coprime with n.
std::vector<Dataset> row_orders(const Dataset& data) {
  const std::size_t n = data.size();
  std::vector<std::size_t> reversed(n);
  std::vector<std::size_t> strided(n);
  for (std::size_t i = 0; i < n; ++i) {
    reversed[i] = n - 1 - i;
    strided[i] = (i * 7919) % n;  // 7919 is prime and divides no n here
  }
  return {data, kreg::data::permute(data, reversed),
          kreg::data::permute(data, strided)};
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t b = 0; b < want.size(); ++b) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[b]),
              std::bit_cast<std::uint64_t>(want[b]))
        << what << " b=" << b << ": " << got[b] << " vs " << want[b];
  }
}

// The estimator's profile straight from its sequential and tiled entry
// points, then through run_job on the host, tiled, resident device and
// streamed device backends.
std::vector<std::pair<std::string, std::vector<double>>> every_backend(
    SelectionJob job, kreg::spmd::Device& device) {
  const Dataset& data = *job.data;
  std::vector<std::pair<std::string, std::vector<double>>> out;
  switch (job.estimator) {
    case EstimatorKind::kNadarayaWatson:
      out.emplace_back("sequential",
                       kreg::window_cv_profile(data, job.bandwidth_grid,
                                               job.kernel, job.precision));
      out.emplace_back("tiled", kreg::window_cv_profile_tiled(
                                    data, job.bandwidth_grid, job.kernel,
                                    job.precision));
      break;
    case EstimatorKind::kKnn:
      out.emplace_back("sequential",
                       kreg::knn_cv_profile(data, job.neighbor_grid,
                                            job.precision));
      out.emplace_back("tiled", kreg::knn_cv_profile_tiled(
                                    data, job.neighbor_grid, job.precision));
      break;
    case EstimatorKind::kOscv:
      out.emplace_back("sequential",
                       kreg::oscv_profile(data, job.bandwidth_grid, job.kernel,
                                          job.precision));
      out.emplace_back("tiled", kreg::oscv_profile_tiled(
                                    data, job.bandwidth_grid, job.kernel,
                                    job.precision));
      break;
  }
  const kreg::JobContext ctx{&device, nullptr};
  job.backend = JobBackend::kHostSweep;
  out.emplace_back("run_job host", kreg::run_job(job, ctx).scores);
  job.backend = JobBackend::kHostTiled;
  out.emplace_back("run_job tiled", kreg::run_job(job, ctx).scores);
  job.backend = JobBackend::kDevice;
  out.emplace_back("run_job device resident", kreg::run_job(job, ctx).scores);
  job.stream.n_block = data.size() / 3 + 1;
  job.stream.k_block = 3;
  out.emplace_back("run_job device streamed", kreg::run_job(job, ctx).scores);
  return out;
}

void expect_row_order_invariant(std::size_t n, double h_max,
                                std::vector<std::size_t> counts) {
  const std::vector<Dataset> orders = row_orders(tied_sample(n));
  kreg::spmd::Device device;
  std::vector<SelectionJob> jobs;
  SelectionJob job;
  job.bandwidth_grid = kreg::BandwidthGrid(0.002, h_max, 7).values();
  for (const Precision precision : {Precision::kDouble, Precision::kFloat}) {
    job.precision = precision;
    jobs.push_back(job);
  }
  job.precision = Precision::kDouble;
  job.estimator = EstimatorKind::kOscv;
  jobs.push_back(job);
  job.estimator = EstimatorKind::kKnn;
  job.bandwidth_grid.clear();
  job.neighbor_grid = std::move(counts);
  jobs.push_back(job);

  for (SelectionJob& estimator_job : jobs) {
    const std::string name =
        std::string(kreg::to_string(estimator_job.estimator)) + " " +
        std::string(kreg::to_string(estimator_job.precision)) +
        " n=" + std::to_string(n);
    std::vector<double> want;
    for (std::size_t order = 0; order < orders.size(); ++order) {
      estimator_job.data = std::make_shared<const Dataset>(orders[order]);
      for (const auto& [backend, profile] :
           every_backend(estimator_job, device)) {
        if (want.empty()) {
          want = profile;
          continue;
        }
        expect_same_bits(profile, want,
                         name + " order " + std::to_string(order) + " " +
                             backend);
      }
    }
  }
}

// Windows that reach the neighbouring X values on either side.
TEST(RowOrder, TiedSampleInline) {
  expect_row_order_invariant(5000, 0.03, {1, 7, 60, 200, 250});
}

// Windows narrower than the X spacing admit exactly each row's ties, the
// rows whose order the sort fixes; this keeps the larger n cheap.
TEST(RowOrder, TiedSampleAboveTheGrain) {
  expect_row_order_invariant(kreg::sort::kRadixGrain + 4999, 0.008,
                             {1, 7, 60, 200});
}

}  // namespace
