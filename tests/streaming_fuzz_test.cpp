// Differential fuzzing for the 2-D (n-block × k-block) streamed window
// sweeps: every iteration draws a random problem (n, k, precision, layout)
// and a random tiling (n_block, k_block, budget) from a seeded stream, then
// demands
//   * bitwise agreement between the streamed and resident device profiles
//     (scores, best bandwidth, CV at the argmin),
//   * tolerance agreement with the sequential host profile and the
//     cache-blocked host mirror,
// for both the regression CV sweep and the KDE LSCV sweep.
//
// The default iteration count keeps ctest fast; set KREG_FUZZ_ITERS for a
// soak run (e.g. KREG_FUZZ_ITERS=500 ./streaming_fuzz_test). The seed is
// fixed so a CI failure reproduces locally; every failure message carries
// the iteration's full parameter draw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/grid.hpp"
#include "core/knn_sweep.hpp"
#include "core/loocv.hpp"
#include "core/multi_device_selector.hpp"
#include "core/oscv_sweep.hpp"
#include "core/spmd_kde.hpp"
#include "core/spmd_selector.hpp"
#include "core/window_sweep.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::HostTiling;
using kreg::KernelType;
using kreg::MultiDeviceGridSelector;
using kreg::Precision;
using kreg::ResidualLayout;
using kreg::SelectionResult;
using kreg::SpmdGridSelector;
using kreg::SpmdKdeConfig;
using kreg::SpmdKdeSelector;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::Device;

std::size_t fuzz_iterations(std::size_t default_iters) {
  const char* env = std::getenv("KREG_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') {
    return default_iters;
  }
  const unsigned long parsed = std::strtoul(env, nullptr, 10);
  return parsed == 0 ? default_iters : static_cast<std::size_t>(parsed);
}

// Uniform integer in [lo, hi] from the repo's own stream (the fuzzer must
// not depend on libc rand state).
std::size_t draw(Stream& s, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(s.uniform() *
                                       static_cast<double>(hi - lo + 1)) %
                  (hi - lo + 1);
}

struct FuzzDraw {
  std::size_t n;
  std::size_t k;
  std::size_t n_block;
  std::size_t k_block;
  Precision precision;
  ResidualLayout layout;
  std::size_t budget;  // 0 = no budget knob this round
  std::size_t lane_width;

  std::string describe() const {
    std::ostringstream os;
    os << "n=" << n << " k=" << k << " n_block=" << n_block
       << " k_block=" << k_block
       << " precision=" << (precision == Precision::kFloat ? "float" : "double")
       << " layout="
       << (layout == ResidualLayout::kObservationMajor ? "obs-major"
                                                       : "bw-major")
       << " budget=" << budget << " lanes=" << lane_width;
    return os.str();
  }
};

FuzzDraw draw_problem(Stream& s) {
  FuzzDraw d;
  d.n = draw(s, 2, 400);
  d.k = draw(s, 1, 40);
  // Deliberately include degenerate blocks: 1, > n, > k.
  d.n_block = draw(s, 1, d.n + 16);
  d.k_block = draw(s, 1, d.k + 8);
  d.precision = s.uniform() < 0.5 ? Precision::kFloat : Precision::kDouble;
  d.layout = s.uniform() < 0.5 ? ResidualLayout::kObservationMajor
                               : ResidualLayout::kBandwidthMajor;
  d.budget = 0;
  // The lane batch and the scalar kernels must give the same bits: lane
  // batching is pure scheduling.
  d.lane_width = s.uniform() < 0.5 ? 1 : kreg::kLaneWidth;
  return d;
}

void expect_bitwise(const SelectionResult& streamed,
                    const SelectionResult& resident, const std::string& what) {
  EXPECT_DOUBLE_EQ(streamed.bandwidth, resident.bandwidth) << what;
  EXPECT_DOUBLE_EQ(streamed.cv_score, resident.cv_score) << what;
  ASSERT_EQ(streamed.scores.size(), resident.scores.size()) << what;
  for (std::size_t b = 0; b < resident.scores.size(); ++b) {
    EXPECT_DOUBLE_EQ(streamed.scores[b], resident.scores[b])
        << what << " b=" << b;
  }
}

TEST(StreamingFuzz, RegressionStreamedResidentHostAgree) {
  Stream s(0x5eed5eedULL);
  const std::size_t iters = fuzz_iterations(12);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const FuzzDraw fz = draw_problem(s);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " " + fz.describe());

    Stream data_stream(s.uniform() * 1e9);
    const Dataset data = kreg::data::paper_dgp(fz.n, data_stream);
    const BandwidthGrid grid = BandwidthGrid::default_for(data, fz.k);

    SpmdSelectorConfig base;
    base.precision = fz.precision;
    base.layout = fz.layout;
    base.stream.auto_tune = false;  // resident reference
    Device ref;
    const SelectionResult resident =
        SpmdGridSelector(ref, base).select(data, grid);

    SpmdSelectorConfig cfg = base;
    cfg.stream.n_block = fz.n_block;
    cfg.stream.k_block = fz.k_block;
    cfg.lane_width = fz.lane_width;
    Device dev;
    const SelectionResult streamed =
        SpmdGridSelector(dev, cfg).select(data, grid);
    expect_bitwise(streamed, resident, "streamed-vs-resident");

    // Host cross-checks are tolerance-based: the device reduction tree and
    // the sequential host fold group the same addends differently.
    const std::vector<double> host = kreg::window_cv_profile(
        data, grid.values(), cfg.kernel, fz.precision);
    const std::vector<double> tiled = kreg::window_cv_profile_tiled(
        data, grid.values(), cfg.kernel, fz.precision,
        HostTiling{fz.n_block, fz.k_block});
    const double tol = fz.precision == Precision::kFloat ? 1e-3 : 1e-9;
    for (std::size_t b = 0; b < grid.size(); ++b) {
      const double scale = std::max(1.0, std::abs(host[b]));
      EXPECT_NEAR(streamed.scores[b], host[b], tol * scale) << "host b=" << b;
      EXPECT_NEAR(tiled[b], host[b], tol * scale) << "tiled b=" << b;
    }
  }
}

TEST(StreamingFuzz, RegressionBudgetDrivenPlansStayUnderBudgetAndAgree) {
  Stream s(0xbadb0d9eULL);
  const std::size_t iters = fuzz_iterations(6);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t n = draw(s, 50, 600);
    const std::size_t k = draw(s, 4, 32);
    Stream data_stream(s.uniform() * 1e9);
    const Dataset data = kreg::data::paper_dgp(n, data_stream);
    const BandwidthGrid grid = BandwidthGrid::default_for(data, k);
    // A budget between the minimal tile and the resident plan: the resolver
    // must pick some (n_block, k_block) and the ledger must respect it.
    const std::size_t resident_bytes = SpmdGridSelector::estimated_bytes(
        n, k, Precision::kDouble, false, kreg::SweepAlgorithm::kWindow);
    const std::size_t budget =
        resident_bytes / draw(s, 2, 6) + 64 * 1024;
    SCOPED_TRACE("iter=" + std::to_string(iter) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) +
                 " budget=" + std::to_string(budget));

    SpmdSelectorConfig cfg;
    cfg.precision = Precision::kDouble;
    cfg.stream.memory_budget_bytes = budget;
    Device dev;
    const SelectionResult streamed =
        SpmdGridSelector(dev, cfg).select(data, grid);
    EXPECT_LE(dev.global_peak(), budget);

    SpmdSelectorConfig base;
    base.precision = Precision::kDouble;
    base.stream.auto_tune = false;
    Device ref;
    expect_bitwise(streamed, SpmdGridSelector(ref, base).select(data, grid),
                   "budget-vs-resident");
  }
}

TEST(StreamingFuzz, KdeStreamedResidentAgree) {
  Stream s(0x4de4de4dULL);
  const std::size_t iters = fuzz_iterations(10);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t n = draw(s, 3, 300);
    const std::size_t k = draw(s, 1, 30);
    const std::size_t n_block = draw(s, 1, n + 16);
    const std::size_t k_block = draw(s, 1, k + 8);
    const KernelType kernel =
        s.uniform() < 0.5 ? KernelType::kEpanechnikov : KernelType::kUniform;
    SCOPED_TRACE("iter=" + std::to_string(iter) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) +
                 " n_block=" + std::to_string(n_block) +
                 " k_block=" + std::to_string(k_block) + " kernel=" +
                 std::string(kreg::to_string(kernel)));

    Stream data_stream(s.uniform() * 1e9);
    std::vector<double> xs(n);
    for (auto& x : xs) {
      x = data_stream.uniform() < 0.5 ? data_stream.gaussian(-1.0, 0.4)
                                      : data_stream.gaussian(1.0, 0.6);
    }
    const BandwidthGrid grid(0.05, 1.5, k);

    SpmdKdeConfig base;
    base.kernel = kernel;
    base.stream.auto_tune = false;
    Device ref;
    const SelectionResult resident =
        SpmdKdeSelector(ref, base).select(xs, grid);

    SpmdKdeConfig cfg = base;
    cfg.stream.n_block = n_block;
    cfg.stream.k_block = k_block;
    Device dev;
    expect_bitwise(SpmdKdeSelector(dev, cfg).select(xs, grid), resident,
                   "kde streamed-vs-resident");
  }
}

// Estimator-family fuzz: each iteration draws an estimator — NW LOOCV,
// k-NN fast LOOCV, or OSCV — with a random grid, precision, and k-block
// plan, then demands the family's own agreement contract: fast-vs-naive
// bitwise for k-NN and OSCV (their per-(i, grid-entry) terms accumulate in
// an identical order everywhere), streamed-vs-resident bitwise on the
// device, and tolerance agreement for NW against the direct objective
// (whose summation order legitimately differs).
TEST(StreamingFuzz, EstimatorFamiliesAgreeAcrossBackends) {
  Stream s(0x0e571fa7ULL);
  const std::size_t iters = fuzz_iterations(9);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t estimator = draw(s, 0, 2);
    const std::size_t n = draw(s, 8, 250);
    const Precision precision =
        s.uniform() < 0.5 ? Precision::kFloat : Precision::kDouble;
    const std::size_t k_block = draw(s, 1, 12);
    Stream data_stream(s.uniform() * 1e9);
    const Dataset data = kreg::data::paper_dgp(n, data_stream);
    SCOPED_TRACE("iter=" + std::to_string(iter) + " estimator=" +
                 (estimator == 0   ? "nw"
                  : estimator == 1 ? "knn"
                                   : "oscv") +
                 " n=" + std::to_string(n) + " k_block=" +
                 std::to_string(k_block) + " precision=" +
                 (precision == Precision::kFloat ? "float" : "double"));
    Device dev;

    if (estimator == 0) {
      const std::size_t k = draw(s, 1, 24);
      const BandwidthGrid grid = BandwidthGrid::default_for(data, k);
      const std::vector<double> fast = kreg::window_cv_profile(
          data, grid.values(), KernelType::kEpanechnikov, precision);
      const double tol = precision == Precision::kFloat ? 1e-3 : 1e-9;
      for (std::size_t b = 0; b < grid.size(); ++b) {
        const double direct = kreg::cv_score(data, grid[b]);
        EXPECT_NEAR(fast[b], direct, tol * std::max(1.0, std::abs(direct)))
            << "b=" << b;
      }
      continue;
    }

    if (estimator == 1) {
      // Random strictly increasing neighbour grid within [1, n - 1].
      std::vector<std::size_t> kgrid;
      const std::size_t entries = draw(s, 1, 10);
      std::size_t kv = 0;
      for (std::size_t e = 0; e < entries && kv < n - 1; ++e) {
        kv += draw(s, 1, std::max<std::size_t>(1, (n - 1) / entries));
        kgrid.push_back(std::min(kv, n - 1));
      }
      const std::vector<double> fast =
          kreg::knn_cv_profile(data, kgrid, precision);
      const std::vector<double> naive =
          kreg::knn_cv_profile_naive(data, kgrid, precision);
      ASSERT_EQ(fast.size(), naive.size());
      for (std::size_t b = 0; b < naive.size(); ++b) {
        EXPECT_DOUBLE_EQ(fast[b], naive[b]) << "knn fast-vs-naive b=" << b;
      }
      kreg::KnnDeviceConfig cfg;
      cfg.precision = precision;
      cfg.stream.k_block = k_block;
      const std::vector<double> streamed =
          kreg::knn_cv_profile_device(dev, data, kgrid, cfg);
      for (std::size_t b = 0; b < naive.size(); ++b) {
        EXPECT_DOUBLE_EQ(streamed[b], naive[b]) << "knn streamed b=" << b;
      }
      continue;
    }

    const KernelType kernel =
        s.uniform() < 0.5 ? KernelType::kEpanechnikov : KernelType::kUniform;
    const std::size_t k = draw(s, 1, 20);
    const BandwidthGrid grid = BandwidthGrid::default_for(data, k);
    const std::vector<double> fast =
        kreg::oscv_profile(data, grid.values(), kernel, precision);
    const std::vector<double> naive =
        kreg::oscv_profile_naive(data, grid.values(), kernel, precision);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t b = 0; b < naive.size(); ++b) {
      EXPECT_DOUBLE_EQ(fast[b], naive[b]) << "oscv fast-vs-naive b=" << b;
    }
    kreg::OscvDeviceConfig cfg;
    cfg.precision = precision;
    cfg.stream.k_block = k_block;
    const std::vector<double> streamed =
        kreg::oscv_profile_device(dev, data, grid.values(), kernel, cfg);
    for (std::size_t b = 0; b < naive.size(); ++b) {
      EXPECT_DOUBLE_EQ(streamed[b], naive[b]) << "oscv streamed b=" << b;
    }
  }
}

TEST(StreamingFuzz, MultiDeviceShardsAgreeWithResident) {
  Stream s(0x3d3d3d3dULL);
  const std::size_t iters = fuzz_iterations(6);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    const std::size_t n = draw(s, 10, 500);
    const std::size_t k = draw(s, 2, 24);
    const std::size_t devices = draw(s, 2, 4);
    const std::size_t n_block = draw(s, 1, n + 16);
    const std::size_t k_block = draw(s, 1, k + 8);
    const Precision precision =
        s.uniform() < 0.5 ? Precision::kFloat : Precision::kDouble;
    SCOPED_TRACE("iter=" + std::to_string(iter) + " n=" + std::to_string(n) +
                 " k=" + std::to_string(k) +
                 " devices=" + std::to_string(devices) +
                 " n_block=" + std::to_string(n_block) +
                 " k_block=" + std::to_string(k_block));

    Stream data_stream(s.uniform() * 1e9);
    const Dataset data = kreg::data::paper_dgp(n, data_stream);
    const BandwidthGrid grid = BandwidthGrid::default_for(data, k);

    std::vector<Device> resident_pool(devices);
    std::vector<Device*> resident_ptrs;
    for (auto& d : resident_pool) {
      resident_ptrs.push_back(&d);
    }
    SpmdSelectorConfig base;
    base.precision = precision;
    base.stream.auto_tune = false;
    const SelectionResult resident =
        MultiDeviceGridSelector(resident_ptrs, base).select(data, grid);

    std::vector<Device> streamed_pool(devices);
    std::vector<Device*> streamed_ptrs;
    for (auto& d : streamed_pool) {
      streamed_ptrs.push_back(&d);
    }
    SpmdSelectorConfig cfg = base;
    cfg.stream.n_block = n_block;
    cfg.stream.k_block = k_block;
    expect_bitwise(
        MultiDeviceGridSelector(streamed_ptrs, cfg).select(data, grid),
        resident, "multi-device streamed-vs-resident");
  }
}

}  // namespace
