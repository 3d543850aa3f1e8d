// Roofline-style bench for the batched window sweep: elements/s of the
// scalar tiled host sweep against the 8-lane batched kernels, for three
// kernels on two designs of X — the paper DGP (uniform X) and a clustered
// design from the bench-local generator below — with an estimated
// memory-bandwidth figure per cell so the vector speedup can be read
// against the streaming roofline. One "element" is one unit of sweep work:
// an admitted observation (one pass of the moment-sum m-loop) or one
// per-(observation, bandwidth) recombination — both counted exactly from
// the admission-window lengths, not sampled. Batched cells also report the
// contiguous-run rate (the fraction of phase-2 steps served by the
// block-load/transpose fast path instead of a gather). Cells land in
// BENCH_vector.json in the working directory, together with the machine:
// hardware threads, compiler, and whether the AVX-512 lane kernel ran.
//
//   KREG_BENCH_FULL=1     adds the n = 10⁶ rows (default stops at 10⁵)
//   KREG_BENCH_REPS=N     timing repetitions per cell (median)
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_util.hpp"
#include "core/detail/batched_lanes.hpp"
#include "core/kreg.hpp"

namespace {

struct Cell {
  std::size_t n;
  std::size_t k;
  const char* design;
  const char* kernel;
  std::size_t lane_width;  // 0 = the scalar reference sweep
  double contig_rate;      // fraction of phase-2 steps on the transpose path
  double seconds;
  double elements_per_s;
  double est_gbps;
  double speedup;  // vs the scalar reference at the same (n, design, kernel)
};

/// Clustered X: five tight normal clusters (sd 0.02) centred at 0.1, 0.3,
/// …, 0.9, with the paper DGP's mean function and noise. Windows at a
/// fixed h hold far more observations inside a cluster than between them,
/// so window lengths vary widely along the sorted array.
kreg::data::Dataset clustered_dgp(std::size_t n, kreg::rng::Stream& stream) {
  kreg::data::Dataset d;
  d.x.reserve(n);
  d.y.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double centre = 0.1 + 0.2 * static_cast<double>(stream.index(5));
    const double x = centre + stream.gaussian(0.0, 0.02);
    d.x.push_back(x);
    d.y.push_back(0.5 * x + 10.0 * x * x + stream.uniform(0.0, 0.5));
  }
  return d;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool avx512_lane_kernel() {
#if KREG_HAVE_BATCHED_AVX512
  return kreg::detail::avx512_lanes_available();
#else
  return false;
#endif
}

void write_json(const std::vector<Cell>& cells, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"vector_sweep\",\n"
               "  \"machine\": {\"hardware_threads\": %u, "
               "\"compiler\": \"%s\", \"avx512_lane_kernel\": %s},\n"
               "  \"cells\": [\n",
               std::thread::hardware_concurrency(), compiler(),
               avx512_lane_kernel() ? "true" : "false");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"k\": %zu, \"design\": \"%s\", "
                 "\"kernel\": \"%s\", \"lane_width\": %zu, "
                 "\"contig_rate\": %.4f, \"seconds\": %.6e, "
                 "\"elements_per_s\": %.6e, \"est_gbps\": %.3f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 c.n, c.k, c.design, c.kernel, c.lane_width, c.contig_rate,
                 c.seconds, c.elements_per_s, c.est_gbps, c.speedup,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, cells.size());
}

}  // namespace

int main() {
  using kreg::bench::Table;
  const std::size_t reps = kreg::bench::repetitions();
  const std::size_t k = 50;
  kreg::rng::Stream stream(2024);
  std::vector<Cell> cells;

  std::vector<std::size_t> sizes = {100000};
  if (kreg::bench::full_mode()) {
    sizes.push_back(1000000);
  }

  // Three kernels span the arithmetic-intensity axis of the roofline:
  // uniform (1-term recombination, purely gather-bound), Epanechnikov
  // (3-term, gather-bound) and triweight (7-term,
  // vector-arithmetic-bound — where lane batching pays most).
  const struct {
    kreg::KernelType type;
    const char* name;
  } kernels[] = {{kreg::KernelType::kUniform, "uniform"},
                 {kreg::KernelType::kEpanechnikov, "epanechnikov"},
                 {kreg::KernelType::kTriweight, "triweight"}};

  for (const std::size_t n : sizes) {
    for (const bool clustered : {false, true}) {
      const char* design = clustered ? "clustered" : "uniform";
      const kreg::data::Dataset data =
          clustered ? clustered_dgp(n, stream)
                    : kreg::data::paper_dgp(n, stream);
      // A narrow grid keeps the mean admission window at ~2% of the
      // uniform sample (≈ 2 h_max n for unit-range X), so the total sweep
      // work stays O(n · window), not O(n²), at every n on this axis.
      const double h_max = 0.01;
      const kreg::BandwidthGrid grid(h_max / static_cast<double>(k), h_max,
                                     k);

      // Exact element count: every observation admits exactly its window
      // length at h_max across the whole ascending grid (the two-pointer
      // sweep admits each element once), plus one recombination per
      // (observation, bandwidth).
      const auto sorted = kreg::sort_dataset<double>(data.x, data.y);
      const std::vector<std::size_t> lengths =
          kreg::admission_window_lengths<double>(
              std::span<const double>(sorted.x), h_max);
      const double admissions = static_cast<double>(
          std::accumulate(lengths.begin(), lengths.end(), std::size_t{0}));
      const double elements = admissions + static_cast<double>(n * k);
      // Streaming-traffic estimate: each admission reads x and y once;
      // each recombination writes one residual. Carried SoA state lives in
      // cache, so this is the compulsory-traffic floor the roofline
      // compares against.
      const double bytes = admissions * 2.0 * sizeof(double) +
                           static_cast<double>(n * k) * sizeof(double);

      for (const auto& kernel : kernels) {
        kreg::bench::banner(
            "VECTOR SWEEP — n = " + std::to_string(n) + ", k = " +
            std::to_string(k) + ", " + design + " X, " + kernel.name + ", " +
            std::to_string(static_cast<std::size_t>(admissions)) +
            " admissions");
        Table table(
            {"config", "time (s)", "Melem/s", "est GB/s", "contig", "speedup"},
            12);

        const double t_scalar = kreg::bench::time_median(
            [&] {
              (void)kreg::window_cv_profile_tiled(data, grid.values(),
                                                  kernel.type);
            },
            reps);
        table.add_row({"scalar", Table::fmt_seconds(t_scalar),
                       Table::fmt_double(elements / t_scalar / 1e6, 1),
                       Table::fmt_double(bytes / t_scalar / 1e9, 2), "-",
                       "1.0x"});
        cells.push_back({n, k, design, kernel.name, 0, 0.0, t_scalar,
                         elements / t_scalar, bytes / t_scalar / 1e9, 1.0});

        kreg::BatchRunStats stats;
        const double t = kreg::bench::time_median(
            [&] {
              stats = {};
              (void)kreg::window_cv_profile_batched(
                  data, grid.values(), kernel.type, kreg::Precision::kDouble,
                  {}, nullptr, &stats);
            },
            reps);
        table.add_row(
            {"C=" + std::to_string(kreg::kLaneWidth), Table::fmt_seconds(t),
             Table::fmt_double(elements / t / 1e6, 1),
             Table::fmt_double(bytes / t / 1e9, 2),
             Table::fmt_double(100.0 * stats.contig_rate(), 1) + "%",
             Table::fmt_double(t_scalar / t, 2) + "x"});
        cells.push_back({n, k, design, kernel.name, kreg::kLaneWidth,
                         stats.contig_rate(), t, elements / t,
                         bytes / t / 1e9, t_scalar / t});
        table.print();
      }
    }
  }

  std::printf(
      "\nmachine: %u hardware threads, %s, AVX-512 lane kernel %s\n"
      "elements/s counts admissions + recombinations exactly; est GB/s is "
      "the compulsory streaming traffic (x/y reads + residual writes) over "
      "the same wall time. The batched kernels' margin over scalar at equal "
      "traffic is vector (SIMD) throughput, not bandwidth; the contig "
      "column is the share of lane-resume steps served by the "
      "contiguous-run transpose fast path instead of gathers.\n",
      std::thread::hardware_concurrency(), compiler(),
      avx512_lane_kernel() ? "ran" : "did not run");
  write_json(cells, "BENCH_vector.json");
  return 0;
}
