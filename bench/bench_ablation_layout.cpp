// Ablation (paper §IV-B): "To facilitate efficient caching of memory and
// to reduce bank conflicts, the matrix indices are switched at this stage"
// — the residual matrix is written bandwidth-major (k groups of n) so each
// per-bandwidth reduction reads a contiguous run, instead of
// observation-major (n groups of k) which forces stride-k reads. Times both
// layouts of Program 4's per-row sort at fixed (n, k) and confirms
// identical selections. (The window sweep has no n×k reduction to lay out:
// it writes observation-major residual blocks and folds each grid entry's
// residuals in observation order.)
#include <cstdio>

#include "common/bench_util.hpp"
#include "core/kreg.hpp"
#include "spmd/device.hpp"

int main() {
  using kreg::bench::Table;
  const std::size_t n = kreg::bench::full_mode() ? 10000 : 4000;
  const std::size_t reps = kreg::bench::repetitions();

  kreg::rng::Stream stream(66);
  const kreg::data::Dataset data = kreg::data::paper_dgp(n, stream);
  kreg::spmd::Device device;

  kreg::bench::banner(
      "ABLATION — residual-matrix layout (SPMD per-row sort, n=" +
      std::to_string(n) + ")");

  Table table({"k", "bandwidth-major (s)", "observation-major (s)", "same h?"},
              22);
  for (std::size_t k : {50u, 200u, 1000u}) {
    const kreg::BandwidthGrid grid = kreg::BandwidthGrid::default_for(data, k);

    kreg::SpmdSelectorConfig bm_cfg;
    bm_cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
    bm_cfg.layout = kreg::ResidualLayout::kBandwidthMajor;
    kreg::SpmdSelectorConfig om_cfg = bm_cfg;
    om_cfg.layout = kreg::ResidualLayout::kObservationMajor;

    double h_bm = 0.0;
    double h_om = 0.0;
    const double t_bm = kreg::bench::time_median(
        [&] {
          h_bm = kreg::SpmdGridSelector(device, bm_cfg)
                     .select(data, grid)
                     .bandwidth;
        },
        reps);
    const double t_om = kreg::bench::time_median(
        [&] {
          h_om = kreg::SpmdGridSelector(device, om_cfg)
                     .select(data, grid)
                     .bandwidth;
        },
        reps);
    table.add_row({std::to_string(k), Table::fmt_seconds(t_bm),
                   Table::fmt_seconds(t_om), h_bm == h_om ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nBandwidth-major keeps each reduction's reads contiguous (the "
      "paper's transposition);\nobservation-major reads with stride k and "
      "pays for it as k grows.\n\n");
  return 0;
}
