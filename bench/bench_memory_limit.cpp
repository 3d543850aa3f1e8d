// Reproduces the paper's §IV-A / §V memory-capacity finding: "the program
// for estimating optimal bandwidth … does not work for sample sizes greater
// than 20,000" because two n×n single-precision matrices (plus three n×k
// matrices) exhaust the 4 GB device.
//
// Part 1 charts the predicted footprint against the 4 GB ledger across
// sample sizes, marking the paper's cliff. Part 2 demonstrates the failure
// live on a proportionally scaled-down device (so the bench itself does not
// need gigabytes), and shows the streaming extension sailing past the same
// limit.
// Part 3 charts the k-block streamed *window* sweep past the resident n×k
// cliff: on a 128 MB device the resident plan dies near n = 300,000 (k = 48
// doubles) while the streamed plan completes at n = 10⁶ with its ledger
// peak under the budget. Cells land in BENCH_stream.json with a peak-bytes
// ledger per run; the bench exits nonzero if any streamed peak exceeds the
// budget.
// With KREG_SPMD_SANITIZE set (any truthy value), Part 2 runs on a
// CheckedDevice with a counting sink — the sanitizer's log-and-count bench
// mode — and reports findings and leaked allocations alongside the ledger
// peak, demonstrating the instrumented device on the real selector. Part 3
// shrinks to its smallest cell (with an explicit k-block, so the streamed
// kernels still run instrumented) to stay fast.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_util.hpp"
#include "core/kreg.hpp"
#include "spmd/device.hpp"
#include "spmd/errors.hpp"
#include "spmd/sanitizer/checked_device.hpp"

namespace {

using kreg::bench::Table;

bool sanitize_requested() {
  const char* env = std::getenv("KREG_SPMD_SANITIZE");
  if (env == nullptr) {
    return false;
  }
  const std::string_view value(env);
  return !value.empty() && value != "0" && value != "off";
}

/// One row of the n-streamed sweep (Part 4).
struct StreamNCell {
  std::size_t n;
  std::size_t k;
  std::size_t budget_bytes;
  std::size_t carry_estimate;  // the 1-D plan's O(n) resident footprint
  bool kstream_ok;
  double kstream_s;  // < 0 when the O(n)-resident plan failed to allocate
  std::size_t kstream_peak;
  double nstream_s;
  std::size_t nstream_peak;
};

void write_stream_n_json(const std::vector<StreamNCell>& cells,
                         const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"stream_n_window_sweep\",\n  \"cells\": "
               "[\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const StreamNCell& c = cells[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"k\": %zu, \"budget_bytes\": %zu, "
                 "\"carry_estimate_bytes\": %zu, \"kstream\": \"%s\", "
                 "\"kstream_peak_bytes\": %zu, "
                 "\"nstream_s\": %.6e, \"nstream_peak_bytes\": %zu",
                 c.n, c.k, c.budget_bytes, c.carry_estimate,
                 c.kstream_ok ? "ok" : "alloc-failure", c.kstream_peak,
                 c.nstream_s, c.nstream_peak);
    if (c.kstream_s >= 0.0) {
      std::fprintf(f, ", \"kstream_s\": %.6e", c.kstream_s);
    }
    std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, cells.size());
}

/// One row of the streamed-vs-resident sweep (Part 3).
struct StreamCell {
  std::size_t n;
  std::size_t k;
  std::size_t budget_bytes;
  std::size_t resident_estimate;
  bool resident_ok;
  double resident_s;  // < 0 when the resident plan failed to allocate
  std::size_t resident_peak;
  std::size_t k_block;
  double streamed_s;
  std::size_t streamed_peak;
};

void write_stream_json(const std::vector<StreamCell>& cells,
                       const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"stream_window_sweep\",\n  \"cells\": "
               "[\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const StreamCell& c = cells[i];
    std::fprintf(f,
                 "    {\"n\": %zu, \"k\": %zu, \"budget_bytes\": %zu, "
                 "\"resident_estimate_bytes\": %zu, \"resident\": \"%s\", "
                 "\"resident_peak_bytes\": %zu, \"k_block\": %zu, "
                 "\"streamed_s\": %.6e, \"streamed_peak_bytes\": %zu",
                 c.n, c.k, c.budget_bytes, c.resident_estimate,
                 c.resident_ok ? "ok" : "alloc-failure", c.resident_peak,
                 c.k_block, c.streamed_s, c.streamed_peak);
    if (c.resident_s >= 0.0) {
      std::fprintf(f, ", \"resident_s\": %.6e", c.resident_s);
    }
    std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu cells)\n", path, cells.size());
}

}  // namespace

int main() {
  const std::size_t k = 50;

  kreg::bench::banner(
      "MEMORY LIMIT — predicted device footprint vs the 4 GB ledger (k=50, "
      "float)");
  {
    // The paper's capacity, via the one DeviceProperties budget query the
    // planners themselves size against — no ad-hoc 4 GB constant.
    const std::size_t capacity =
        kreg::spmd::DeviceProperties::tesla_s10().memory_budget().global_bytes;
    Table table({"n", "faithful (GB)", "streaming (GB)", "fits 4 GB?"}, 16);
    for (std::size_t n :
         {1000u, 5000u, 10000u, 15000u, 20000u, 23000u, 25000u, 40000u}) {
      const std::size_t faithful = kreg::SpmdGridSelector::estimated_bytes(
          n, k, kreg::Precision::kFloat, /*streaming=*/false);
      const std::size_t streaming = kreg::SpmdGridSelector::estimated_bytes(
          n, k, kreg::Precision::kFloat, /*streaming=*/true);
      table.add_row({std::to_string(n),
                     Table::fmt_double(faithful / 1073741824.0, 3),
                     Table::fmt_double(streaming / 1073741824.0, 4),
                     faithful <= capacity ? "yes" : "NO (paper's failure)"});
    }
    table.print();
  }

  kreg::bench::banner(
      "MEMORY LIMIT — live demonstration on a 1/1024-scale device (4 MB)");
  {
    // 4 MB device: the same arithmetic places the cliff near n = 700.
    // Under KREG_SPMD_SANITIZE the same runs go through the checked device
    // (log-and-count sink, so alloc failures still surface as exceptions).
    const bool sanitize = sanitize_requested();
    std::shared_ptr<kreg::spmd::CountingSink> sink;
    std::unique_ptr<kreg::spmd::Device> device_holder;
    if (sanitize) {
      sink = std::make_shared<kreg::spmd::CountingSink>();
      device_holder = std::make_unique<kreg::spmd::CheckedDevice>(
          kreg::spmd::DeviceProperties::tiny(4 << 20), nullptr, sink);
    } else {
      device_holder = std::make_unique<kreg::spmd::Device>(
          kreg::spmd::DeviceProperties::tiny(4 << 20));
    }
    kreg::spmd::Device& small_device = *device_holder;
    kreg::rng::Stream stream(7);
    Table table({"n", "faithful", "streaming"}, 24);
    for (std::size_t n : {256u, 512u, 700u, 1024u, 2048u}) {
      const kreg::data::Dataset data = kreg::data::paper_dgp(n, stream);
      const kreg::BandwidthGrid grid =
          kreg::BandwidthGrid::default_for(data, 16);

      std::string faithful_cell;
      try {
        kreg::SpmdSelectorConfig cfg;
        // The paper-faithful per-row plan is the one with the n×n cliff; the
        // window default would sail through and hide the demonstration.
        cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
        const auto r =
            kreg::SpmdGridSelector(small_device, cfg).select(data, grid);
        faithful_cell = "ok (h=" + Table::fmt_double(r.bandwidth, 3) + ")";
      } catch (const kreg::spmd::DeviceAllocError&) {
        faithful_cell = "ALLOC FAILURE";
      }

      std::string streaming_cell;
      try {
        kreg::SpmdSelectorConfig cfg;
        cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
        cfg.streaming = true;
        const auto r =
            kreg::SpmdGridSelector(small_device, cfg).select(data, grid);
        streaming_cell = "ok (h=" + Table::fmt_double(r.bandwidth, 3) + ")";
      } catch (const kreg::spmd::DeviceAllocError&) {
        streaming_cell = "ALLOC FAILURE";
      }

      table.add_row({std::to_string(n), faithful_cell, streaming_cell});
    }
    table.print();
    std::printf(
        "\nThe faithful memory plan fails once 2n^2 floats approach the "
        "ledger, exactly like the\npaper's n > 20,000 failure on 4 GB; the "
        "streaming extension (the paper's stated future\nwork) removes the "
        "n x n matrices and keeps running.\n\n");
    std::printf("ledger peak: %.2f MB of %.2f MB\n",
                small_device.global_peak() / 1048576.0,
                small_device.properties().memory_budget().global_bytes /
                    1048576.0);
    if (sanitize) {
      const std::size_t live = small_device.check_leaks();
      std::printf(
          "kreg-sanitizer: findings=%zu (races=%zu oob=%zu uninit=%zu "
          "leaks=%zu) live-allocations=%zu\n",
          small_device.sanitizer()->findings(),
          small_device.sanitizer()->races_detected(),
          small_device.sanitizer()->oobs_detected(),
          small_device.sanitizer()->uninits_detected(),
          small_device.sanitizer()->leaks_detected(), live);
      if (sink->total() != 0) {
        for (const auto& report : sink->reports()) {
          std::printf("  %s\n", report.format().c_str());
        }
        return 1;  // a clean selector run must produce zero findings
      }
    }
  }

  kreg::bench::banner(
      "STREAMED WINDOW SWEEP — k-blocks past the resident n x k cliff "
      "(128 MB device, k=48, double)");
  {
    // The window sweep already dropped the n×n matrices; its wall is the
    // n×k residual matrix. On a 128 MB device with k = 48 doubles the
    // resident plan dies near n = 300,000 — the streamed plan tiles the
    // grid through one n×k_block buffer and keeps going to n = 10⁶. The
    // grid is narrow (1e-5 … 1e-4 on U(0,1) X) so admitted windows stay
    // small and the demonstration is memory-bound, not compute-bound.
    const bool sanitize = sanitize_requested();
    const std::size_t budget = 128ULL << 20;
    const std::size_t stream_k = 48;
    // The paper's device shape (512-thread blocks, 65,535-block grids — the
    // tiny() profile cannot launch 10⁶ threads) with global memory shrunk
    // to the 128 MB budget.
    kreg::spmd::DeviceProperties part3_props =
        kreg::spmd::DeviceProperties::tesla_s10();
    part3_props.name = "128 MB (simulated)";
    part3_props.global_memory_bytes = budget;
    kreg::rng::Stream stream(11);
    std::vector<StreamCell> cells;
    bool over_budget = false;
    Table table({"n", "resident est", "resident", "k_block", "streamed",
                 "peak/budget (MB)"},
                18);
    const std::vector<std::size_t> sizes =
        sanitize ? std::vector<std::size_t>{10'000}
                 : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
    for (const std::size_t n : sizes) {
      const kreg::data::Dataset data = kreg::data::paper_dgp(n, stream);
      const kreg::BandwidthGrid grid(1e-5, 1e-4, stream_k);

      StreamCell cell{};
      cell.n = n;
      cell.k = stream_k;
      cell.budget_bytes = budget;
      cell.resident_estimate = kreg::SpmdGridSelector::estimated_bytes(
          n, stream_k, kreg::Precision::kDouble, false,
          kreg::SweepAlgorithm::kWindow);

      // Resident attempt (auto-tune off: the pre-streaming plan, alloc
      // failures included) on a fresh device so the peak is per-run.
      {
        kreg::spmd::Device device(part3_props);
        kreg::SpmdSelectorConfig cfg;
        cfg.precision = kreg::Precision::kDouble;
        cfg.stream.auto_tune = false;
        try {
          cell.resident_s = kreg::bench::time_once([&] {
            (void)kreg::SpmdGridSelector(device, cfg).select(data, grid);
          });
          cell.resident_ok = true;
        } catch (const kreg::spmd::DeviceAllocError&) {
          cell.resident_ok = false;
          cell.resident_s = -1.0;
        }
        cell.resident_peak = device.global_peak();
      }

      // Streamed run: the default auto-tuned plan sizes k_block to the
      // device budget (under the sanitizer, an explicit small block keeps
      // the instrumented run streaming on the shrunken cell).
      {
        kreg::spmd::Device device(part3_props);
        kreg::SpmdSelectorConfig cfg;
        cfg.precision = kreg::Precision::kDouble;
        if (sanitize) {
          cfg.stream.k_block = 12;
        }
        const kreg::StreamingPlan plan = kreg::resolve_streaming(
            cfg.stream, stream_k, cell.resident_estimate,
            kreg::SpmdGridSelector::estimated_streamed_bytes(
                n, 0, kreg::Precision::kDouble),
            kreg::SpmdGridSelector::estimated_streamed_bytes(
                n, 1, kreg::Precision::kDouble) -
                kreg::SpmdGridSelector::estimated_streamed_bytes(
                    n, 0, kreg::Precision::kDouble),
            device.properties().memory_budget().global_bytes);
        cell.k_block = plan.k_block;
        cell.streamed_s = kreg::bench::time_once([&] {
          (void)kreg::SpmdGridSelector(device, cfg).select(data, grid);
        });
        cell.streamed_peak = device.global_peak();
        if (cell.streamed_peak > budget) {
          over_budget = true;
        }
      }

      table.add_row(
          {std::to_string(n),
           Table::fmt_double(cell.resident_estimate / 1048576.0, 1) + " MB",
           cell.resident_ok
               ? "ok (" + Table::fmt_double(cell.resident_s, 2) + " s)"
               : "ALLOC FAILURE",
           std::to_string(cell.k_block),
           "ok (" + Table::fmt_double(cell.streamed_s, 2) + " s)",
           Table::fmt_double(cell.streamed_peak / 1048576.0, 1) + " / " +
               Table::fmt_double(budget / 1048576.0, 0)});
      cells.push_back(cell);
    }
    table.print();
    std::printf(
        "\nThe streamed sweep carries each observation's window state across "
        "k-blocks, so one\nn x k_block buffer (plus O(n) carry) replaces the "
        "resident n x k matrix — the profile\nis bitwise identical and the "
        "ledger peak stays under the budget.\n\n");
    write_stream_json(cells, "BENCH_stream.json");
    if (over_budget) {
      std::fprintf(stderr,
                   "FAIL: a streamed run's ledger peak exceeded the budget\n");
      return 1;
    }
  }

  kreg::bench::banner(
      "N-STREAMED WINDOW SWEEP — n-blocks past the O(n) carry cliff");
  {
    // Part 3's k-blocks shrink the residual matrix but still keep the
    // sorted arrays and window carry state — O(n) — resident, so a small
    // enough device kills even the k_block = 1 plan. n-blocking tiles the
    // observations too: each block uploads only a halo-padded slab and
    // carries its score totals in k×lane_dim accumulators, so the footprint
    // is O(slab + n_block·k_block + k·lane_dim) and the same narrow-grid
    // n = 10⁶ problem streams through a 24 MB device whose 80 MB carry
    // state could never fit. The profile stays bitwise identical.
    const bool sanitize = sanitize_requested();
    const std::size_t budget = sanitize ? (2ULL << 20) : (24ULL << 20);
    const std::size_t stream_k = 32;
    kreg::spmd::DeviceProperties part4_props =
        kreg::spmd::DeviceProperties::tesla_s10();
    part4_props.name = sanitize ? "2 MB (simulated)" : "24 MB (simulated)";
    part4_props.global_memory_bytes = budget;
    kreg::rng::Stream stream(13);
    std::vector<StreamNCell> cells;
    bool over_budget = false;
    Table table({"n", "carry est", "k-streamed", "n-streamed",
                 "peak/budget (MB)"},
                20);
    const std::vector<std::size_t> sizes =
        sanitize ? std::vector<std::size_t>{50'000}
                 : std::vector<std::size_t>{100'000, 1'000'000};
    for (const std::size_t n : sizes) {
      const kreg::data::Dataset data = kreg::data::paper_dgp(n, stream);
      const kreg::BandwidthGrid grid(1e-5, 1e-4, stream_k);

      StreamNCell cell{};
      cell.n = n;
      cell.k = stream_k;
      cell.budget_bytes = budget;
      cell.carry_estimate = kreg::SpmdGridSelector::estimated_streamed_bytes(
          n, 1, kreg::Precision::kDouble);

      // The 1-D plan (explicit k_block pins the n-resident streamed path):
      // its O(n) carry state must allocate up front, so the small device
      // rejects it — the cliff this part charts.
      {
        kreg::spmd::Device device(part4_props);
        kreg::SpmdSelectorConfig cfg;
        cfg.precision = kreg::Precision::kDouble;
        cfg.stream.k_block = 1;
        try {
          cell.kstream_s = kreg::bench::time_once([&] {
            (void)kreg::SpmdGridSelector(device, cfg).select(data, grid);
          });
          cell.kstream_ok = true;
        } catch (const kreg::spmd::DeviceAllocError&) {
          cell.kstream_ok = false;
          cell.kstream_s = -1.0;
        }
        cell.kstream_peak = device.global_peak();
      }

      // The auto-tuned 2-D plan takes the halving candidate with the
      // fewest halo-padded tiles that fit, then completes with the ledger
      // peak under the budget.
      {
        kreg::spmd::Device device(part4_props);
        kreg::SpmdSelectorConfig cfg;
        cfg.precision = kreg::Precision::kDouble;
        cell.nstream_s = kreg::bench::time_once([&] {
          (void)kreg::SpmdGridSelector(device, cfg).select(data, grid);
        });
        cell.nstream_peak = device.global_peak();
        if (cell.nstream_peak > budget) {
          over_budget = true;
        }
      }

      table.add_row(
          {std::to_string(n),
           Table::fmt_double(cell.carry_estimate / 1048576.0, 1) + " MB",
           cell.kstream_ok
               ? "ok (" + Table::fmt_double(cell.kstream_s, 2) + " s)"
               : "ALLOC FAILURE",
           "ok (" + Table::fmt_double(cell.nstream_s, 2) + " s)",
           Table::fmt_double(cell.nstream_peak / 1048576.0, 1) + " / " +
               Table::fmt_double(budget / 1048576.0, 0)});
      cells.push_back(cell);
    }
    table.print();
    std::printf(
        "\nn-blocking uploads one halo-padded slab of the sorted arrays at a "
        "time and carries the\nper-bandwidth score lanes across blocks, so "
        "nothing O(n) ever sits on the device — and\nthe lane-carried "
        "reduction keeps the profile bitwise identical to the resident "
        "sweep.\n\n");
    write_stream_n_json(cells, "BENCH_stream_n.json");
    if (over_budget) {
      std::fprintf(stderr,
                   "FAIL: an n-streamed run's ledger peak exceeded the "
                   "budget\n");
      return 1;
    }
  }
  return 0;
}
