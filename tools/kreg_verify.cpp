// kreg_verify — static race & barrier-divergence verification of every
// named production launch on the SPMD device.
//
// Each scenario drives one production backend (regression window sweep in
// its scalar and lane-batched forms, resident, k-block streamed and 2-D
// tiled, on one device and sharded across two; the paper's per-row sort
// with its tree reductions and device argmin; the KDE LSCV sweep, the
// k-NN LOOCV sweep, the OSCV sweep) on a SymbolicDevice, which traces
// every launch serially through the sanitizer's shadows and proves its
// access families disjoint over two symbolic thread identities (see
// src/spmd/verify/). Every scenario runs TWICE on different datasets:
// a launch whose conflict-relevant trace fingerprint differs across runs
// has data-dependent addressing, and its "verified" is demoted to
// "unproven" — the dynamic sanitizer (ctest -L sanitize) remains the
// coverage for those.
//
// Modes:
//   kreg_verify                      print the per-launch ledger
//   kreg_verify --write-ledger FILE  also write it to FILE
//   kreg_verify --check FILE         compare against a checked-in ledger:
//                                    exit 1 on any hazard, any launch whose
//                                    status regressed (verified → anything
//                                    else), or any launch missing from the
//                                    current run.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/knn_sweep.hpp"
#include "core/multi_device_selector.hpp"
#include "core/oscv_sweep.hpp"
#include "core/spmd_kde.hpp"
#include "core/spmd_selector.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/verify/verifier.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::KernelType;
using kreg::Precision;
using kreg::SpmdGridSelector;
using kreg::SpmdKdeConfig;
using kreg::SpmdKdeSelector;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::spmd::verify::SymbolicDevice;
using kreg::spmd::verify::VerifyReport;
using kreg::spmd::verify::VerifyStatus;

struct Scenario {
  std::string name;
  std::function<void(SymbolicDevice&, const Dataset&)> run;
};

struct LedgerEntry {
  std::string scenario;
  std::string kernel;
  VerifyStatus status = VerifyStatus::kUnproven;
  std::string reason;
};

Dataset make_data(std::size_t n, std::uint64_t seed) {
  kreg::rng::Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

std::vector<Scenario> scenarios() {
  const auto regress = [](SpmdSelectorConfig cfg) {
    return [cfg](SymbolicDevice& dev, const Dataset& d) {
      const BandwidthGrid grid = BandwidthGrid::default_for(d, 12);
      (void)SpmdGridSelector(dev, cfg).select(d, grid);
    };
  };
  SpmdSelectorConfig scalar;
  scalar.precision = Precision::kDouble;
  scalar.lane_width = 1;
  SpmdSelectorConfig batched_c8 = scalar;
  batched_c8.lane_width = 8;
  SpmdSelectorConfig kblock = scalar;
  kblock.stream.k_block = 5;
  SpmdSelectorConfig tiled = scalar;
  tiled.stream.k_block = 5;
  tiled.stream.n_block = 96;
  SpmdSelectorConfig batched_kblock = kblock;
  batched_kblock.lane_width = 8;
  SpmdSelectorConfig batched_tiled = tiled;
  batched_tiled.lane_width = 8;
  // Program 4's per-row sort: the only scenario that still launches the
  // paper's tree reductions (reduce_sum_rows) and device argmin.
  SpmdSelectorConfig per_row = scalar;
  per_row.algorithm = kreg::SweepAlgorithm::kPerRowSort;

  // Two shards on one device: every slice launch is traced on the same
  // SymbolicDevice, so both slices' launches land in the ledger.
  const auto multi = [](SpmdSelectorConfig cfg) {
    return [cfg](SymbolicDevice& dev, const Dataset& d) {
      const BandwidthGrid grid = BandwidthGrid::default_for(d, 12);
      (void)kreg::MultiDeviceGridSelector({&dev, &dev}, cfg).select(d, grid);
    };
  };

  const auto kde = [](SpmdKdeConfig cfg) {
    return [cfg](SymbolicDevice& dev, const Dataset& d) {
      const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
      (void)SpmdKdeSelector(dev, cfg).select(d.xs(), grid);
    };
  };
  SpmdKdeConfig kde_resident;
  SpmdKdeConfig kde_kblock;
  kde_kblock.stream.k_block = 4;
  SpmdKdeConfig kde_tiled;
  kde_tiled.stream.k_block = 4;
  kde_tiled.stream.n_block = 96;

  const auto knn = [](std::size_t k_block) {
    return [k_block](SymbolicDevice& dev, const Dataset& d) {
      const std::vector<std::size_t> kgrid =
          kreg::default_neighbor_grid(d.size(), 10);
      kreg::KnnDeviceConfig cfg;
      cfg.stream.k_block = k_block;
      (void)kreg::knn_cv_profile_device(dev, d, kgrid, cfg);
    };
  };
  const auto oscv = [](std::size_t k_block) {
    return [k_block](SymbolicDevice& dev, const Dataset& d) {
      const BandwidthGrid grid = BandwidthGrid::default_for(d, 10);
      kreg::OscvDeviceConfig cfg;
      cfg.stream.k_block = k_block;
      (void)kreg::oscv_profile_device(dev, d, grid.values(),
                                      KernelType::kEpanechnikov, cfg);
    };
  };

  return {
      {"regress_scalar", regress(scalar)},
      {"regress_batched_c8", regress(batched_c8)},
      {"regress_kblock_streamed", regress(kblock)},
      {"regress_2d_tiled", regress(tiled)},
      {"regress_batched_kblock_streamed", regress(batched_kblock)},
      {"regress_batched_2d_tiled", regress(batched_tiled)},
      {"regress_per_row", regress(per_row)},
      {"multi_device_kblock", multi(batched_kblock)},
      {"multi_device_2d_tiled", multi(batched_tiled)},
      {"multi_device_scalar_2d_tiled", multi(tiled)},
      {"kde_resident", kde(kde_resident)},
      {"kde_kblock_streamed", kde(kde_kblock)},
      {"kde_2d_tiled", kde(kde_tiled)},
      {"knn_device", knn(0)},
      {"knn_kblock_streamed", knn(4)},
      {"oscv_device", oscv(0)},
      {"oscv_kblock_streamed", oscv(4)},
  };
}

int severity(VerifyStatus s) {
  switch (s) {
    case VerifyStatus::kVerified:
      return 0;
    case VerifyStatus::kUnproven:
      return 1;
    case VerifyStatus::kHazard:
      return 2;
  }
  return 2;
}

/// Runs one scenario on two datasets and folds the per-launch reports into
/// per-(scenario, kernel) ledger entries, demoting launches whose
/// fingerprints differ across datasets.
void run_scenario(const Scenario& sc, std::size_t n,
                  std::vector<LedgerEntry>& ledger) {
  std::vector<std::vector<VerifyReport>> runs;
  for (std::uint64_t seed : {101ULL, 202ULL}) {
    SymbolicDevice dev;
    const Dataset d = make_data(n, seed);
    sc.run(dev, d);
    runs.push_back(dev.verifier().take_reports());
  }
  std::vector<VerifyReport> merged = std::move(runs[0]);
  const std::vector<VerifyReport>& second = runs[1];
  for (std::size_t i = 0; i < merged.size(); ++i) {
    VerifyReport& r = merged[i];
    const bool aligned = i < second.size() && second[i].kernel == r.kernel;
    if (!aligned) {
      // The launch sequence itself is data-dependent (e.g. a conditional
      // cleanup pass); nothing about the pair can be compared.
      if (r.status == VerifyStatus::kVerified) {
        r.status = VerifyStatus::kUnproven;
        r.reason = "launch sequence differs across datasets";
      }
      continue;
    }
    if (severity(second[i].status) > severity(r.status)) {
      r.status = second[i].status;
      r.reason = second[i].reason;
    }
    if (r.status == VerifyStatus::kVerified &&
        r.fingerprint != second[i].fingerprint) {
      r.status = VerifyStatus::kUnproven;
      r.reason =
          "data-dependent addressing (trace fingerprints differ across "
          "datasets) — falls back to the dynamic sanitizer";
    }
  }
  // Worst status per kernel name across every launch of the scenario.
  std::map<std::string, LedgerEntry> per_kernel;
  for (const VerifyReport& r : merged) {
    LedgerEntry& e = per_kernel[r.kernel];
    if (e.kernel.empty() || severity(r.status) > severity(e.status)) {
      e.scenario = sc.name;
      e.kernel = r.kernel;
      e.status = r.status;
      e.reason = r.reason;
    }
  }
  for (auto& [kernel, e] : per_kernel) {
    ledger.push_back(std::move(e));
  }
}

std::string ledger_line(const LedgerEntry& e) {
  return e.scenario + " " + e.kernel + " " +
         kreg::spmd::verify::to_string(e.status);
}

int write_ledger(const std::vector<LedgerEntry>& ledger,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "kreg_verify: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << "# kreg_verify per-launch ledger: <scenario> <kernel> <status>\n"
      << "# regenerate with: kreg_verify --write-ledger tools/"
         "verify_ledger.txt\n";
  for (const LedgerEntry& e : ledger) {
    out << ledger_line(e) << "\n";
  }
  return 0;
}

int check_ledger(const std::vector<LedgerEntry>& ledger,
                 const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "kreg_verify: cannot read '%s'\n", path.c_str());
    return 1;
  }
  std::map<std::pair<std::string, std::string>, std::string> want;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string scenario;
    std::string kernel;
    std::string status;
    if (fields >> scenario >> kernel >> status) {
      want[{scenario, kernel}] = status;
    }
  }
  int failures = 0;
  std::map<std::pair<std::string, std::string>, const LedgerEntry*> got;
  for (const LedgerEntry& e : ledger) {
    got[{e.scenario, e.kernel}] = &e;
  }
  for (const auto& [key, expected] : want) {
    const auto it = got.find(key);
    if (it == got.end()) {
      std::fprintf(stderr, "MISSING  %s %s (ledger says %s)\n",
                   key.first.c_str(), key.second.c_str(), expected.c_str());
      ++failures;
      continue;
    }
    const std::string actual =
        kreg::spmd::verify::to_string(it->second->status);
    const bool regressed = expected == "verified" && actual != "verified";
    if (it->second->status == VerifyStatus::kHazard || regressed) {
      std::fprintf(stderr, "FAIL     %s %s: ledger %s, now %s (%s)\n",
                   key.first.c_str(), key.second.c_str(), expected.c_str(),
                   actual.c_str(), it->second->reason.c_str());
      ++failures;
    }
  }
  for (const auto& [key, entry] : got) {
    if (want.find(key) == want.end()) {
      std::fprintf(stderr,
                   "NEW      %s %s: %s — not in the ledger; regenerate it\n",
                   key.first.c_str(), key.second.c_str(),
                   kreg::spmd::verify::to_string(entry->status));
      ++failures;
    }
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string write_path;
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-ledger") == 0 && i + 1 < argc) {
      write_path = argv[++i];
    } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      check_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: kreg_verify [--write-ledger FILE] [--check FILE]\n");
      return 2;
    }
  }

  const std::size_t n = 192;  // small enough to trace, covers every backend
  std::vector<LedgerEntry> ledger;
  std::size_t verified = 0;
  std::size_t unproven = 0;
  std::size_t hazards = 0;
  for (const Scenario& sc : scenarios()) {
    run_scenario(sc, n, ledger);
  }
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerEntry& a, const LedgerEntry& b) {
              return std::tie(a.scenario, a.kernel) <
                     std::tie(b.scenario, b.kernel);
            });
  for (const LedgerEntry& e : ledger) {
    switch (e.status) {
      case VerifyStatus::kVerified:
        ++verified;
        break;
      case VerifyStatus::kUnproven:
        ++unproven;
        break;
      case VerifyStatus::kHazard:
        ++hazards;
        break;
    }
    std::printf("%-10s %-32s %s%s%s\n",
                kreg::spmd::verify::to_string(e.status), e.kernel.c_str(),
                e.scenario.c_str(), e.reason.empty() ? "" : "  # ",
                e.reason.c_str());
  }
  std::printf("\n%zu launch kinds: %zu verified, %zu unproven, %zu hazard\n",
              ledger.size(), verified, unproven, hazards);

  int rc = hazards > 0 ? 1 : 0;
  if (!write_path.empty()) {
    rc |= write_ledger(ledger, write_path);
  }
  if (!check_path.empty()) {
    rc |= check_ledger(ledger, check_path);
  }
  return rc;
}
