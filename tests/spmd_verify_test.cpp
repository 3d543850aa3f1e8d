// Tests for the kreg-verify static verifier: the affine/Diophantine
// machinery in isolation, seeded-hazard "mutation" kernels the verifier
// MUST flag with a concrete witness pair (WW race, missing barrier,
// tid-divergent barrier) next to their corrected twins that must verify,
// the exhaustive-cap fall-through, and a clean pass over real production
// launches (regression sweep, batched lanes, reductions).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/selectors.hpp"
#include "core/spmd_selector.hpp"
#include "data/dgp.hpp"
#include "rng/stream.hpp"
#include "spmd/device.hpp"
#include "spmd/reduce.hpp"
#include "spmd/verify/affine.hpp"
#include "spmd/verify/verifier.hpp"

namespace {

using kreg::BandwidthGrid;
using kreg::Precision;
using kreg::SelectionResult;
using kreg::SortedGridSelector;
using kreg::SpmdGridSelector;
using kreg::SpmdSelectorConfig;
using kreg::data::Dataset;
using kreg::rng::Stream;
using kreg::spmd::BlockCtx;
using kreg::spmd::LaunchConfig;
using kreg::spmd::ThreadCtx;
using kreg::spmd::verify::Ap;
using kreg::spmd::verify::Domain;
using kreg::spmd::verify::Family;
using kreg::spmd::verify::HazardClass;
using kreg::spmd::verify::SolveResult;
using kreg::spmd::verify::SymbolicDevice;
using kreg::spmd::verify::VerifyOptions;
using kreg::spmd::verify::VerifyReport;
using kreg::spmd::verify::VerifyStatus;

Dataset paper_data(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return kreg::data::paper_dgp(n, s);
}

const VerifyReport& report_for(const std::vector<VerifyReport>& reports,
                               const std::string& kernel) {
  for (const VerifyReport& r : reports) {
    if (r.kernel == kernel) {
      return r;
    }
  }
  ADD_FAILURE() << "no report for kernel '" << kernel << "'";
  static const VerifyReport kEmpty;
  return kEmpty;
}

// ---------------------------------------------------------------------------
// Affine machinery

TEST(AffineDomain, ContiguousStridedAndRejected) {
  const auto contiguous =
      kreg::spmd::verify::domain_from_ids({0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(contiguous.has_value());
  EXPECT_EQ(contiguous->lo, 0);
  EXPECT_EQ(contiguous->hi, 5);
  EXPECT_EQ(contiguous->step, 1);
  EXPECT_EQ(contiguous->count(), 6);

  const auto strided = kreg::spmd::verify::domain_from_ids({3, 7, 11, 15});
  ASSERT_TRUE(strided.has_value());
  EXPECT_EQ(strided->step, 4);
  EXPECT_EQ(strided->offset, 3);
  EXPECT_TRUE(strided->contains(11));
  EXPECT_FALSE(strided->contains(12));

  EXPECT_FALSE(kreg::spmd::verify::domain_from_ids({0, 1, 3}).has_value());
  EXPECT_FALSE(kreg::spmd::verify::domain_from_ids({0, 0, 1}).has_value());

  const auto single = kreg::spmd::verify::domain_from_ids({42});
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->count(), 1);
}

TEST(AffineDomain, ApDecomposition) {
  const std::vector<Ap> one = kreg::spmd::verify::decompose_aps({5, 6, 7, 8});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].base, 5);
  EXPECT_EQ(one[0].stride, 1);
  EXPECT_EQ(one[0].count, 4);

  const std::vector<Ap> two =
      kreg::spmd::verify::decompose_aps({0, 1, 2, 10, 20, 30});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].count, 3);
  EXPECT_EQ(two[1].base, 10);
  EXPECT_EQ(two[1].stride, 10);
  EXPECT_EQ(two[1].count, 3);

  const std::vector<Ap> single = kreg::spmd::verify::decompose_aps({9});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].stride, 0);
  EXPECT_EQ(single[0].count, 1);
}

Family family(long long slope, long long base, const Domain& dom, bool write,
              long long stride = 0, long long count = 1, long long width = 1) {
  Family f;
  f.space = 1;
  f.write = write;
  f.slope = slope;
  f.base = base;
  f.stride = stride;
  f.count = count;
  f.width = width;
  f.dom = dom;
  return f;
}

TEST(AffineSolver, EvenOddWritersAreDisjoint) {
  const Domain dom{0, 63, 1, 0};
  const Family even = family(2, 0, dom, true);
  const Family odd = family(2, 1, dom, true);
  const SolveResult r =
      kreg::spmd::verify::find_collision(even, odd, false, 1 << 20);
  EXPECT_EQ(r.kind, SolveResult::kDisjoint);
}

TEST(AffineSolver, InjectiveSelfPairIsDisjointOffDiagonal) {
  const Domain dom{0, 999, 1, 0};
  const Family f = family(1, 0, dom, true);
  const SolveResult r =
      kreg::spmd::verify::find_collision(f, f, true, 1 << 20);
  EXPECT_EQ(r.kind, SolveResult::kDisjoint);
}

TEST(AffineSolver, OverlappingWidthsCollideWithWitness) {
  // Executor d writes [2d, 2d + 3): neighbours share a byte.
  const Domain dom{0, 31, 1, 0};
  const Family f = family(2, 0, dom, true, 0, 1, 3);
  const SolveResult r =
      kreg::spmd::verify::find_collision(f, f, true, 1 << 20);
  ASSERT_EQ(r.kind, SolveResult::kCollision);
  EXPECT_NE(r.witness.d1, r.witness.d2);
  const long long lo1 = 2 * r.witness.d1;
  const long long lo2 = 2 * r.witness.d2;
  EXPECT_LT(std::max(lo1, lo2), std::min(lo1 + 3, lo2 + 3))
      << "witness intervals must overlap";
}

TEST(AffineSolver, CongruenceDomainsSeparate) {
  // Harris interleave: writers t ≡ 0 (mod 8) write t, readers t ≡ 4 (mod 8)
  // read t — never the same address.
  const Domain writers{0, 56, 8, 0};
  const Domain readers{4, 60, 8, 4};
  const Family w = family(1, 0, writers, true);
  const Family rd = family(1, 0, readers, false);
  const SolveResult r =
      kreg::spmd::verify::find_collision(w, rd, false, 1 << 20);
  EXPECT_EQ(r.kind, SolveResult::kDisjoint);
}

// ---------------------------------------------------------------------------
// Mutation kernels: seeded hazards the verifier must flag with a witness,
// plus corrected twins that must verify.

TEST(VerifyMutation, WriteWriteRaceHasConcreteWitness) {
  SymbolicDevice dev;
  const std::size_t n = 32;
  auto buf = dev.alloc_global<double>(n + 1, "overlap_out");
  auto view = buf.view();
  dev.launch("mut_ww_overlap", LaunchConfig{1, n}, [=](const ThreadCtx& t) {
    // BUG: thread g writes elements g and g+1 — neighbours collide on g+1.
    view[t.global_idx()] = 1.0;
    view[t.global_idx() + 1] = 2.0;
  });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_ww_overlap");
  ASSERT_EQ(r.status, VerifyStatus::kHazard) << r.summary();
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->hazard, HazardClass::kWriteWrite);
  EXPECT_EQ(r.witness->object, "overlap_out");
  EXPECT_FALSE(r.witness->shared);
  EXPECT_NE(r.witness->exec_a, r.witness->exec_b);
  // The colliding element must actually be written by both witnesses.
  EXPECT_EQ(r.witness->addr_a, r.witness->addr_b);
  const long long lo = std::min(r.witness->exec_a, r.witness->exec_b);
  const long long hi = std::max(r.witness->exec_a, r.witness->exec_b);
  EXPECT_EQ(hi, lo + 1);
  EXPECT_EQ(r.witness->addr_a, hi);
}

TEST(VerifyMutation, DisjointTwinOfWriteWriteVerifies) {
  SymbolicDevice dev;
  const std::size_t n = 32;
  auto buf = dev.alloc_global<double>(2 * n, "disjoint_out");
  auto view = buf.view();
  dev.launch("mut_ww_fixed", LaunchConfig{1, n}, [=](const ThreadCtx& t) {
    view[2 * t.global_idx()] = 1.0;
    view[2 * t.global_idx() + 1] = 2.0;
  });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_ww_fixed");
  EXPECT_EQ(r.status, VerifyStatus::kVerified) << r.summary();
  EXPECT_GT(r.families, 0u);
  EXPECT_EQ(r.executors, n);
}

TEST(VerifyMutation, MissingBarrierIsAReadWriteHazard) {
  SymbolicDevice dev;
  const std::size_t block = 32;
  auto out = dev.alloc_global<double>(block, "shift_out");
  auto out_view = out.view();
  dev.launch_cooperative(
      "mut_missing_barrier", LaunchConfig{1, block}, block * sizeof(double),
      [=](BlockCtx& ctx) {
        auto sh = ctx.shared_as<double>(block);
        // BUG: write and neighbour-read collapsed into one phase — tid t
        // reads the slot tid t+1 writes with no barrier between them.
        ctx.for_each_thread([&](std::size_t t) {
          sh[t] = static_cast<double>(t);
          if (t + 1 < block) {
            out_view[t] = static_cast<double>(sh[t + 1]);
          } else {
            out_view[t] = 0.0;
          }
        });
      });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_missing_barrier");
  ASSERT_EQ(r.status, VerifyStatus::kHazard) << r.summary();
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->hazard, HazardClass::kReadWrite);
  EXPECT_TRUE(r.witness->shared);
  EXPECT_EQ(r.witness->object, "shared");
  EXPECT_EQ(r.witness->phase, 0);
  EXPECT_NE(r.witness->exec_a, r.witness->exec_b);
}

TEST(VerifyMutation, TwoPhaseTwinOfMissingBarrierVerifies) {
  SymbolicDevice dev;
  const std::size_t block = 32;
  auto out = dev.alloc_global<double>(block, "shift_out");
  auto out_view = out.view();
  dev.launch_cooperative(
      "mut_barrier_fixed", LaunchConfig{1, block}, block * sizeof(double),
      [=](BlockCtx& ctx) {
        auto sh = ctx.shared_as<double>(block);
        ctx.for_each_thread(
            [&](std::size_t t) { sh[t] = static_cast<double>(t); });
        ctx.for_each_thread([&](std::size_t t) {
          if (t + 1 < block) {
            out_view[t] = static_cast<double>(sh[t + 1]);
          } else {
            out_view[t] = 0.0;
          }
        });
      });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_barrier_fixed");
  EXPECT_EQ(r.status, VerifyStatus::kVerified) << r.summary();
  EXPECT_EQ(r.phases, 2u);
}

TEST(VerifyMutation, TidDivergentBarrierIsFlagged) {
  SymbolicDevice dev;
  const std::size_t block = 16;
  dev.launch_cooperative(
      "mut_divergent_barrier", LaunchConfig{1, block}, block * sizeof(double),
      [](BlockCtx& ctx) {
        auto sh = ctx.shared_as<double>(block);
        ctx.for_each_thread([&](std::size_t t) {
          sh[t] = 1.0;
          // BUG: a barrier (for_each_thread) behind a tid-dependent branch.
          if (t == 3) {
            ctx.for_each_thread([&](std::size_t u) { sh[u] = 2.0; });
          }
        });
      });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_divergent_barrier");
  ASSERT_EQ(r.status, VerifyStatus::kHazard) << r.summary();
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_EQ(r.witness->hazard, HazardClass::kBarrierDivergence);
  EXPECT_EQ(r.witness->exec_a, 3);  // the tid that reached the barrier
  EXPECT_NE(r.witness->exec_b, 3);  // one that may not
}

TEST(VerifyMutation, HoistedBarrierTwinVerifies) {
  SymbolicDevice dev;
  const std::size_t block = 16;
  dev.launch_cooperative(
      "mut_divergence_fixed", LaunchConfig{1, block}, block * sizeof(double),
      [](BlockCtx& ctx) {
        auto sh = ctx.shared_as<double>(block);
        ctx.for_each_thread([&](std::size_t t) { sh[t] = 1.0; });
        ctx.for_each_thread([&](std::size_t t) { sh[t] = 2.0; });
      });
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "mut_divergence_fixed");
  EXPECT_EQ(r.status, VerifyStatus::kVerified) << r.summary();
}

// ---------------------------------------------------------------------------
// Cap fall-through: an over-budget launch runs normally and is unproven.

TEST(VerifyOptionsTest, OverCapLaunchRunsUnverified) {
  VerifyOptions opts;
  opts.exhaustive_cap = 16;
  SymbolicDevice dev(kreg::spmd::DeviceProperties::tesla_s10(), nullptr,
                     opts);
  const std::size_t n = 64;
  auto buf = dev.alloc_global<double>(n, "big_out");
  auto view = buf.view();
  dev.launch("too_big", LaunchConfig{1, n}, [=](const ThreadCtx& t) {
    view[t.global_idx()] = static_cast<double>(t.global_idx());
  });
  std::vector<double> host(n);
  dev.copy_to_host(std::span<double>(host), buf);
  EXPECT_DOUBLE_EQ(host[n - 1], static_cast<double>(n - 1))
      << "the launch must still have executed";
  const auto reports = dev.verifier().take_reports();
  const VerifyReport& r = report_for(reports, "too_big");
  EXPECT_EQ(r.status, VerifyStatus::kUnproven);
  EXPECT_NE(r.reason.find("cap"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Production launches: the real selection stack, traced and verified, with
// results identical to a plain device run (the serial trace is a legal
// schedule).

TEST(VerifyProduction, ScalarWindowSweepVerifiesEveryLaunch) {
  SymbolicDevice dev;
  const Dataset d = paper_data(200, 11);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 16);
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  cfg.lane_width = 1;  // scalar kernels
  const SelectionResult got = SpmdGridSelector(dev, cfg).select(d, grid);
  const SelectionResult want = SortedGridSelector().select(d, grid);
  EXPECT_DOUBLE_EQ(got.bandwidth, want.bandwidth);

  const auto reports = dev.verifier().take_reports();
  ASSERT_FALSE(reports.empty());
  std::size_t verified = 0;
  for (const VerifyReport& r : reports) {
    EXPECT_NE(r.status, VerifyStatus::kHazard) << r.summary();
    verified += r.status == VerifyStatus::kVerified ? 1 : 0;
  }
  EXPECT_EQ(report_for(reports, "cv_sweep").status, VerifyStatus::kVerified);
  EXPECT_GE(verified, 2u);  // at least the sweep and a reduction
}

TEST(VerifyProduction, BatchedLanesWithoutSigmaSortVerify) {
  SymbolicDevice dev;
  const Dataset d = paper_data(192, 12);
  const BandwidthGrid grid = BandwidthGrid::default_for(d, 12);
  SpmdSelectorConfig cfg;
  cfg.precision = Precision::kDouble;
  cfg.lane_width = 8;  // consecutive observations per lane batch: affine
                       // addressing
  const SelectionResult got = SpmdGridSelector(dev, cfg).select(d, grid);
  const SelectionResult want = SortedGridSelector().select(d, grid);
  EXPECT_DOUBLE_EQ(got.bandwidth, want.bandwidth);
  const auto reports = dev.verifier().take_reports();
  for (const VerifyReport& r : reports) {
    EXPECT_NE(r.status, VerifyStatus::kHazard) << r.summary();
  }
}

TEST(VerifyProduction, TreeReductionsVerify) {
  SymbolicDevice dev;
  const std::size_t n = 128;
  auto buf = dev.alloc_global<double>(n, "reduce_in");
  std::vector<double> host(n, 1.0);
  dev.copy_to_device(buf, std::span<const double>(host));
  const kreg::spmd::MemView<const double> view = buf.view();
  EXPECT_DOUBLE_EQ(kreg::spmd::reduce_sum<double>(dev, view, n),
                   static_cast<double>(n));
  EXPECT_DOUBLE_EQ(
      kreg::spmd::reduce_sum<double>(
          dev, view, n, kreg::spmd::ReduceVariant::kInterleaved),
      static_cast<double>(n));
  const auto reports = dev.verifier().take_reports();
  ASSERT_GE(reports.size(), 2u);
  for (const VerifyReport& r : reports) {
    EXPECT_EQ(r.status, VerifyStatus::kVerified) << r.summary();
    EXPECT_TRUE(r.cooperative);
    EXPECT_GT(r.phases, 1u);
  }
}

}  // namespace
