// Google-benchmark microbenchmarks for the performance-critical primitives:
// the iterative quicksort (plain and with payload), the global radix
// argsort, the device reductions,
// the naive CV objective, and the per-observation sorted sweep.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/kreg.hpp"
#include "parallel/thread_pool.hpp"
#include "sort/argsort.hpp"
#include "sort/introsort.hpp"
#include "sort/iterative_quicksort.hpp"
#include "spmd/device.hpp"
#include "spmd/reduce.hpp"
#include "spmd/scan.hpp"

namespace {

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  kreg::rng::Stream s(seed);
  return s.uniforms(n);
}

void BM_IterativeQuicksort(benchmark::State& state) {
  const auto base = random_values(state.range(0), 1);
  std::vector<double> work(base.size());
  for (auto _ : state) {
    work = base;
    kreg::sort::iterative_quicksort(std::span<double>(work));
    benchmark::DoNotOptimize(work.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IterativeQuicksort)->Range(1 << 8, 1 << 15)->Complexity();

void BM_IterativeQuicksortKv(benchmark::State& state) {
  const auto base = random_values(state.range(0), 2);
  const auto payload_base = random_values(state.range(0), 3);
  std::vector<double> keys(base.size());
  std::vector<double> payload(base.size());
  for (auto _ : state) {
    keys = base;
    payload = payload_base;
    kreg::sort::iterative_quicksort_kv(std::span<double>(keys),
                                       std::span<double>(payload));
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IterativeQuicksortKv)->Range(1 << 8, 1 << 15)->Complexity();

// The global argsort with a tie key and a one-column gather, the shape of
// sort_dataset: range(1) = 1 runs it on a 1-worker pool, 0 on the global
// pool. Up to sort::kRadixGrain rows both run inline.
void BM_RadixArgsort(benchmark::State& state) {
  const auto keys = random_values(state.range(0), 5);
  const auto ties = random_values(state.range(0), 6);
  kreg::parallel::ThreadPool one(1);
  kreg::parallel::ThreadPool* pool = state.range(1) == 1 ? &one : nullptr;
  std::vector<double> gathered(keys.size());
  for (auto _ : state) {
    const kreg::sort::Ordering order = kreg::sort::argsort(
        std::span<const double>(keys),
        [&](std::size_t a, std::size_t b) {
          return kreg::sort::ordered_bits(ties[a]) <
                 kreg::sort::ordered_bits(ties[b]);
        },
        pool);
    order.for_each([&](std::size_t p, std::size_t row) {
      gathered[p] = ties[row];
    });
    benchmark::DoNotOptimize(gathered.data());
    benchmark::ClobberMemory();
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RadixArgsort)
    ->ArgsProduct({{1 << 11, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 20}, {1, 0}})
    ->ArgNames({"n", "one_worker"})
    ->UseRealTime();

void BM_Introsort(benchmark::State& state) {
  const auto base = random_values(state.range(0), 4);
  std::vector<double> work(base.size());
  for (auto _ : state) {
    work = base;
    kreg::sort::introsort(std::span<double>(work));
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_Introsort)->Range(1 << 8, 1 << 15);

void BM_DeviceReduceSum(benchmark::State& state) {
  kreg::spmd::Device device;
  const auto host = random_values(state.range(0), 5);
  auto buf = device.alloc_global<double>(host.size());
  device.copy_to_device(buf, std::span<const double>(host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kreg::spmd::reduce_sum<double>(device, buf.span()));
  }
}
BENCHMARK(BM_DeviceReduceSum)->Range(1 << 10, 1 << 18);

void BM_DeviceReduceSumInterleaved(benchmark::State& state) {
  // Harris reduction #1 (interleaved addressing) vs the sequential schedule
  // in BM_DeviceReduceSum — the paper's reduction-optimization lineage.
  kreg::spmd::Device device;
  const auto host = random_values(state.range(0), 5);
  auto buf = device.alloc_global<double>(host.size());
  device.copy_to_device(buf, std::span<const double>(host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kreg::spmd::reduce_sum<double>(
        device, buf.span(), 512, kreg::spmd::ReduceVariant::kInterleaved));
  }
}
BENCHMARK(BM_DeviceReduceSumInterleaved)->Range(1 << 10, 1 << 18);

void BM_DeviceInclusiveScan(benchmark::State& state) {
  kreg::spmd::Device device;
  const auto host = random_values(state.range(0), 12);
  auto buf = device.alloc_global<double>(host.size());
  for (auto _ : state) {
    state.PauseTiming();
    device.copy_to_device(buf, std::span<const double>(host));
    state.ResumeTiming();
    kreg::spmd::inclusive_scan<double>(device, buf.span());
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_DeviceInclusiveScan)->Range(1 << 10, 1 << 16);

void BM_DeviceReduceArgmin(benchmark::State& state) {
  kreg::spmd::Device device;
  const auto host = random_values(state.range(0), 6);
  auto buf = device.alloc_global<double>(host.size());
  device.copy_to_device(buf, std::span<const double>(host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kreg::spmd::reduce_argmin<double>(device, buf.span()));
  }
}
BENCHMARK(BM_DeviceReduceArgmin)->Range(1 << 10, 1 << 18);

void BM_CvScoreNaive(benchmark::State& state) {
  kreg::rng::Stream s(7);
  const auto data = kreg::data::paper_dgp(state.range(0), s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kreg::cv_score(data, 0.1));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CvScoreNaive)->Range(1 << 7, 1 << 11)->Complexity();

void BM_SweepObservation(benchmark::State& state) {
  kreg::rng::Stream s(8);
  const auto data = kreg::data::paper_dgp(state.range(0), s);
  const kreg::BandwidthGrid grid = kreg::BandwidthGrid::default_for(data, 50);
  const auto poly = kreg::sweep_polynomial(kreg::KernelType::kEpanechnikov);
  kreg::SweepWorkspace<double> workspace;
  std::vector<double> out(grid.size());
  std::size_t i = 0;
  for (auto _ : state) {
    kreg::sweep_observation<double>(data.x, data.y, i % data.size(),
                                    grid.values(), poly, workspace, out);
    benchmark::DoNotOptimize(out.data());
    ++i;
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SweepObservation)->Range(1 << 8, 1 << 13)->Complexity();

void BM_SweepFullProfile(benchmark::State& state) {
  kreg::rng::Stream s(9);
  const auto data = kreg::data::paper_dgp(state.range(0), s);
  const kreg::BandwidthGrid grid = kreg::BandwidthGrid::default_for(data, 50);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kreg::sweep_cv_profile(
        data, grid.values(), kreg::KernelType::kEpanechnikov));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SweepFullProfile)->Range(1 << 7, 1 << 11)->Complexity();

}  // namespace

BENCHMARK_MAIN();
