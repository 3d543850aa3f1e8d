// Tour of the SPMD device substrate: the programming model the paper's
// CUDA code targets, exposed as a library. Walks through memory allocation
// and its limits, an independent kernel launch, a cooperative reduction,
// and finally the full Program-4 bandwidth selection with its device-side
// statistics.
//
//   $ ./device_tour
#include <cstdio>
#include <numeric>
#include <vector>

#include "core/kreg.hpp"
#include "spmd/device.hpp"
#include "spmd/errors.hpp"
#include "spmd/reduce.hpp"

int main() {
  using kreg::spmd::Device;
  using kreg::spmd::LaunchConfig;

  Device device;  // simulated Tesla S10: 240 cores, 4 GB, 512 threads/block
  const auto& props = device.properties();
  std::printf("device: %s\n", props.name.c_str());
  std::printf("  %zu SMs x %zu cores = %zu cores, warp %zu\n",
              props.multiprocessor_count, props.cores_per_multiprocessor,
              props.total_cores(), props.warp_size);
  std::printf("  %zu MB global, %zu KB constant cache, %zu KB shared/block, "
              "max %zu threads/block\n\n",
              props.global_memory_bytes >> 20, props.constant_cache_bytes >> 10,
              props.shared_memory_per_block >> 10,
              props.max_threads_per_block);

  // --- Global memory and the allocation ledger ---------------------------
  {
    auto buf = device.alloc_global<float>(1 << 20);
    std::printf("allocated 4 MB: ledger shows %zu bytes in use, peak %zu\n",
                device.global_allocated(), device.global_peak());
  }
  std::printf("buffer destroyed: ledger back to %zu bytes\n\n",
              device.global_allocated());

  // --- An independent kernel: square every element -----------------------
  const std::size_t n = 10000;
  auto data = device.alloc_global<double>(n);
  std::vector<double> host(n);
  std::iota(host.begin(), host.end(), 0.0);
  device.copy_to_device(data, std::span<const double>(host));
  std::span<double> view = data.span();
  device.launch(LaunchConfig::cover(n, 256),
                [view, n](const kreg::spmd::ThreadCtx& t) {
                  const std::size_t j = t.global_idx();
                  if (j < n) {
                    view[j] = view[j] * view[j];
                  }
                });
  std::printf("independent kernel squared %zu elements; element 7 = %.0f\n",
              n, view[7]);

  // --- A cooperative (shared-memory) reduction ----------------------------
  const double total = kreg::spmd::reduce_sum<double>(device, view);
  const double expected = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0;
  std::printf("Harris-style tree reduction: sum of squares = %.6e (closed "
              "form %.6e)\n\n",
              total, expected);

  // --- The paper's capacity limits, on demand ------------------------------
  try {
    auto hopeless = device.alloc_global<float>(2ULL << 30);  // 8 GB
  } catch (const kreg::spmd::DeviceAllocError& e) {
    std::printf("8 GB request rejected: %s\n", e.what());
  }
  try {
    std::vector<float> too_many(4096, 1.0f);
    auto c = device.upload_constant<float>(too_many);
  } catch (const kreg::spmd::ConstantCapacityError& e) {
    std::printf("4096-bandwidth constant upload rejected: %s\n\n", e.what());
  }

  // --- Program 4 end to end -------------------------------------------------
  kreg::rng::Stream stream(5);
  const kreg::data::Dataset sample = kreg::data::paper_dgp(2000, stream);
  const kreg::BandwidthGrid grid = kreg::BandwidthGrid::default_for(sample, 50);
  kreg::SpmdSelectorConfig cfg;  // float, 512 threads/block, like the paper
  // The paper's per-row sort with its row reductions and device argmin (the
  // default window sweep folds its scores in order and launches none).
  cfg.algorithm = kreg::SweepAlgorithm::kPerRowSort;
  const auto result = kreg::SpmdGridSelector(device, cfg).select(sample, grid);
  std::printf("Program 4 on n=2000, k=50: h* = %.4f, CV = %.6f\n",
              result.bandwidth, result.cv_score);
  std::printf("device stats: %zu independent launches, %zu cooperative "
              "launches, %zu blocks, %zu threads, peak memory %.1f MB\n",
              device.stats().kernel_launches,
              device.stats().cooperative_launches,
              device.stats().blocks_executed, device.stats().threads_executed,
              static_cast<double>(device.global_peak()) / (1 << 20));
  return 0;
}
