// Tests for the Harris-style device reductions: agreement with serial
// reference across sizes/block dims/variants, argmin tie-breaking, the
// two-level grid reduction and the one-launch row reductions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "rng/stream.hpp"
#include "spmd/device.hpp"
#include "spmd/reduce.hpp"

namespace {

using kreg::rng::Stream;
using kreg::spmd::ArgminResult;
using kreg::spmd::Device;
using kreg::spmd::DeviceBuffer;
using kreg::spmd::DeviceProperties;
using kreg::spmd::ReduceVariant;
using kreg::spmd::RowLayout;

template <class T>
DeviceBuffer<T> upload(Device& dev, const std::vector<T>& host) {
  auto buf = dev.alloc_global<T>(host.size());
  dev.copy_to_device(buf, std::span<const T>(host));
  return buf;
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return s.uniforms(n, -10.0, 10.0);
}

// ---- Parameterized: (size, block_dim, variant) ---------------------------

using SumParam = std::tuple<std::size_t, std::size_t, ReduceVariant>;

class ReduceSumTest : public ::testing::TestWithParam<SumParam> {};

TEST_P(ReduceSumTest, MatchesSerialAccumulate) {
  const auto [n, block_dim, variant] = GetParam();
  Device dev;
  const std::vector<double> host = random_values(n, 100 + n);
  auto buf = upload(dev, host);
  const double expected = std::accumulate(host.begin(), host.end(), 0.0);
  const double got = kreg::spmd::reduce_sum<double>(
      dev, buf.span(), block_dim, variant);
  EXPECT_NEAR(got, expected, 1e-9 * std::max(1.0, std::abs(expected)))
      << "n=" << n << " block=" << block_dim;
}

INSTANTIATE_TEST_SUITE_P(
    SizesBlocksVariants, ReduceSumTest,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 3, 31, 32, 33, 512, 1000, 4097),
        ::testing::Values<std::size_t>(1, 2, 32, 512),
        ::testing::Values(ReduceVariant::kSequential,
                          ReduceVariant::kInterleaved)));

TEST(ReduceSum, EmptyInputIsZero) {
  Device dev;
  const std::vector<double> empty;
  EXPECT_EQ(kreg::spmd::reduce_sum<double>(dev, std::span<const double>(empty)),
            0.0);
}

TEST(ReduceSum, FloatPrecisionPath) {
  Device dev;
  std::vector<float> host(1000, 0.5f);
  auto buf = upload(dev, host);
  EXPECT_FLOAT_EQ(kreg::spmd::reduce_sum<float>(dev, buf.span()), 500.0f);
}

TEST(ReduceSum, NonPowerOfTwoBlockRoundedDown) {
  Device dev;
  const std::vector<double> host = random_values(256, 7);
  auto buf = upload(dev, host);
  const double expected = std::accumulate(host.begin(), host.end(), 0.0);
  // 100 threads/block rounds down to 64; result must be unaffected.
  EXPECT_NEAR(kreg::spmd::reduce_sum<double>(dev, buf.span(), 100), expected,
              1e-9);
}

TEST(ReduceSum, VariantsAgreeBitwiseOnIntegers) {
  // With integer-valued doubles both schedules are exact, so they must
  // agree exactly, not just within tolerance.
  Device dev;
  std::vector<double> host(777);
  std::iota(host.begin(), host.end(), 1.0);
  auto buf = upload(dev, host);
  const double seq = kreg::spmd::reduce_sum<double>(
      dev, buf.span(), 512, ReduceVariant::kSequential);
  const double inter = kreg::spmd::reduce_sum<double>(
      dev, buf.span(), 512, ReduceVariant::kInterleaved);
  EXPECT_EQ(seq, inter);
  EXPECT_EQ(seq, 777.0 * 778.0 / 2.0);
}

// ---- argmin ---------------------------------------------------------------

class ReduceArgminTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ReduceArgminTest, MatchesSerialArgmin) {
  const auto [n, block_dim] = GetParam();
  Device dev;
  const std::vector<double> host = random_values(n, 500 + n);
  auto buf = upload(dev, host);
  std::size_t expected = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (host[i] < host[expected]) {
      expected = i;
    }
  }
  const ArgminResult<double> got =
      kreg::spmd::reduce_argmin<double>(dev, buf.span(), block_dim);
  EXPECT_EQ(got.index, expected);
  EXPECT_EQ(got.value, host[expected]);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndBlocks, ReduceArgminTest,
    ::testing::Combine(
        ::testing::Values<std::size_t>(1, 2, 17, 64, 1000, 2048, 5000),
        ::testing::Values<std::size_t>(1, 8, 512)));

TEST(ReduceArgmin, TieBreaksToSmallestIndex) {
  Device dev;
  std::vector<double> host = {5.0, 1.0, 3.0, 1.0, 1.0, 9.0};
  auto buf = upload(dev, host);
  const auto got = kreg::spmd::reduce_argmin<double>(dev, buf.span(), 2);
  EXPECT_EQ(got.index, 1u);
  EXPECT_EQ(got.value, 1.0);
}

TEST(ReduceArgmin, MinimumAtEnds) {
  Device dev;
  std::vector<double> front = {-7.0, 1.0, 2.0, 3.0};
  std::vector<double> back = {1.0, 2.0, 3.0, -7.0};
  auto bf = upload(dev, front);
  auto bb = upload(dev, back);
  EXPECT_EQ(kreg::spmd::reduce_argmin<double>(dev, bf.span()).index, 0u);
  EXPECT_EQ(kreg::spmd::reduce_argmin<double>(dev, bb.span()).index, 3u);
}

TEST(ReduceArgmin, EmptyInputReturnsSentinel) {
  Device dev;
  const std::vector<double> empty;
  const auto got =
      kreg::spmd::reduce_argmin<double>(dev, std::span<const double>(empty));
  EXPECT_EQ(got.index, 0u);
  EXPECT_EQ(got.value, std::numeric_limits<double>::infinity());
}

TEST(ReduceMin, MatchesArgminValue) {
  Device dev;
  const std::vector<double> host = random_values(321, 9);
  auto buf = upload(dev, host);
  const double min_value = kreg::spmd::reduce_min<double>(dev, buf.span());
  EXPECT_EQ(min_value, *std::min_element(host.begin(), host.end()));
}

// ---- Two-level grid reduction ---------------------------------------------

class ReduceGridTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReduceGridTest, MatchesSerialAccumulate) {
  const std::size_t n = GetParam();
  Device dev;
  const std::vector<double> host = random_values(n, 900 + n);
  auto buf = upload(dev, host);
  const double expected = std::accumulate(host.begin(), host.end(), 0.0);
  const double got = kreg::spmd::reduce_sum_grid<double>(dev, buf.span(), 64);
  EXPECT_NEAR(got, expected, 1e-9 * std::max(1.0, std::abs(expected)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, ReduceGridTest,
                         ::testing::Values<std::size_t>(1, 63, 64, 65, 127,
                                                        128, 129, 10000,
                                                        100001));

TEST(ReduceGrid, AgreesWithSingleBlock) {
  Device dev;
  const std::vector<double> host = random_values(3000, 11);
  auto buf = upload(dev, host);
  const double single = kreg::spmd::reduce_sum<double>(dev, buf.span(), 512);
  const double grid = kreg::spmd::reduce_sum_grid<double>(dev, buf.span(), 512);
  EXPECT_NEAR(single, grid, 1e-9);
}

// ---- reduce_sum_rows: R sums in one launch ---------------------------------

/// Equal bit patterns: tells -0.0 from 0.0 and NaN payloads apart.
template <class T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Values over sixteen decades with both signs, so any change in the order
/// of the additions changes the rounded sums.
template <class T>
std::vector<T> wide_values(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  std::vector<T> out(n);
  for (T& v : out) {
    const double magnitude = std::pow(10.0, s.uniform(-8.0, 8.0));
    v = static_cast<T>(s.uniform() < 0.5 ? -magnitude : magnitude);
  }
  return out;
}

/// reduce_sum over row r of `host` laid out as `layout`, through its own
/// contiguous upload.
template <class T>
T separate_row_sum(Device& dev, const std::vector<T>& host, RowLayout layout,
                   std::size_t r, std::size_t tpb, ReduceVariant variant) {
  std::vector<T> row(layout.length);
  for (std::size_t j = 0; j < layout.length; ++j) {
    row[j] = host[r * layout.row_pitch + j * layout.stride];
  }
  auto buf = upload(dev, row);
  return kreg::spmd::reduce_sum<T>(dev, buf.view(), tpb, variant);
}

template <class T>
void expect_rows_match_separate_sums(Device& dev, std::size_t length,
                                     std::size_t rows, bool interleaved,
                                     ReduceVariant variant) {
  const std::size_t tpb = dev.properties().max_threads_per_block;
  const RowLayout layout = interleaved ? RowLayout::interleaved(rows, length)
                                       : RowLayout::contiguous(rows, length);
  const std::vector<T> host = wide_values<T>(rows * length, 31 * rows + length);
  auto buf = upload(dev, host);
  std::vector<T> got(rows);
  const std::size_t before = dev.stats().cooperative_launches;
  kreg::spmd::reduce_sum_rows<T>(dev, buf.view(), layout, std::span<T>(got),
                                 tpb, variant);
  const std::size_t grid_limit = dev.properties().max_grid_blocks;
  EXPECT_EQ(dev.stats().cooperative_launches - before,
            (rows + grid_limit - 1) / grid_limit);
  for (std::size_t r = 0; r < rows; ++r) {
    const T want = separate_row_sum(dev, host, layout, r, tpb, variant);
    ASSERT_TRUE(same_bits(got[r], want))
        << "row " << r << ": " << got[r] << " vs " << want;
  }
}

TEST(ReduceSumRows, EqualsSeparateReduceSumsBitwise) {
  // The tiny device's 64-thread blocks make D = 64 and its 1,024-block grid
  // limit splits R = 2,000 rows over two launches.
  Device dev(DeviceProperties::tiny(std::size_t{64} << 20));
  const std::size_t d = 64;
  for (const ReduceVariant variant :
       {ReduceVariant::kSequential, ReduceVariant::kInterleaved}) {
    for (const std::size_t length : {std::size_t{1}, d - 1, d, 3 * d + 5}) {
      for (const std::size_t rows :
           {std::size_t{1}, std::size_t{7}, std::size_t{2000}}) {
        for (const bool interleaved : {false, true}) {
          SCOPED_TRACE("variant=" + std::string(to_string(variant)) +
                       " length=" + std::to_string(length) + " rows=" +
                       std::to_string(rows) +
                       (interleaved ? " interleaved" : " contiguous"));
          expect_rows_match_separate_sums<double>(dev, length, rows,
                                                  interleaved, variant);
          expect_rows_match_separate_sums<float>(dev, length, rows,
                                                 interleaved, variant);
        }
      }
    }
  }
}

TEST(ReduceSumRows, PaperBlockSizeOnTheDefaultDevice) {
  Device dev;  // 512-thread blocks
  const std::size_t d = 512;
  for (const ReduceVariant variant :
       {ReduceVariant::kSequential, ReduceVariant::kInterleaved}) {
    for (const bool interleaved : {false, true}) {
      expect_rows_match_separate_sums<double>(dev, 3 * d + 5, 7, interleaved,
                                              variant);
      expect_rows_match_separate_sums<float>(dev, d - 1, 7, interleaved,
                                             variant);
    }
  }
}

TEST(ReduceSumRows, WritesDeviceOutputsAndEmptyRowsAreZero) {
  Device dev;
  const std::vector<double> host = wide_values<double>(5 * 300, 17);
  auto buf = upload(dev, host);
  auto out = dev.alloc_global<double>(5, "row-sums");
  kreg::spmd::reduce_sum_rows<double>(dev, buf.view(),
                                      RowLayout::contiguous(5, 300),
                                      out.view());
  for (std::size_t r = 0; r < 5; ++r) {
    const double want = kreg::spmd::reduce_sum<double>(
        dev, buf.view().subview(r * 300, 300));
    EXPECT_TRUE(same_bits(out.span()[r], want)) << "row " << r;
  }
  std::vector<double> zeros(3, 1.0);
  const std::size_t before = dev.stats().cooperative_launches;
  kreg::spmd::reduce_sum_rows<double>(dev, buf.view(),
                                      RowLayout::contiguous(3, 0),
                                      std::span<double>(zeros));
  EXPECT_EQ(dev.stats().cooperative_launches, before);  // nothing to launch
  EXPECT_EQ(zeros, std::vector<double>(3, 0.0));
}

}  // namespace
