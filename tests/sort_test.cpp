// Unit and property tests for the sorting substrate, including the paper's
// iterative (explicit-stack) quicksort with auxiliary payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <vector>

#include "rng/stream.hpp"
#include "sort/argsort.hpp"
#include "sort/checks.hpp"
#include "sort/heapsort.hpp"
#include "sort/insertion_sort.hpp"
#include "sort/introsort.hpp"
#include "sort/iterative_quicksort.hpp"
#include "sort/partition.hpp"

namespace {

using kreg::rng::Stream;

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  return s.uniforms(n, -100.0, 100.0);
}

// ---- Adversarial input shapes -------------------------------------------

std::vector<double> sorted_input(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(i);
  }
  return v;
}

std::vector<double> reversed_input(std::size_t n) {
  std::vector<double> v = sorted_input(n);
  std::reverse(v.begin(), v.end());
  return v;
}

std::vector<double> organ_pipe(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(std::min(i, n - i));
  }
  return v;
}

std::vector<double> all_equal(std::size_t n) {
  return std::vector<double>(n, 3.14);
}

std::vector<double> few_distinct(std::size_t n, std::uint64_t seed) {
  Stream s(seed);
  std::vector<double> v(n);
  for (auto& x : v) {
    x = static_cast<double>(s.index(4));
  }
  return v;
}

struct ShapeCase {
  const char* name;
  std::vector<double> (*make)(std::size_t);
};

// ---- Plain key sorts: parameterized over algorithm and shape ------------

using SortFn = void (*)(std::span<double>);

void run_iterative_quicksort(std::span<double> a) {
  kreg::sort::iterative_quicksort(a);
}
void run_introsort(std::span<double> a) { kreg::sort::introsort(a); }
void run_heapsort(std::span<double> a) { kreg::sort::heapsort(a); }
void run_insertion(std::span<double> a) { kreg::sort::insertion_sort(a); }

// Algorithms are passed by name so the test parameter (and with it the
// discovered ctest name) prints as the algorithm rather than as a function
// address, which address-space randomisation changes on every run.
struct SortAlgo {
  const char* name;
  SortFn run;
};

void PrintTo(const SortAlgo& algo, std::ostream* os) { *os << algo.name; }

class SortAlgoTest : public ::testing::TestWithParam<SortAlgo> {};

TEST_P(SortAlgoTest, SortsRandomInputs) {
  for (std::size_t n : {0u, 1u, 2u, 3u, 15u, 16u, 17u, 100u, 1000u}) {
    std::vector<double> v = random_doubles(n, 1000 + n);
    std::vector<double> expected = v;
    std::sort(expected.begin(), expected.end());
    GetParam().run(std::span<double>(v));
    EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST_P(SortAlgoTest, SortsAdversarialShapes) {
  for (std::size_t n : {7u, 64u, 513u}) {
    for (auto make : {sorted_input, reversed_input, organ_pipe, all_equal}) {
      std::vector<double> v = make(n);
      std::vector<double> expected = v;
      std::sort(expected.begin(), expected.end());
      GetParam().run(std::span<double>(v));
      EXPECT_EQ(v, expected) << "n=" << n;
    }
  }
}

TEST_P(SortAlgoTest, SortsFewDistinctValues) {
  std::vector<double> v = few_distinct(777, 42);
  std::vector<double> expected = v;
  std::sort(expected.begin(), expected.end());
  GetParam().run(std::span<double>(v));
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SortAlgoTest,
    ::testing::Values(SortAlgo{"iterative_quicksort", run_iterative_quicksort},
                      SortAlgo{"introsort", run_introsort},
                      SortAlgo{"heapsort", run_heapsort},
                      SortAlgo{"insertion_sort", run_insertion}));

// ---- Key-value sorts ------------------------------------------------------

using SortKvFn = void (*)(std::span<double>, std::span<int>);

void run_quicksort_kv(std::span<double> k, std::span<int> v) {
  kreg::sort::iterative_quicksort_kv(k, v);
}
void run_heapsort_kv(std::span<double> k, std::span<int> v) {
  kreg::sort::heapsort_kv(k, v);
}
void run_insertion_kv(std::span<double> k, std::span<int> v) {
  kreg::sort::insertion_sort_kv(k, v);
}

struct SortKvAlgo {
  const char* name;
  SortKvFn run;
};

void PrintTo(const SortKvAlgo& algo, std::ostream* os) { *os << algo.name; }

class SortKvTest : public ::testing::TestWithParam<SortKvAlgo> {};

TEST_P(SortKvTest, KeysSortedAndPairsPreserved) {
  for (std::size_t n : {0u, 1u, 2u, 17u, 200u}) {
    std::vector<double> keys = random_doubles(n, 2000 + n);
    std::vector<int> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<int>(i);
    }
    const std::vector<double> keys_before = keys;
    const std::vector<int> values_before = values;

    GetParam().run(std::span<double>(keys), std::span<int>(values));

    EXPECT_TRUE(kreg::sort::is_sorted(std::span<const double>(keys)));
    EXPECT_TRUE(kreg::sort::is_paired_permutation(
        std::span<const double>(keys_before),
        std::span<const int>(values_before), std::span<const double>(keys),
        std::span<const int>(values)));
  }
}

TEST_P(SortKvTest, PayloadFollowsKeyExactly) {
  // With distinct keys, value i must end up wherever key i went.
  std::vector<double> keys = {5.0, -1.0, 3.5, 0.0, 9.75, -20.0};
  std::vector<int> values = {0, 1, 2, 3, 4, 5};
  GetParam().run(std::span<double>(keys), std::span<int>(values));
  const std::vector<double> expected_keys = {-20.0, -1.0, 0.0, 3.5, 5.0, 9.75};
  const std::vector<int> expected_values = {5, 1, 3, 2, 0, 4};
  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(values, expected_values);
}

INSTANTIATE_TEST_SUITE_P(
    AllKvAlgorithms, SortKvTest,
    ::testing::Values(SortKvAlgo{"iterative_quicksort_kv", run_quicksort_kv},
                      SortKvAlgo{"heapsort_kv", run_heapsort_kv},
                      SortKvAlgo{"insertion_sort_kv", run_insertion_kv}));

// ---- The paper's use case: distances with Y payload -----------------------

TEST(IterativeQuicksortKv, DistanceRowWithYPayload) {
  // Mimic one device thread: sort |x_i - x_l| carrying y_l.
  Stream s(77);
  const std::size_t n = 500;
  std::vector<double> x = s.uniforms(n);
  std::vector<double> y = s.uniforms(n, 0.0, 10.0);
  const double xi = x[123];

  std::vector<double> dist(n);
  std::vector<double> yrow = y;
  for (std::size_t l = 0; l < n; ++l) {
    dist[l] = std::abs(x[l] - xi);
  }
  const std::vector<double> dist_before = dist;
  const std::vector<double> y_before = yrow;

  kreg::sort::iterative_quicksort_kv(std::span<double>(dist),
                                     std::span<double>(yrow));

  EXPECT_TRUE(kreg::sort::is_sorted(std::span<const double>(dist)));
  EXPECT_DOUBLE_EQ(dist[0], 0.0);  // self distance first
  EXPECT_TRUE(kreg::sort::is_paired_permutation(
      std::span<const double>(dist_before), std::span<const double>(y_before),
      std::span<const double>(dist), std::span<const double>(yrow)));
}

TEST(IterativeQuicksort, CutoffVariantsAgree) {
  for (std::size_t cutoff : {1u, 2u, 8u, 64u}) {
    std::vector<double> v = random_doubles(333, 5);
    std::vector<double> expected = v;
    std::sort(expected.begin(), expected.end());
    kreg::sort::iterative_quicksort(std::span<double>(v), cutoff);
    EXPECT_EQ(v, expected) << "cutoff=" << cutoff;
  }
}

// ---- partition -------------------------------------------------------------

TEST(PartitionKv, SplitsAtBoundAndKeepsPairs) {
  for (std::size_t n : {0u, 1u, 2u, 17u, 200u}) {
    std::vector<double> keys = random_doubles(n, 3000 + n);
    std::vector<int> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = static_cast<int>(i);
    }
    const std::vector<double> keys_before = keys;
    const std::vector<int> values_before = values;
    const double bound = 25.0;

    const std::size_t q = kreg::sort::partition_kv(
        std::span<double>(keys), std::span<int>(values), bound);

    std::size_t expected = 0;
    for (double k : keys_before) {
      expected += k <= bound ? 1 : 0;
    }
    EXPECT_EQ(q, expected) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      if (i < q) {
        EXPECT_LE(keys[i], bound);
      } else {
        EXPECT_GT(keys[i], bound);
      }
    }
    EXPECT_TRUE(kreg::sort::is_paired_permutation(
        std::span<const double>(keys_before),
        std::span<const int>(values_before), std::span<const double>(keys),
        std::span<const int>(values)));
  }
}

TEST(PartitionKv, BoundaryBounds) {
  std::vector<double> keys = {3.0, 1.0, 2.0};
  std::vector<int> values = {30, 10, 20};
  // Bound below everything: nothing admitted.
  EXPECT_EQ(kreg::sort::partition_kv(std::span<double>(keys),
                                     std::span<int>(values), 0.5),
            0u);
  // Bound at the max (inclusive <=): everything admitted.
  EXPECT_EQ(kreg::sort::partition_kv(std::span<double>(keys),
                                     std::span<int>(values), 3.0),
            3u);
}

TEST(PartitionKeys, MatchesKvOnKeys) {
  std::vector<double> a = random_doubles(101, 11);
  std::vector<double> b = a;
  std::vector<int> payload(a.size(), 0);
  const std::size_t qa =
      kreg::sort::partition_keys(std::span<double>(a), 10.0);
  const std::size_t qb = kreg::sort::partition_kv(
      std::span<double>(b), std::span<int>(payload), 10.0);
  EXPECT_EQ(qa, qb);
}

// ---- argsort ---------------------------------------------------------------

TEST(Argsort, ProducesSortingPermutation) {
  std::vector<double> keys = random_doubles(321, 9);
  const auto perm = kreg::sort::argsort(std::span<const double>(keys));
  ASSERT_EQ(perm.size(), keys.size());
  for (std::size_t i = 1; i < perm.size(); ++i) {
    EXPECT_LE(keys[perm[i - 1]], keys[perm[i]]);
  }
  // perm is a permutation of 0..n-1.
  std::vector<std::size_t> sorted_perm = perm;
  std::sort(sorted_perm.begin(), sorted_perm.end());
  for (std::size_t i = 0; i < sorted_perm.size(); ++i) {
    EXPECT_EQ(sorted_perm[i], i);
  }
}

TEST(Argsort, ApplyPermutationRoundTrip) {
  std::vector<double> keys = random_doubles(64, 10);
  const auto perm = kreg::sort::argsort(std::span<const double>(keys));
  const auto sorted =
      kreg::sort::apply_permutation(std::span<const double>(keys), perm);
  EXPECT_TRUE(kreg::sort::is_sorted(std::span<const double>(sorted)));
}

TEST(Argsort, EmptyInput) {
  const std::vector<double> empty;
  EXPECT_TRUE(kreg::sort::argsort(std::span<const double>(empty)).empty());
}

// ---- Checks helpers --------------------------------------------------------

TEST(Checks, IsSortedDetectsOrder) {
  const std::vector<double> good = {1.0, 1.0, 2.0, 3.0};
  const std::vector<double> bad = {1.0, 3.0, 2.0};
  EXPECT_TRUE(kreg::sort::is_sorted(std::span<const double>(good)));
  EXPECT_FALSE(kreg::sort::is_sorted(std::span<const double>(bad)));
}

TEST(Checks, PairedPermutationCatchesBrokenAssociation) {
  const std::vector<double> k1 = {1.0, 2.0};
  const std::vector<int> v1 = {10, 20};
  const std::vector<double> k2 = {1.0, 2.0};
  const std::vector<int> swapped = {20, 10};  // association broken
  EXPECT_FALSE(kreg::sort::is_paired_permutation(
      std::span<const double>(k1), std::span<const int>(v1),
      std::span<const double>(k2), std::span<const int>(swapped)));
}

}  // namespace
