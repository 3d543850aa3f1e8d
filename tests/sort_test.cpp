// Unit and property tests for the sorting substrate, including the paper's
// iterative (explicit-stack) quicksort with auxiliary payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <ostream>
#include <span>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
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

// The argsort's order under the same comparator: (key, tie) bits ascending,
// gathered into (key, tie) columns so identical pairs compare equal.
struct Columns {
  std::vector<double> keys;
  std::vector<double> ties;
};

Columns std_sort_columns(const std::vector<double>& keys,
                         const std::vector<double>& ties) {
  std::vector<std::size_t> rows(keys.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
    const auto ka = kreg::sort::ordered_bits(keys[a]);
    const auto kb = kreg::sort::ordered_bits(keys[b]);
    if (ka != kb) {
      return ka < kb;
    }
    return kreg::sort::ordered_bits(ties[a]) < kreg::sort::ordered_bits(ties[b]);
  });
  Columns out;
  for (const std::size_t row : rows) {
    out.keys.push_back(keys[row]);
    out.ties.push_back(ties[row]);
  }
  return out;
}

Columns argsort_columns(const std::vector<double>& keys,
                        const std::vector<double>& ties,
                        kreg::parallel::ThreadPool* pool = nullptr) {
  const kreg::sort::Ordering order = kreg::sort::argsort(
      std::span<const double>(keys),
      [&](std::size_t a, std::size_t b) {
        return kreg::sort::ordered_bits(ties[a]) <
               kreg::sort::ordered_bits(ties[b]);
      },
      pool);
  Columns out{std::vector<double>(keys.size()),
              std::vector<double>(keys.size())};
  order.for_each([&](std::size_t p, std::size_t row) {
    out.keys[p] = keys[row];
    out.ties[p] = ties[row];
  });
  for (std::size_t p = 0; p < keys.size(); ++p) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(order.keys()[p]),
              std::bit_cast<std::uint64_t>(out.keys[p]))
        << "keys()[" << p << "] is not the key of the row gathered at " << p;
  }
  return out;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " at " << i << ": " << got[i] << " vs " << want[i];
  }
}

void expect_matches_std_sort(const std::vector<double>& keys,
                             const std::vector<double>& ties,
                             kreg::parallel::ThreadPool* pool = nullptr) {
  const Columns got = argsort_columns(keys, ties, pool);
  const Columns want = std_sort_columns(keys, ties);
  expect_same_bits(got.keys, want.keys, "keys");
  expect_same_bits(got.ties, want.ties, "ties");
  expect_same_bits(kreg::sort::sorted_keys(keys, pool), want.keys,
                   "sorted_keys");
}

// Keys on a coarse lattice (heavy ties) with independent tie-breakers.
std::vector<double> lattice(std::size_t n, std::uint64_t seed, double step) {
  std::vector<double> v = random_doubles(n, seed);
  for (double& x : v) {
    x = std::round(x / step) * step;
  }
  return v;
}

TEST(Argsort, ProducesSortingPermutation) {
  std::vector<double> keys = random_doubles(321, 9);
  const auto order = kreg::sort::argsort(
      std::span<const double>(keys), [](std::size_t, std::size_t) {
        return false;
      });
  ASSERT_EQ(order.size(), keys.size());
  std::vector<std::size_t> perm(keys.size());
  order.for_each([&](std::size_t p, std::size_t row) { perm[p] = row; });
  for (std::size_t p = 0; p < order.size(); ++p) {
    EXPECT_EQ(order.keys()[p], keys[perm[p]]);
  }
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
  // The gather (for_each) applies the permutation to a second column.
  std::vector<double> keys = random_doubles(64, 10);
  std::vector<double> negated(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    negated[i] = -keys[i];
  }
  const auto order = kreg::sort::argsort(
      std::span<const double>(keys),
      [](std::size_t, std::size_t) { return false; });
  std::vector<double> sorted(keys.size());
  std::vector<double> sorted_negated(keys.size());
  order.for_each([&](std::size_t p, std::size_t row) {
    sorted[p] = keys[row];
    sorted_negated[p] = negated[row];
  });
  EXPECT_TRUE(kreg::sort::is_sorted(std::span<const double>(sorted)));
  for (std::size_t p = 0; p < sorted.size(); ++p) {
    EXPECT_EQ(sorted_negated[p], -sorted[p]);
  }
}

TEST(Argsort, EmptyInput) {
  const std::vector<double> empty;
  EXPECT_EQ(kreg::sort::argsort(std::span<const double>(empty),
                                [](std::size_t, std::size_t) { return false; })
                .size(),
            0u);
  EXPECT_TRUE(kreg::sort::sorted_keys(empty).empty());
}

TEST(Argsort, SingleRow) {
  const std::vector<double> one = {-3.5};
  const auto order = kreg::sort::argsort(
      std::span<const double>(one),
      [](std::size_t, std::size_t) { return false; });
  ASSERT_EQ(order.size(), 1u);
  std::size_t calls = 0;
  order.for_each([&](std::size_t p, std::size_t row) {
    EXPECT_EQ(p, 0u);
    EXPECT_EQ(row, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(order.keys()[0], -3.5);
}

TEST(Argsort, TiesFollowTheTieKeyAndNegativeZeroPrecedesPositiveZero) {
  // Each key value repeats with shuffled tie keys; ±0.0 compare equal as
  // doubles but are distinct keys, −0.0 first.
  std::vector<double> keys;
  std::vector<double> ties;
  Stream s(77);
  for (std::size_t i = 0; i < 600; ++i) {
    const double lattice_key[] = {-0.0, 0.0, 1.0, -2.0, 0.5};
    keys.push_back(lattice_key[i % 5]);
    ties.push_back(std::round(s.uniform(-4.0, 4.0)) * 0.25);  // tied too
  }
  ties[3] = -0.0;
  ties[8] = 0.0;
  expect_matches_std_sort(keys, ties);
  const Columns got = argsort_columns(keys, ties);
  std::size_t last_negative_zero = 0;
  std::size_t first_positive_zero = got.keys.size();
  for (std::size_t p = 0; p < got.keys.size(); ++p) {
    if (got.keys[p] == 0.0) {
      if (std::signbit(got.keys[p])) {
        last_negative_zero = p;
      } else {
        first_positive_zero = std::min(first_positive_zero, p);
      }
    }
    if (p > 0 && std::bit_cast<std::uint64_t>(got.keys[p]) ==
                     std::bit_cast<std::uint64_t>(got.keys[p - 1])) {
      EXPECT_LE(kreg::sort::ordered_bits(got.ties[p - 1]),
                kreg::sort::ordered_bits(got.ties[p]))
          << "tie order at " << p;
    }
  }
  EXPECT_LT(last_negative_zero, first_positive_zero);
}

TEST(Argsort, NegativesSubnormalsAndInfinities) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const double inf = std::numeric_limits<double>::infinity();
  const double big = std::numeric_limits<double>::max();
  std::vector<double> keys = {tiny,        -tiny,      min_normal / 2,
                              -min_normal, min_normal, -min_normal / 3,
                              inf,         -inf,       big,
                              -big,        -0.0,       0.0,
                              -1e-300,     1e-300,     -7.25,
                              7.25,        3 * tiny,   -3 * tiny};
  const std::vector<double> extra = random_doubles(200, 31);
  keys.insert(keys.end(), extra.begin(), extra.end());
  const std::vector<double> ties(keys.size(), 1.0);
  expect_matches_std_sort(keys, ties);
  const std::vector<double> sorted = kreg::sort::sorted_keys(keys);
  for (std::size_t p = 1; p < sorted.size(); ++p) {
    EXPECT_LE(sorted[p - 1], sorted[p]) << "at " << p;
  }
  EXPECT_EQ(sorted.front(), -inf);
  EXPECT_EQ(sorted.back(), inf);
}

TEST(Argsort, ConstantDigitsAreSkipped) {
  // Keys in [1, 2) share sign and exponent, so the top 11-bit digit is
  // constant and five passes run; integers below 512 leave every fraction
  // bit under bit 44 zero (two passes); 1 + m·2⁻⁵² for m < 2048 varies in
  // the lowest digit alone (one pass, no scratch half). Odd and even pass
  // counts must both land in the result.
  const std::size_t n = 5000;
  std::vector<double> unit = random_doubles(n, 41);
  for (double& x : unit) {
    x = 1.0 + std::abs(x) / 128.0;
  }
  std::vector<double> integers(n);
  std::vector<double> lowest(n);
  Stream s(43);
  for (std::size_t i = 0; i < n; ++i) {
    integers[i] = std::floor(s.uniform(0.0, 512.0));
    lowest[i] = 1.0 + std::floor(s.uniform(0.0, 2048.0)) * 0x1p-52;
  }
  const std::vector<double> ties = random_doubles(n, 47);
  expect_matches_std_sort(unit, ties);
  expect_matches_std_sort(integers, ties);
  expect_matches_std_sort(lowest, ties);
  // Every digit constant: one key repeated, ordered by the ties alone.
  expect_matches_std_sort(std::vector<double>(n, 2.5), ties);
}

TEST(Argsort, GrainEdges) {
  kreg::parallel::ThreadPool pool(4);
  for (const std::size_t n :
       {kreg::sort::kRadixGrain - 1, kreg::sort::kRadixGrain,
        kreg::sort::kRadixGrain + 1, 3 * kreg::sort::kRadixGrain + 7}) {
    SCOPED_TRACE(n);
    expect_matches_std_sort(lattice(n, n, 0.5), random_doubles(n, n + 1),
                            &pool);
  }
}

TEST(Argsort, MatchesStdSortAtTwoToTheTwenty) {
  const std::size_t n = std::size_t{1} << 20;
  expect_matches_std_sort(lattice(n, 5, 0.001), lattice(n, 6, 0.5));
  expect_matches_std_sort(random_doubles(n, 7), random_doubles(n, 8));
}

TEST(Argsort, SameRowsOnEveryPoolAndFromAWorker) {
  const std::size_t n = 5 * kreg::sort::kRadixGrain + 3;
  const std::vector<double> keys = lattice(n, 11, 0.01);
  const std::vector<double> ties = lattice(n, 12, 1.0);
  const auto by_tie = [&](std::size_t a, std::size_t b) {
    return kreg::sort::ordered_bits(ties[a]) <
           kreg::sort::ordered_bits(ties[b]);
  };
  const auto rows_of = [](const kreg::sort::Ordering& order) {
    std::vector<std::size_t> rows(order.size());
    order.for_each([&](std::size_t p, std::size_t row) { rows[p] = row; });
    return rows;
  };
  kreg::parallel::ThreadPool one(1);
  const std::vector<std::size_t> want =
      rows_of(kreg::sort::argsort(std::span<const double>(keys), by_tie, &one));
  for (const std::size_t workers : {2, 4}) {
    kreg::parallel::ThreadPool pool(workers);
    EXPECT_EQ(rows_of(kreg::sort::argsort(std::span<const double>(keys),
                                          by_tie, &pool)),
              want)
        << workers << " workers";
    // From one of the pool's own workers the parts run in order there.
    std::vector<std::size_t> nested;
    kreg::parallel::parallel_for(
        1,
        [&](std::size_t) {
          nested = rows_of(kreg::sort::argsort(std::span<const double>(keys),
                                               by_tie, &pool));
        },
        &pool);
    EXPECT_EQ(nested, want) << "nested on " << workers << " workers";
  }
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
