// Unit tests for the deterministic RNG: reproducibility, fork independence,
// sampling helpers, and distribution sanity.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace gocast {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_below(1000000), b.next_below(1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_below(1U << 30) == b.next_below(1U << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkByLabelIsStable) {
  Rng parent(7);
  Rng a = parent.fork("network");
  Rng b = Rng(7).fork("network");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
  }
}

TEST(Rng, ForksWithDifferentLabelsAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_below(1U << 30) == b.next_below(1U << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkByIndexIsStable) {
  Rng parent(9);
  Rng a = parent.fork(std::uint64_t{5});
  Rng b = Rng(9).fork(std::uint64_t{5});
  EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
}

// A holder that only forks may keep the seed instead of the generator:
// rebuilding from seed() must yield the same children, even after the
// original generator has been drawn from.
TEST(Rng, ForkFromSeedMatchesFork) {
  Rng parent = Rng(13).fork("multigroup");
  Rng rebuilt(parent.seed());
  (void)parent.next_below(1U << 30);
  Rng a = parent.fork(std::uint64_t{3});
  Rng b = rebuilt.fork(std::uint64_t{3});
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
  }
}

TEST(Rng, ForkDoesNotConsumeParentStream) {
  Rng a(11);
  Rng b(11);
  (void)a.fork("child");
  EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW((void)rng.next_below(0), AssertionError);
}

TEST(Rng, NextUnitInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextUnitMeanIsCentered) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_unit();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(8);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.next_gaussian(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFraction) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(14);
  std::vector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  std::vector<int> s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Rng, SampleMoreThanPopulationReturnsAll) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3};
  std::vector<int> s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(16);
  std::vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (int x : rng.sample(v, 3)) ++counts[static_cast<std::size_t>(x)];
  }
  // Each element should be picked ~1500 times (3/10 of 5000).
  for (int c : counts) EXPECT_NEAR(c, 1500, 200);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng rng(17);
  std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), AssertionError);
}

TEST(SplitMix, KnownGoodMixing) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 1;
  // Nearby seeds must produce wildly different outputs.
  std::uint64_t a = splitmix64(s1);
  std::uint64_t b = splitmix64(s2);
  EXPECT_NE(a, b);
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 16);
}

TEST(HashLabel, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("alpha"), hash_label("beta"));
  EXPECT_NE(hash_label(""), hash_label("a"));
  EXPECT_EQ(hash_label("stable"), hash_label("stable"));
}

}  // namespace
}  // namespace gocast
