// Tests for the KMV distinct-count sketch and the keyed bottom-k sketch.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/data/zipf.h"
#include "src/sketch/kmv.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace sketchsample {
namespace {

TEST(KmvTest, NeedsKAtLeastTwo) {
  EXPECT_THROW(KmvSketch(1, 1), std::invalid_argument);
  EXPECT_NO_THROW(KmvSketch(2, 1));
}

TEST(KmvTest, ExactBelowK) {
  KmvSketch sketch(64, 7);
  for (uint64_t v = 0; v < 40; ++v) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 40.0);
  // Duplicates don't change anything.
  for (uint64_t v = 0; v < 40; ++v) sketch.Update(v);
  EXPECT_DOUBLE_EQ(sketch.EstimateDistinct(), 40.0);
  EXPECT_EQ(sketch.retained(), 40u);
}

TEST(KmvTest, EstimatesLargeCardinalities) {
  constexpr uint64_t kDistinct = 100000;
  KmvSketch sketch(1024, 3);
  for (uint64_t v = 0; v < kDistinct; ++v) sketch.Update(v);
  // Relative error ~ 1/sqrt(k) ≈ 3%; allow 5 sigma.
  EXPECT_NEAR(sketch.EstimateDistinct(), static_cast<double>(kDistinct),
              5.0 * kDistinct / std::sqrt(1024.0));
}

TEST(KmvTest, DuplicateHeavyStreamCountsDistinctOnly) {
  constexpr size_t kDomain = 5000;
  ZipfSampler sampler(kDomain, 1.0);
  Xoshiro256 rng(5);
  KmvSketch sketch(512, 9);
  std::vector<bool> seen(kDomain, false);
  size_t truth = 0;
  for (int i = 0; i < 200000; ++i) {
    const uint64_t v = sampler.Next(rng);
    if (!seen[v]) {
      seen[v] = true;
      ++truth;
    }
    sketch.Update(v);
  }
  EXPECT_NEAR(sketch.EstimateDistinct(), static_cast<double>(truth),
              5.0 * truth / std::sqrt(512.0));
}

TEST(KmvTest, IsUnbiasedOverSeeds) {
  constexpr uint64_t kDistinct = 5000;
  RunningStats stats;
  for (int rep = 0; rep < 300; ++rep) {
    KmvSketch sketch(256, MixSeed(11, rep));
    for (uint64_t v = 0; v < kDistinct; ++v) sketch.Update(v);
    stats.Add(sketch.EstimateDistinct());
  }
  EXPECT_NEAR(stats.Mean(), static_cast<double>(kDistinct),
              5.0 * stats.StdError());
}

TEST(KmvTest, MergeEstimatesUnionCardinality) {
  KmvSketch a(512, 21), b(512, 21);
  // Overlapping streams: |A| = 30000, |B| = 30000, |A ∪ B| = 45000.
  for (uint64_t v = 0; v < 30000; ++v) a.Update(v);
  for (uint64_t v = 15000; v < 45000; ++v) b.Update(v);
  a.Merge(b);
  EXPECT_NEAR(a.EstimateDistinct(), 45000.0,
              5.0 * 45000.0 / std::sqrt(512.0));
}

TEST(KmvTest, MergeRequiresSameSeedAndK) {
  KmvSketch a(64, 1), b(64, 2), c(128, 1);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(KmvTest, MergeWithEmptyIsIdentity) {
  KmvSketch a(64, 3), empty(64, 3);
  for (uint64_t v = 0; v < 1000; ++v) a.Update(v);
  const double before = a.EstimateDistinct();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.EstimateDistinct(), before);
}

// ---------------------------------------------------------------------------
// Differential tests: the flat (sorted-vector) bottom-k sketches against
// node-based references that keep the original std::set / std::map
// algorithm verbatim. Every observable — retained hashes, keys, weights and
// the estimates built on them — must match after any mix of updates and
// merges.

struct RefKmv {
  size_t k;
  uint64_t seed;
  std::set<uint64_t> minima;

  void Update(uint64_t key) {
    const uint64_t h = MixSeed(seed, key);
    if (minima.size() < k) {
      minima.insert(h);
      return;
    }
    const auto largest = std::prev(minima.end());
    if (h < *largest && minima.insert(h).second) {
      minima.erase(std::prev(minima.end()));
    }
  }
  void Merge(const RefKmv& other) {
    for (uint64_t h : other.minima) minima.insert(h);
    while (minima.size() > k) minima.erase(std::prev(minima.end()));
  }
  std::vector<uint64_t> Sorted() const {
    return std::vector<uint64_t>(minima.begin(), minima.end());
  }
};

struct RefKeyedKmv {
  size_t k;
  uint64_t seed;
  std::map<uint64_t, KeyedKmvSketch::Entry> entries;

  void Update(uint64_t key) {
    const uint64_t h = MixSeed(seed, key);
    const auto it = entries.find(h);
    if (it != entries.end()) {
      ++it->second.weight;
      return;
    }
    if (entries.size() < k) {
      entries.emplace(h, KeyedKmvSketch::Entry{h, key, 1});
      return;
    }
    const auto largest = std::prev(entries.end());
    if (h < largest->first) {
      entries.erase(largest);
      entries.emplace(h, KeyedKmvSketch::Entry{h, key, 1});
    }
  }
  void Merge(const RefKeyedKmv& other) {
    for (const auto& [hash, entry] : other.entries) {
      const auto it = entries.find(hash);
      if (it != entries.end()) {
        it->second.weight += entry.weight;
      } else {
        entries.emplace(hash, entry);
      }
    }
    while (entries.size() > k) entries.erase(std::prev(entries.end()));
  }
};

void ExpectSameKmv(const KmvSketch& flat, const RefKmv& ref) {
  ASSERT_EQ(flat.minima(), ref.Sorted());
  EXPECT_EQ(flat.retained(), ref.minima.size());
}

void ExpectSameKeyed(const KeyedKmvSketch& flat, const RefKeyedKmv& ref) {
  ASSERT_EQ(flat.retained(), ref.entries.size());
  size_t i = 0;
  for (const auto& [hash, want] : ref.entries) {
    const KeyedKmvSketch::Entry& got = flat.Entries()[i++];
    ASSERT_EQ(got.hash, hash);
    ASSERT_EQ(got.key, want.key);
    ASSERT_EQ(got.weight, want.weight) << "key " << want.key;
  }
  EXPECT_EQ(flat.saturated(), ref.entries.size() >= ref.k);
}

// The key whose hash is the retained maximum (the inclusion threshold).
template <typename Sketch>
uint64_t ThresholdKey(const Sketch& sketch, uint64_t threshold_hash,
                      const std::vector<uint64_t>& stream) {
  for (uint64_t key : stream) {
    if (MixSeed(sketch.seed(), key) == threshold_hash) return key;
  }
  ADD_FAILURE() << "threshold key not in stream";
  return 0;
}

constexpr size_t kDiffK = 64;

// Zipf streams whose distinct count sits below, near and far above k, each
// heavy with duplicates.
std::vector<uint64_t> DiffStream(size_t domain, size_t n, uint64_t seed) {
  const ZipfSampler sampler(domain, 1.1);
  Xoshiro256 rng(seed);
  return sampler.Stream(n, rng);
}

TEST(KmvDifferentialTest, UpdatesMatchNodeReference) {
  for (size_t domain : {size_t{20}, kDiffK, kDiffK + 1, size_t{5000}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<uint64_t> stream = DiffStream(domain, 4000, seed);
      KmvSketch flat(kDiffK, seed * 17);
      RefKmv ref{kDiffK, seed * 17, {}};
      for (uint64_t key : stream) {
        flat.Update(key);
        ref.Update(key);
      }
      ExpectSameKmv(flat, ref);
      const double want =
          ref.minima.size() < kDiffK
              ? static_cast<double>(ref.minima.size())
              : static_cast<double>(kDiffK - 1) /
                    ((static_cast<double>(*ref.minima.rbegin()) + 1.0) /
                     18446744073709551616.0);
      EXPECT_DOUBLE_EQ(flat.EstimateDistinct(), want);
      if (flat.retained() == kDiffK) {
        // Re-observing the threshold key is a duplicate, not an eviction.
        const uint64_t key =
            ThresholdKey(flat, flat.minima().back(), stream);
        flat.Update(key);
        ref.Update(key);
        ExpectSameKmv(flat, ref);
      }
    }
  }
}

TEST(KmvDifferentialTest, MergesMatchNodeReferenceInBothOrders) {
  for (size_t domain : {size_t{20}, kDiffK, size_t{300}, size_t{5000}}) {
    const std::vector<uint64_t> left = DiffStream(domain, 3000, 101);
    const std::vector<uint64_t> right = DiffStream(domain, 2000, 202);
    KmvSketch a(kDiffK, 5), b(kDiffK, 5);
    RefKmv ra{kDiffK, 5, {}}, rb{kDiffK, 5, {}};
    for (uint64_t key : left) {
      a.Update(key);
      ra.Update(key);
    }
    for (uint64_t key : right) {
      b.Update(key);
      rb.Update(key);
    }
    KmvSketch ab = a, ba = b;
    RefKmv rab = ra, rba = rb;
    ab.Merge(b);
    rab.Merge(rb);
    ba.Merge(a);
    rba.Merge(ra);
    ExpectSameKmv(ab, rab);
    ExpectSameKmv(ba, rba);
    EXPECT_EQ(ab.minima(), ba.minima());

    // Merging with an empty sketch, on either side, is the identity.
    KmvSketch empty(kDiffK, 5), from_empty(kDiffK, 5);
    KmvSketch into = a;
    into.Merge(empty);
    from_empty.Merge(a);
    EXPECT_EQ(into.minima(), a.minima());
    EXPECT_EQ(from_empty.minima(), a.minima());

    // A merged sketch keeps updating like the reference.
    for (uint64_t key : DiffStream(domain, 500, 303)) {
      ab.Update(key);
      rab.Update(key);
    }
    ExpectSameKmv(ab, rab);
  }
}

TEST(KmvDifferentialTest, LoadMinimaRejectsMalformedInput) {
  KmvSketch sketch(4, 1);
  EXPECT_THROW(sketch.LoadMinima({3, 2}), std::invalid_argument);
  EXPECT_THROW(sketch.LoadMinima({2, 2}), std::invalid_argument);
  EXPECT_THROW(sketch.LoadMinima({1, 2, 3, 4, 5}), std::invalid_argument);
  EXPECT_NO_THROW(sketch.LoadMinima({1, 2, 3, 4}));
  EXPECT_EQ(sketch.minima(), (std::vector<uint64_t>{1, 2, 3, 4}));
  // A failed load leaves the previous state untouched.
  EXPECT_THROW(sketch.LoadMinima({9, 8}), std::invalid_argument);
  EXPECT_EQ(sketch.retained(), 4u);
}

TEST(KeyedKmvTest, NeedsKAtLeastTwoAndCompatibleMerges) {
  EXPECT_THROW(KeyedKmvSketch(1, 1), std::invalid_argument);
  KeyedKmvSketch a(64, 1), b(64, 2), c(128, 1);
  EXPECT_THROW(a.Merge(b), std::invalid_argument);
  EXPECT_THROW(a.Merge(c), std::invalid_argument);
}

TEST(KeyedKmvDifferentialTest, UpdatesMatchNodeReference) {
  for (size_t domain : {size_t{20}, kDiffK, kDiffK + 1, size_t{5000}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      const std::vector<uint64_t> stream = DiffStream(domain, 4000, seed);
      KeyedKmvSketch flat(kDiffK, seed * 31);
      RefKeyedKmv ref{kDiffK, seed * 31, {}};
      for (uint64_t key : stream) {
        flat.Update(key);
        ref.Update(key);
      }
      ExpectSameKeyed(flat, ref);
      if (flat.saturated()) {
        // A hash equal to the threshold adds weight to the maximum entry.
        const uint64_t key =
            ThresholdKey(flat, flat.Entries().back().hash, stream);
        const uint64_t before = flat.Entries().back().weight;
        flat.Update(key);
        ref.Update(key);
        EXPECT_EQ(flat.Entries().back().weight, before + 1);
        ExpectSameKeyed(flat, ref);
      }
    }
  }
}

TEST(KeyedKmvDifferentialTest, MergesMatchNodeReferenceInBothOrders) {
  for (size_t domain : {size_t{20}, kDiffK, size_t{300}, size_t{5000}}) {
    const std::vector<uint64_t> left = DiffStream(domain, 3000, 404);
    const std::vector<uint64_t> right = DiffStream(domain, 2000, 505);
    KeyedKmvSketch a(kDiffK, 9), b(kDiffK, 9);
    RefKeyedKmv ra{kDiffK, 9, {}}, rb{kDiffK, 9, {}};
    for (uint64_t key : left) {
      a.Update(key);
      ra.Update(key);
    }
    for (uint64_t key : right) {
      b.Update(key);
      rb.Update(key);
    }
    KeyedKmvSketch ab = a, ba = b;
    RefKeyedKmv rab = ra, rba = rb;
    ab.Merge(b);
    rab.Merge(rb);
    ba.Merge(a);
    rba.Merge(ra);
    ExpectSameKeyed(ab, rab);
    ExpectSameKeyed(ba, rba);

    // Below the union threshold every weight is exact, so the merge equals
    // the sketch of the concatenated stream.
    KeyedKmvSketch whole(kDiffK, 9);
    for (uint64_t key : left) whole.Update(key);
    for (uint64_t key : right) whole.Update(key);
    ASSERT_EQ(whole.retained(), ab.retained());
    for (size_t i = 0; i < whole.retained(); ++i) {
      EXPECT_EQ(whole.Entries()[i].hash, ab.Entries()[i].hash);
      EXPECT_EQ(whole.Entries()[i].weight, ab.Entries()[i].weight);
    }

    KeyedKmvSketch empty(kDiffK, 9), from_empty(kDiffK, 9);
    KeyedKmvSketch into = a;
    into.Merge(empty);
    from_empty.Merge(a);
    ExpectSameKeyed(into, ra);
    ExpectSameKeyed(from_empty, ra);

    for (uint64_t key : DiffStream(domain, 500, 606)) {
      ab.Update(key);
      rab.Update(key);
    }
    ExpectSameKeyed(ab, rab);
  }
}

TEST(KeyedKmvDifferentialTest, LoadEntriesRejectsMalformedInput) {
  using Entry = KeyedKmvSketch::Entry;
  KeyedKmvSketch sketch(3, 1);
  EXPECT_THROW(sketch.LoadEntries({{5, 1, 1}, {4, 2, 1}}),
               std::invalid_argument);
  EXPECT_THROW(sketch.LoadEntries({{5, 1, 1}, {5, 2, 1}}),
               std::invalid_argument);
  EXPECT_THROW(sketch.LoadEntries({{5, 1, 0}}), std::invalid_argument);
  EXPECT_THROW(
      sketch.LoadEntries({{1, 1, 1}, {2, 2, 1}, {3, 3, 1}, {4, 4, 1}}),
      std::invalid_argument);
  const std::vector<Entry> good = {{1, 10, 2}, {2, 20, 1}, {3, 30, 5}};
  ASSERT_NO_THROW(sketch.LoadEntries(good));
  ASSERT_EQ(sketch.retained(), 3u);
  EXPECT_TRUE(sketch.saturated());
  EXPECT_EQ(sketch.Entries()[2].key, 30u);
  EXPECT_EQ(sketch.Entries()[2].weight, 5u);
  EXPECT_THROW(sketch.LoadEntries({{2, 1, 1}, {1, 1, 1}}),
               std::invalid_argument);
  EXPECT_EQ(sketch.retained(), 3u);
}

}  // namespace
}  // namespace sketchsample
