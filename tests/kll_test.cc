// Tests for the KLL quantile sketch: basic accuracy, and that the cached
// retained count and per-level capacities never drift from the state they
// summarize — whichever way a sketch was reached (updates, copy, Merge,
// LoadState), its further updates compact at the same points and serialize
// to the same bytes as a sketch rebuilt from the same update sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/data/zipf.h"
#include "src/sketch/kll.h"
#include "src/sketch/serialize.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

// The original budget check, recomputed from scratch on every update: the
// capacity of each level and the retained total are rescanned each time.
// Used as the reference for the cached version's compaction points.
struct RefKll {
  size_t k;
  uint64_t seed;
  uint64_t n = 0;
  uint64_t compactions = 0;
  std::vector<std::vector<uint64_t>> levels{1};

  size_t LevelCapacity(size_t level) const {
    double cap = static_cast<double>(k);
    for (size_t l = levels.size() - 1; l > level; --l) cap *= 2.0 / 3.0;
    return std::max<size_t>(8, static_cast<size_t>(std::ceil(cap)));
  }
  size_t Budget() const {
    size_t total = 0;
    for (size_t l = 0; l < levels.size(); ++l) total += LevelCapacity(l);
    return total;
  }
  size_t Retained() const {
    size_t total = 0;
    for (const auto& level : levels) total += level.size();
    return total;
  }
  void Update(uint64_t value) {
    ++n;
    levels[0].push_back(value);
    while (Retained() > Budget()) {
      size_t target = 0;
      while (levels[target].size() <= LevelCapacity(target)) ++target;
      Compact(target);
    }
  }
  void Compact(size_t level) {
    if (level + 1 == levels.size()) levels.emplace_back();
    std::vector<uint64_t>& buf = levels[level];
    std::sort(buf.begin(), buf.end());
    const uint64_t coin =
        MixSeed(seed, (static_cast<uint64_t>(level) << 32) ^ compactions) & 1;
    const size_t even_count = buf.size() - buf.size() % 2;
    for (size_t i = coin; i < even_count; i += 2) {
      levels[level + 1].push_back(buf[i]);
    }
    if (buf.size() % 2 != 0) {
      buf[0] = buf[even_count];
      buf.resize(1);
    } else {
      buf.clear();
    }
    ++compactions;
  }
};

std::vector<uint64_t> Values(size_t n, uint64_t seed) {
  const ZipfSampler sampler(100000, 0.8);
  Xoshiro256 rng(seed);
  return sampler.Stream(n, rng);
}

KllSketch Build(const std::vector<uint64_t>& values, size_t k,
                uint64_t seed) {
  KllSketch sketch(k, seed);
  for (uint64_t v : values) sketch.Update(v);
  return sketch;
}

TEST(KllTest, NeedsKAtLeastEight) {
  EXPECT_THROW(KllSketch(7, 1), std::invalid_argument);
  EXPECT_NO_THROW(KllSketch(8, 1));
}

TEST(KllTest, ExactWhileUncompacted) {
  KllSketch sketch(200, 3);
  for (uint64_t v = 1; v <= 100; ++v) sketch.Update(v);
  EXPECT_EQ(sketch.compactions(), 0u);
  EXPECT_EQ(sketch.retained(), 100u);
  EXPECT_EQ(sketch.EstimateQuantile(0.5), 50u);
  EXPECT_EQ(sketch.EstimateQuantile(0.0), 1u);
  EXPECT_EQ(sketch.EstimateQuantile(1.0), 100u);
  EXPECT_DOUBLE_EQ(sketch.EstimateRank(51), 0.5);
}

TEST(KllTest, MedianWithinRankError) {
  constexpr uint64_t kN = 200000;
  KllSketch sketch(200, 5);
  for (uint64_t i = 0; i < kN; ++i) sketch.Update((i * 7919) % kN);
  EXPECT_GT(sketch.compactions(), 0u);
  const double rank = static_cast<double>(sketch.EstimateQuantile(0.5)) /
                      static_cast<double>(kN);
  EXPECT_NEAR(rank, 0.5, 0.05);
}

// Several ranks answered from one sorted view equal one call per rank, and
// both equal a weighted walk over the sorted levels done here from scratch.
TEST(KllTest, MultiRankAnswersEqualPerRankCalls) {
  std::vector<double> sweep;
  for (int i = 0; i <= 40; ++i) sweep.push_back(i / 40.0);  // 0 and 1 included
  sweep.push_back(1e-9);
  sweep.push_back(1.0 - 1e-9);
  for (size_t n : {size_t{1}, size_t{100}, size_t{50000}}) {
    const KllSketch sketch = Build(Values(n, 3), 32, 9);
    std::vector<std::pair<uint64_t, uint64_t>> items;
    for (size_t l = 0; l < sketch.levels().size(); ++l) {
      for (uint64_t v : sketch.levels()[l]) items.emplace_back(v, 1ULL << l);
    }
    std::sort(items.begin(), items.end());
    const std::vector<uint64_t> answers = sketch.EstimateQuantiles(sweep);
    ASSERT_EQ(answers.size(), sweep.size());
    for (size_t i = 0; i < sweep.size(); ++i) {
      const double q = sweep[i];
      EXPECT_EQ(answers[i], sketch.EstimateQuantile(q)) << n << " q=" << q;
      uint64_t want = q == 0.0 ? sketch.min_item() : sketch.max_item();
      const uint64_t target = std::min<uint64_t>(
          std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(
                                    q * static_cast<double>(sketch.n())))),
          sketch.n());
      uint64_t cumulative = 0;
      for (size_t j = 0; q > 0.0 && q < 1.0 && j < items.size(); ++j) {
        cumulative += items[j].second;
        if (cumulative >= target) {
          want = items[j].first;
          break;
        }
      }
      EXPECT_EQ(answers[i], want) << n << " q=" << q;
    }
  }
  const KllSketch sketch = Build(Values(100, 3), 32, 9);
  EXPECT_THROW(sketch.EstimateQuantiles({0.5, 1.5}), std::invalid_argument);
  EXPECT_THROW(KllSketch(32, 9).EstimateQuantiles({0.5}),
               std::invalid_argument);
}

TEST(KllTest, CompactionPointsMatchRescanningReference) {
  for (size_t k : {size_t{8}, size_t{20}, size_t{200}}) {
    KllSketch sketch(k, 11);
    RefKll ref{k, 11};
    for (uint64_t v : Values(50000, k)) {
      sketch.Update(v);
      ref.Update(v);
      ASSERT_EQ(sketch.retained(), ref.Retained());
      ASSERT_EQ(sketch.compactions(), ref.compactions);
    }
    EXPECT_EQ(sketch.levels(), ref.levels);
  }
}

TEST(KllTest, RetainedMatchesLevelsAfterMerge) {
  const KllSketch a = Build(Values(30000, 1), 50, 7);
  const KllSketch b = Build(Values(2000, 2), 50, 7);
  for (const bool a_first : {true, false}) {
    KllSketch merged = a_first ? a : b;
    merged.Merge(a_first ? b : a);
    size_t sum = 0;
    for (const auto& level : merged.levels()) sum += level.size();
    EXPECT_EQ(merged.retained(), sum);
    EXPECT_EQ(merged.n(), a.n() + b.n());
  }
}

// Each way of arriving at a sketch's state, followed by more updates, must
// land on the bytes of the plain replay of the whole update sequence.
TEST(KllTest, ReachedStateKeepsUpdatingLikeReplay) {
  for (size_t k : {size_t{8}, size_t{40}, size_t{200}}) {
    for (size_t prefix_n : {size_t{0}, size_t{5}, size_t{3000}}) {
      const std::vector<uint64_t> prefix = Values(prefix_n, 100 + k);
      const std::vector<uint64_t> suffix = Values(20000, 200 + k);
      std::vector<uint64_t> whole = prefix;
      whole.insert(whole.end(), suffix.begin(), suffix.end());
      const std::vector<uint8_t> want = SerializeSketch(Build(whole, k, 9));

      const KllSketch base = Build(prefix, k, 9);
      KllSketch copied = base;
      KllSketch loaded = DeserializeKll(SerializeSketch(base));
      KllSketch merged_into_empty(k, 9);
      merged_into_empty.Merge(base);
      KllSketch merged_empty_in = base;
      merged_empty_in.Merge(KllSketch(k, 9));
      KllSketch assigned(k, 9);
      for (uint64_t v : Values(7000, 1)) assigned.Update(v);  // deeper
      assigned = base;

      for (KllSketch* sketch : {&copied, &loaded, &merged_into_empty,
                                &merged_empty_in, &assigned}) {
        for (uint64_t v : suffix) sketch->Update(v);
        EXPECT_EQ(SerializeSketch(*sketch), want)
            << "k=" << k << " prefix=" << prefix_n;
      }
    }
  }
}

}  // namespace
}  // namespace sketchsample
