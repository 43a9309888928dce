// Tests for the streaming substrate: sources, operators, and the engine's
// shed stage and pump loop.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/data/frequency_vector.h"
#include "src/sketch/fagms.h"
#include "src/stream/operators.h"
#include "src/stream/shard_engine.h"
#include "src/stream/source.h"

namespace sketchsample {
namespace {

TEST(VectorSourceTest, YieldsAllValuesThenEnds) {
  VectorSource source({1, 2, 3});
  EXPECT_EQ(source.Next(), 1u);
  EXPECT_EQ(source.Next(), 2u);
  EXPECT_EQ(source.Next(), 3u);
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_FALSE(source.Next().has_value());  // stays exhausted
}

TEST(VectorSourceTest, EmptyVector) {
  VectorSource source({});
  EXPECT_FALSE(source.Next().has_value());
}

TEST(ZipfSourceTest, EmitsExactlyCountValues) {
  ZipfSource source(100, 1.0, 500, 42);
  size_t n = 0;
  while (source.Next()) ++n;
  EXPECT_EQ(n, 500u);
}

TEST(ZipfSourceTest, ValuesInDomain) {
  ZipfSource source(10, 2.0, 1000, 7);
  while (auto v = source.Next()) EXPECT_LT(*v, 10u);
}

TEST(SinkOperatorTest, CountsAndForwards) {
  std::vector<uint64_t> seen;
  SinkOperator sink([&](uint64_t v) { seen.push_back(v); });
  sink.OnTuple(5);
  sink.OnTuple(6);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(seen, (std::vector<uint64_t>{5, 6}));
}

// The shed stage is the engine workers' positional Bernoulli coin
// (src/stream/shard_engine.h); these tests pin its realized rates.
SketchParams StreamParams() {
  SketchParams params;
  params.rows = 1;
  params.buckets = 2048;
  params.seed = 13;
  return params;
}

// Pumps `values` through `engine` from a fresh source.
ShardEngineStats RunShed(ShardEngine<FagmsSketch>& engine,
                         const std::vector<uint64_t>& values) {
  VectorSource source(values);
  return engine.Run(source);
}

ShardEngineOptions ShedOptions(double p, uint64_t seed) {
  ShardEngineOptions opts;
  opts.shards = 2;
  opts.shed_p = p;
  opts.seed = seed;
  return opts;
}

TEST(ShedOperatorTest, ForwardsBernoulliFraction) {
  std::vector<uint64_t> values(10000);
  for (uint64_t v = 0; v < values.size(); ++v) values[v] = v;
  ShardEngine<FagmsSketch> engine(FagmsSketch(StreamParams()),
                                  ShedOptions(0.25, 3));
  const ShardEngineStats stats = RunShed(engine, values);
  EXPECT_EQ(engine.total_seen(), 10000u);
  EXPECT_EQ(stats.shard_kept[0] + stats.shard_kept[1], engine.total_kept());
  EXPECT_NEAR(static_cast<double>(engine.total_kept()), 2500.0, 250.0);
}

TEST(ShedOperatorTest, ProbabilityExtremes) {
  const std::vector<uint64_t> values(100, 1);
  ShardEngine<FagmsSketch> keep_all(FagmsSketch(StreamParams()),
                                    ShedOptions(1.0, 1));
  RunShed(keep_all, values);
  EXPECT_EQ(keep_all.total_kept(), 100u);

  ShardEngine<FagmsSketch> keep_none(FagmsSketch(StreamParams()),
                                     ShedOptions(0.0, 1));
  RunShed(keep_none, values);
  EXPECT_EQ(keep_none.total_seen(), 100u);
  EXPECT_EQ(keep_none.total_kept(), 0u);
  EXPECT_DOUBLE_EQ(keep_none.merged().EstimateSelfJoin(), 0.0);
}

TEST(PipelineTest, PumpsWholeSourceAndTimes) {
  ShardEngine<FagmsSketch> engine(FagmsSketch(StreamParams()),
                                  ShardEngineOptions{});
  const ShardEngineStats stats =
      RunShed(engine, std::vector<uint64_t>(1000, 3));
  EXPECT_TRUE(stats.ended);
  EXPECT_EQ(stats.tuples, 1000u);
  EXPECT_EQ(engine.total_kept(), 1000u);
  EXPECT_GE(stats.seconds, 0.0);
  EXPECT_GE(stats.TuplesPerSecond(), 0.0);
}

TEST(PipelineTest, ShedThenSketchEndToEnd) {
  // The §VI-A deployment: source -> shed(p) -> sketch. The corrected
  // estimate must land near the truth.
  constexpr size_t kCount = 20000;
  ZipfSource source(100, 1.0, kCount, 11);
  ShardEngine<FagmsSketch> engine(FagmsSketch(StreamParams()),
                                  ShedOptions(0.2, 17));

  // Also track the exact frequencies to know the truth.
  std::vector<uint64_t> all;
  ZipfSource mirror(100, 1.0, kCount, 11);  // same seed -> same stream
  while (auto v = mirror.Next()) all.push_back(*v);
  const double truth = FrequencyVector::FromStream(all, 100).F2();

  engine.Run(source);
  const double raw = engine.merged().EstimateSelfJoin();
  const double corrected =
      raw / (0.2 * 0.2) -
      (1.0 - 0.2) / (0.2 * 0.2) * static_cast<double>(engine.total_kept());
  EXPECT_LT(std::abs(corrected - truth) / truth, 0.25);
}

}  // namespace
}  // namespace sketchsample
