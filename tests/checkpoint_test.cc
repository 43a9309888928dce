// Tests for checkpoint/recovery (src/stream/checkpoint.h): an engine
// kill-and-resume must be bit-exact for every sketch type, and a corrupt
// checkpoint must throw CheckpointError — never crash, never load silently.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "src/sketch/agms.h"
#include "src/sketch/countmin.h"
#include "src/sketch/fagms.h"
#include "src/sketch/fastcount.h"
#include "src/sketch/serialize.h"
#include "src/stream/checkpoint.h"
#include "src/stream/shard_engine.h"
#include "src/stream/shed_controller.h"
#include "src/stream/source.h"
#include "src/util/crc32.h"
#include "src/util/metrics.h"

namespace sketchsample {
namespace {

SketchParams ResumeParams() {
  SketchParams p;
  p.rows = 3;
  p.buckets = 512;
  p.seed = 33;
  return p;
}

template <typename SketchT>
SketchT MakePrototype() {
  if constexpr (std::is_same_v<SketchT, AgmsSketch>) {
    SketchParams p = ResumeParams();
    p.rows = 64;
    return AgmsSketch(p);
  } else {
    return SketchT(ResumeParams());
  }
}

// One adaptive, checkpointing engine deployment over a deterministic Zipf
// stream; every run with the same knobs sees the identical stream.
struct RunResult {
  std::vector<uint8_t> merged;  // serialized merged sketch
  uint64_t seen = 0;
  uint64_t kept = 0;
  double controller_p = 0;
  uint64_t controller_windows = 0;
  ShardEngineStats stats;
  std::vector<uint8_t> last_checkpoint;
};

constexpr uint64_t kCount = 60000;
constexpr uint64_t kWindow = 5000;
constexpr uint64_t kCheckpointEvery = 12000;

ShedControllerOptions ControllerOptions() {
  ShedControllerOptions copts;
  copts.capacity_per_window = 700.0;
  copts.window_tuples = kWindow;
  return copts;
}

ZipfSource MakeSource() { return ZipfSource(1000, 1.0, kCount, 9); }

// Runs (or, when `checkpoint_bytes` is non-empty, resumes) the deployment
// at `shards` workers, stopping after `kill_after` tuples (0 = to the end).
template <typename SketchT>
RunResult RunEngine(size_t shards, uint64_t kill_after,
                    const std::vector<uint8_t>& checkpoint_bytes = {}) {
  ZipfSource source = MakeSource();  // fresh deterministic rebuild
  ShedController controller(ControllerOptions());
  LatestCheckpointSink ckpt;
  ShardEngineOptions opts;
  opts.shards = shards;
  opts.seed = 13;
  opts.chunk_tuples = 700;  // deliberately misaligned with every boundary
  opts.controller = &controller;
  opts.max_tuples = kill_after;
  opts.checkpoint_sink = &ckpt;
  opts.checkpoint_every = kCheckpointEvery;
  ShardEngine<SketchT> engine(MakePrototype<SketchT>(), opts);
  if (!checkpoint_bytes.empty()) {
    engine.Restore(DeserializeCheckpoint(checkpoint_bytes), source);
  }

  RunResult result;
  result.stats = engine.Run(source);
  result.merged = SerializeSketch(engine.merged());
  result.seen = engine.total_seen();
  result.kept = engine.total_kept();
  result.controller_p = controller.p();
  result.controller_windows = controller.windows();
  result.last_checkpoint = ckpt.bytes();
  return result;
}

// The state a checkpoint restores to, as (merged sketch bytes, seen, kept,
// p): how two checkpoints written at different shard layouts are compared.
template <typename SketchT>
std::tuple<std::vector<uint8_t>, uint64_t, uint64_t, double> RestoredState(
    const std::vector<uint8_t>& checkpoint_bytes) {
  ZipfSource source = MakeSource();
  ShardEngine<SketchT> engine(MakePrototype<SketchT>(), ShardEngineOptions{});
  engine.Restore(DeserializeCheckpoint(checkpoint_bytes), source);
  return {SerializeSketch(engine.merged()), engine.total_seen(),
          engine.total_kept(), engine.p()};
}

template <typename SketchT>
class CheckpointResumeTest : public testing::Test {};

using SketchTypes =
    testing::Types<AgmsSketch, FagmsSketch, CountMinSketch, FastCountSketch>;
TYPED_TEST_SUITE(CheckpointResumeTest, SketchTypes);

TYPED_TEST(CheckpointResumeTest, KillAndResumeIsBitExact) {
  // Ground truth: one uninterrupted adaptive run.
  const RunResult full = RunEngine<TypeParam>(2, 0);
  ASSERT_TRUE(full.stats.ended);
  ASSERT_EQ(full.stats.checkpoints, kCount / kCheckpointEvery);
  ASSERT_LT(full.controller_p, 1.0);  // the budget really forced shedding

  // Kill mid-stream between two checkpoint boundaries, then resume from the
  // last checkpoint (taken at 24000) in a fresh engine at another shard
  // count.
  const RunResult killed = RunEngine<TypeParam>(2, 29000);
  ASSERT_FALSE(killed.stats.ended);  // the cap is a kill, not an end
  ASSERT_FALSE(killed.last_checkpoint.empty());
  ASSERT_EQ(DeserializeCheckpoint(killed.last_checkpoint).source_tuples,
            24000u);

  const RunResult resumed =
      RunEngine<TypeParam>(3, 0, killed.last_checkpoint);
  ASSERT_TRUE(resumed.stats.ended);

  // Bit-exact: identical sketch bytes, realized counts, and controller
  // state — not merely close.
  EXPECT_EQ(resumed.merged, full.merged);
  EXPECT_EQ(resumed.seen, full.seen);
  EXPECT_EQ(resumed.kept, full.kept);
  EXPECT_EQ(resumed.controller_p, full.controller_p);
  EXPECT_EQ(resumed.controller_windows, full.controller_windows);
  EXPECT_EQ(resumed.stats.final_p, full.stats.final_p);
  // The resumed run's own later checkpoints restore to the same state as
  // the uninterrupted run's (their per-shard layouts differ).
  EXPECT_EQ(RestoredState<TypeParam>(resumed.last_checkpoint),
            RestoredState<TypeParam>(full.last_checkpoint));
}

TEST(CheckpointFormatTest, RoundtripPreservesEveryField) {
  PipelineCheckpoint cp;
  cp.source_tuples = 123456;
  cp.has_shed = true;
  cp.shed.p = 0.25;
  cp.shed.skip = 7;
  cp.shed.seen = 1000;
  cp.shed.forwarded = 250;
  cp.shed.has_skipper = true;
  cp.shed.coin_rng = {1, 2, 3, 4};
  cp.shed.skip_rng = {5, 6, 7, 8};
  cp.has_controller = true;
  cp.controller.p = 0.25;
  cp.controller.backlog = 12.5;
  cp.controller.windows = 9;
  cp.controller.offered = 1000;
  cp.controller.kept = 250;
  cp.sketch = {0xDE, 0xAD, 0xBE, 0xEF};

  const PipelineCheckpoint back =
      DeserializeCheckpoint(SerializeCheckpoint(cp));
  EXPECT_EQ(back.source_tuples, cp.source_tuples);
  ASSERT_TRUE(back.has_shed);
  EXPECT_DOUBLE_EQ(back.shed.p, cp.shed.p);
  EXPECT_EQ(back.shed.skip, cp.shed.skip);
  EXPECT_EQ(back.shed.seen, cp.shed.seen);
  EXPECT_EQ(back.shed.forwarded, cp.shed.forwarded);
  EXPECT_EQ(back.shed.has_skipper, cp.shed.has_skipper);
  EXPECT_EQ(back.shed.coin_rng, cp.shed.coin_rng);
  EXPECT_EQ(back.shed.skip_rng, cp.shed.skip_rng);
  ASSERT_TRUE(back.has_controller);
  EXPECT_DOUBLE_EQ(back.controller.backlog, cp.controller.backlog);
  EXPECT_EQ(back.controller.windows, cp.controller.windows);
  EXPECT_EQ(back.sketch, cp.sketch);
}

// Wire-format offsets for the corruption table below (see checkpoint.h):
// magic 0..3 | version 4..7 | source_tuples 8..15 | flags 16 |
// shed: p 17..24, skip 25..32, seen 33..40, forwarded 41..48,
//       has_skipper 49, coin_rng 50..81, skip_rng 82..113 |
// controller: p 114..121, backlog 122..129, windows 130..137,
//             offered 138..145, kept 146..153 | sketch_len 154..161 | ...
std::vector<uint8_t> ValidCheckpointBytes() {
  PipelineCheckpoint cp;
  cp.source_tuples = 5000;
  cp.has_shed = true;
  cp.shed.p = 0.5;
  cp.shed.seen = 100;
  cp.shed.forwarded = 50;
  cp.shed.has_skipper = true;
  cp.has_controller = true;
  cp.controller.p = 0.5;
  cp.controller.offered = 100;
  cp.controller.kept = 50;
  cp.sketch = {1, 2, 3, 4, 5, 6, 7, 8};
  return SerializeCheckpoint(cp);
}

void PatchBytes(std::vector<uint8_t>& bytes, size_t offset,
                const void* data, size_t size) {
  ASSERT_LE(offset + size, bytes.size());
  std::memcpy(bytes.data() + offset, data, size);
}

// Recomputes the CRC32 footer so a mutation tests the validation behind
// the checksum, not merely the checksum itself.
void RefitCrc(std::vector<uint8_t>& bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
}

TEST(CheckpointFormatTest, CorruptBuffersThrowNeverCrash) {
  const std::vector<uint8_t> valid = ValidCheckpointBytes();
  ASSERT_NO_THROW(DeserializeCheckpoint(valid));

  struct Case {
    const char* name;
    std::function<void(std::vector<uint8_t>&)> mutate;
    bool refit_crc;
  };
  const double bad_p = 2.0;
  const double nan_backlog = std::numeric_limits<double>::quiet_NaN();
  const uint64_t seen = 5, forwarded = 10;  // forwarded > seen
  const uint64_t huge_len = uint64_t{1} << 60;
  const uint32_t bad_version = 99;
  const Case cases[] = {
      {"empty buffer", [](std::vector<uint8_t>& b) { b.clear(); }, false},
      {"truncated to half",
       [](std::vector<uint8_t>& b) { b.resize(b.size() / 2); }, false},
      {"single bit flip (CRC mismatch)",
       [](std::vector<uint8_t>& b) { b[b.size() / 2] ^= 0x01; }, false},
      {"bad magic",
       [](std::vector<uint8_t>& b) { b[0] = 'X'; }, true},
      {"unsupported version",
       [&](std::vector<uint8_t>& b) { PatchBytes(b, 4, &bad_version, 4); },
       true},
      {"unknown flag bits",
       [](std::vector<uint8_t>& b) { b[16] |= 0x80; }, true},
      {"shed rate out of range",
       [&](std::vector<uint8_t>& b) { PatchBytes(b, 17, &bad_p, 8); }, true},
      {"shed forwarded exceeds seen",
       [&](std::vector<uint8_t>& b) {
         PatchBytes(b, 33, &seen, 8);
         PatchBytes(b, 41, &forwarded, 8);
       },
       true},
      {"invalid skipper flag",
       [](std::vector<uint8_t>& b) { b[49] = 7; }, true},
      {"controller rate out of range",
       [&](std::vector<uint8_t>& b) { PatchBytes(b, 114, &bad_p, 8); },
       true},
      {"controller backlog NaN",
       [&](std::vector<uint8_t>& b) { PatchBytes(b, 122, &nan_backlog, 8); },
       true},
      {"sketch length exceeds buffer",
       [&](std::vector<uint8_t>& b) { PatchBytes(b, 154, &huge_len, 8); },
       true},
      {"trailing bytes",
       [](std::vector<uint8_t>& b) {
         b.insert(b.end() - sizeof(uint32_t), 0xAA);
       },
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<uint8_t> bytes = valid;
    c.mutate(bytes);
    if (c.refit_crc) RefitCrc(bytes);
    EXPECT_THROW(DeserializeCheckpoint(bytes), CheckpointError);
  }
}

TEST(CheckpointFormatTest, SkipperWithZeroRateRejected) {
  // p == 0 with an armed skipper is an impossible state; a forged
  // checkpoint must not smuggle it in.
  std::vector<uint8_t> bytes = ValidCheckpointBytes();
  const double zero = 0.0;
  PatchBytes(bytes, 17, &zero, 8);
  RefitCrc(bytes);
  EXPECT_THROW(DeserializeCheckpoint(bytes), CheckpointError);
}

TEST(CheckpointFormatTest, ShardDistinctBlobsRoundtrip) {
  // Flag bit 3: per-shard KMV distinct-counter blobs riding next to the
  // partial sketches (src/stream/shard_engine.h distinct_k).
  PipelineCheckpoint cp;
  cp.source_tuples = 9000;
  cp.has_shards = true;
  cp.shard_p = 0.5;
  cp.has_shard_distinct = true;
  ShardCheckpointState a;
  a.seen = 5000;
  a.kept = 2500;
  a.sketch = {1, 2, 3};
  a.distinct = {9, 8, 7, 6};
  ShardCheckpointState b;
  b.seen = 4000;
  b.kept = 2000;
  b.sketch = {4, 5};
  b.distinct = {};  // an empty blob is legal (lane saw nothing yet)
  cp.shards = {a, b};

  const PipelineCheckpoint back =
      DeserializeCheckpoint(SerializeCheckpoint(cp));
  ASSERT_TRUE(back.has_shards);
  ASSERT_TRUE(back.has_shard_distinct);
  ASSERT_EQ(back.shards.size(), 2u);
  EXPECT_EQ(back.shards[0].seen, a.seen);
  EXPECT_EQ(back.shards[0].kept, a.kept);
  EXPECT_EQ(back.shards[0].sketch, a.sketch);
  EXPECT_EQ(back.shards[0].distinct, a.distinct);
  EXPECT_EQ(back.shards[1].distinct, b.distinct);
}

TEST(CheckpointFormatTest, ShardSectionWithoutDistinctLeavesBlobsEmpty) {
  PipelineCheckpoint cp;
  cp.has_shards = true;
  cp.shard_p = 1.0;
  ShardCheckpointState shard;
  shard.seen = 10;
  shard.kept = 10;
  shard.sketch = {1};
  cp.shards = {shard};

  const PipelineCheckpoint back =
      DeserializeCheckpoint(SerializeCheckpoint(cp));
  ASSERT_TRUE(back.has_shards);
  EXPECT_FALSE(back.has_shard_distinct);
  ASSERT_EQ(back.shards.size(), 1u);
  EXPECT_TRUE(back.shards[0].distinct.empty());
}

TEST(CheckpointFormatTest, DistinctFlagRequiresShardSection) {
  // Serializer side: distinct blobs without a shard section is a caller bug.
  PipelineCheckpoint cp;
  cp.has_shard_distinct = true;
  EXPECT_THROW(SerializeCheckpoint(cp), CheckpointError);

  // Deserializer side: a forged buffer with flag bit 3 set but bit 2 clear
  // must be rejected before any shard state is read.
  std::vector<uint8_t> bytes = ValidCheckpointBytes();
  bytes[16] |= 0x08;  // kFlagShardDistinct without kFlagShards
  RefitCrc(bytes);
  EXPECT_THROW(DeserializeCheckpoint(bytes), CheckpointError);
}

TEST(FileCheckpointSinkTest, WritesAtomicallyAndReplaces) {
  const std::string path = testing::TempDir() + "/sketchsample_ckpt.bin";
  FileCheckpointSink sink(path);

  PipelineCheckpoint cp;
  cp.source_tuples = 111;
  sink.Write(SerializeCheckpoint(cp), cp.source_tuples);
  cp.source_tuples = 222;
  sink.Write(SerializeCheckpoint(cp), cp.source_tuples);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  EXPECT_EQ(DeserializeCheckpoint(bytes).source_tuples, 222u);
  std::remove(path.c_str());
}

TEST(FileCheckpointSinkTest, UnwritablePathThrows) {
  FileCheckpointSink sink("/nonexistent-dir/ckpt.bin");
  PipelineCheckpoint cp;
  EXPECT_THROW(sink.Write(SerializeCheckpoint(cp), 0), std::runtime_error);
}

TEST(CheckpointMetricsTest, WriteAndRestoreCountersAdvance) {
  metrics::SetEnabled(true);
  auto& writes =
      metrics::Registry::Global().GetCounter("stream.checkpoint.writes");
  auto& bytes_ctr =
      metrics::Registry::Global().GetCounter("stream.checkpoint.bytes");
  auto& restores =
      metrics::Registry::Global().GetCounter("stream.checkpoint.restores");
  const uint64_t w0 = writes.Get(), b0 = bytes_ctr.Get(),
                 r0 = restores.Get();

  PipelineCheckpoint cp;
  cp.source_tuples = 1;
  const std::vector<uint8_t> bytes = SerializeCheckpoint(cp);
  DeserializeCheckpoint(bytes);
  metrics::SetEnabled(false);

  EXPECT_EQ(writes.Get(), w0 + 1);
  EXPECT_EQ(bytes_ctr.Get(), b0 + bytes.size());
  EXPECT_EQ(restores.Get(), r0 + 1);
}

}  // namespace
}  // namespace sketchsample
