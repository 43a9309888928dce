// Tests for PushSource, the blocking ring that carries POST /ingest tuples
// to the engine's router: FIFO order across wrap-around, whole batches
// under concurrent producers, Close semantics, and the restart of the ring
// offsets whenever it runs empty.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

#include "src/service/push_source.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

// Drains until NextChunk reports end-of-stream, pulling at most `max_n`
// tuples per call.
std::vector<uint64_t> DrainAll(PushSource& source, size_t max_n) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> chunk(max_n);
  while (true) {
    const size_t n = source.NextChunk(chunk.data(), max_n);
    if (n == 0) return out;
    out.insert(out.end(), chunk.begin(), chunk.begin() + n);
  }
}

TEST(PushSourceTest, FifoAcrossWrapAround) {
  PushSource source(5);
  std::vector<uint64_t> got(8);
  const uint64_t first[] = {1, 2, 3, 4};
  ASSERT_EQ(source.Push(first, 4), 4u);
  ASSERT_EQ(source.NextChunk(got.data(), 3), 3u);  // 1 2 3; queue: 4
  const uint64_t second[] = {5, 6, 7, 8};          // wraps past slot 4
  ASSERT_EQ(source.Push(second, 4), 4u);
  ASSERT_EQ(source.NextChunk(got.data(), 8), 5u);
  EXPECT_EQ(std::vector<uint64_t>(got.begin(), got.begin() + 5),
            (std::vector<uint64_t>{4, 5, 6, 7, 8}));
  EXPECT_EQ(source.pushed(), 8u);
}

TEST(PushSourceTest, MatchesQueueModelUnderRandomInterleaving) {
  // Single-threaded pushes and pulls against a std::deque model, pushing
  // only what fits (so Push never blocks). The ring empties often, so the
  // offset restart happens with and without a wrap in between.
  constexpr size_t kCapacity = 7;
  PushSource source(kCapacity);
  std::deque<uint64_t> model;
  Xoshiro256 rng(42);
  uint64_t next = 0;
  std::vector<uint64_t> out(kCapacity + 3);
  for (int step = 0; step < 20000; ++step) {
    if (rng() % 2 == 0) {
      const size_t room = kCapacity - model.size();
      const size_t n = room == 0 ? 0 : rng() % (room + 1);
      std::vector<uint64_t> batch(n);
      for (uint64_t& v : batch) {
        v = next++;
        model.push_back(v);
      }
      ASSERT_EQ(source.Push(batch.data(), n), n);
    } else if (!model.empty()) {
      const size_t want = 1 + rng() % out.size();
      const size_t n = source.NextChunk(out.data(), want);
      ASSERT_EQ(n, std::min(want, model.size()));
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], model.front()) << "step " << step;
        model.pop_front();
      }
    }
  }
  source.Close();
  const std::vector<uint64_t> rest = DrainAll(source, 3);
  EXPECT_EQ(rest, std::vector<uint64_t>(model.begin(), model.end()));
  EXPECT_EQ(source.pushed(), next);
}

TEST(PushSourceTest, ConcurrentProducersLoseNothingAndKeepBatchesWhole) {
  // Batches of 11 into a 16-slot ring: most batches wrap and many block
  // midway, yet each must arrive as one contiguous run.
  static constexpr size_t kProducers = 4;
  static constexpr size_t kBatches = 300;
  static constexpr size_t kBatch = 11;
  PushSource source(16);
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&source, p] {
      std::vector<uint64_t> batch(kBatch);
      for (uint64_t b = 0; b < kBatches; ++b) {
        for (uint64_t i = 0; i < kBatch; ++i) {
          batch[i] = (p << 48) | (b << 16) | i;
        }
        ASSERT_EQ(source.Push(batch.data(), kBatch), kBatch);
      }
    });
  }
  std::vector<uint64_t> got;
  std::thread consumer([&] { got = DrainAll(source, 5); });
  for (std::thread& t : producers) t.join();
  source.Close();
  consumer.join();

  ASSERT_EQ(got.size(), kProducers * kBatches * kBatch);
  std::vector<uint64_t> next_batch(kProducers, 0);
  for (size_t at = 0; at < got.size(); at += kBatch) {
    const uint64_t p = got[at] >> 48;
    ASSERT_LT(p, kProducers);
    const uint64_t b = (got[at] >> 16) & 0xffffffff;
    ASSERT_EQ(b, next_batch[p]++) << "producer " << p << " out of order";
    for (uint64_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(got[at + i], (p << 48) | (b << 16) | i)
          << "batch split at offset " << at;
    }
  }
  for (uint64_t count : next_batch) EXPECT_EQ(count, kBatches);
  EXPECT_EQ(source.pushed(), got.size());
}

TEST(PushSourceTest, CloseReturnsShortToBlockedProducer) {
  PushSource source(4);
  std::vector<uint64_t> values(10);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 100 + i;
  size_t accepted = 0;  // read only after join
  std::thread producer(
      [&] { accepted = source.Push(values.data(), values.size()); });
  // The first pull returns only once the producer has filled the ring; it
  // frees one slot, so the producer takes at most one more tuple and then
  // blocks on the remaining five or six.
  uint64_t first = 0;
  ASSERT_EQ(source.NextChunk(&first, 1), 1u);
  EXPECT_EQ(first, 100u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  source.Close();
  producer.join();  // hangs here if Close does not wake the producer
  EXPECT_GE(accepted, 4u);
  EXPECT_LE(accepted, 5u);
  EXPECT_EQ(source.pushed(), accepted);
  EXPECT_EQ(DrainAll(source, 3),
            std::vector<uint64_t>(values.begin() + 1,
                                  values.begin() + accepted));
}

TEST(PushSourceTest, CloseWakesProducerOnFullRing) {
  PushSource source(3);
  const uint64_t fill[] = {1, 2, 3};
  ASSERT_EQ(source.Push(fill, 3), 3u);
  size_t accepted = SIZE_MAX;  // read only after join
  std::thread producer([&] { accepted = source.Push(fill, 3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  source.Close();
  producer.join();
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(DrainAll(source, 8), (std::vector<uint64_t>{1, 2, 3}));
}

TEST(PushSourceTest, QueuedTuplesDrainAfterCloseThenEndOfStream) {
  PushSource source(8);
  const uint64_t values[] = {9, 8, 7, 6, 5};
  ASSERT_EQ(source.Push(values, 5), 5u);
  source.Close();
  source.Close();  // idempotent
  EXPECT_TRUE(source.closed());
  EXPECT_EQ(source.Push(values, 5), 0u);  // late producers are refused
  EXPECT_EQ(DrainAll(source, 2), (std::vector<uint64_t>{9, 8, 7, 6, 5}));
  uint64_t out = 0;
  EXPECT_EQ(source.NextChunk(&out, 1), 0u);
  EXPECT_FALSE(source.Next().has_value());
  EXPECT_EQ(source.pushed(), 5u);
}

TEST(PushSourceTest, ConsumerBlocksUntilDataOrClose) {
  PushSource source(4);
  std::vector<uint64_t> got;
  std::thread consumer([&] { got = DrainAll(source, 4); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const uint64_t one = 77;
  ASSERT_EQ(source.Push(&one, 1), 1u);
  source.Close();
  consumer.join();
  EXPECT_EQ(got, std::vector<uint64_t>{77});
}

TEST(PushSourceTest, RestartOnEmptyNeverHandsOutStaleTuples) {
  // A 3-slot ring under a producer and consumer that keep it near empty:
  // the offsets restart at 0 thousands of times while the other side's
  // copy may be in flight. The consumer must see the exact sequence.
  static constexpr uint64_t kTotal = 60000;
  PushSource source(3);
  std::thread producer([&] {
    uint64_t next = 0;
    uint64_t batch[2];
    while (next < kTotal) {
      const size_t n = (next % 3 == 0) ? 1 : 2;
      for (size_t i = 0; i < n; ++i) batch[i] = next + i;
      ASSERT_EQ(source.Push(batch, n), n);
      next += n;
    }
    source.Close();
  });
  uint64_t expect = 0;
  uint64_t out[4];
  while (true) {
    const size_t n = source.NextChunk(out, 1 + expect % 4);
    if (n == 0) break;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expect++);
    }
  }
  producer.join();
  EXPECT_GE(expect, kTotal);
}

}  // namespace
}  // namespace sketchsample
