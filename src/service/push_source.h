// Blocking in-memory stream source fed by the service's /ingest endpoint
// (or the serve CLI's file feeder). The ingest engine pulls NextChunk on
// its router thread; producers push batches from HTTP connection threads.
//
// Unlike the polling sources in src/stream/source.h, NextChunk blocks while
// the queue is empty and the stream is still open, so the engine never
// burns its stall budget waiting for a quiet client — a zero-length pull
// means the stream is truly closed and drained. Backpressure is the bounded
// queue: Push blocks once max_buffered tuples are in flight, which
// propagates ingest overload to HTTP clients as slow POSTs rather than
// unbounded memory growth.
//
// The queue is a ring of max_buffered tuples, filled and drained with
// memcpy. The mutex guards only the offsets: a producer reserves
// [tail_, tail_ + n) under the lock, copies outside it, then publishes the
// range by advancing ready_; the single consumer copies out of
// [head_, ready_) outside the lock and frees the range by advancing head_
// only after its copy, so a producer never overwrites tuples still being
// read. Producers take producer_mutex_ for a whole Push, so each batch
// lands contiguously in stream order even when it has to wait for room.
// Whenever the queue is empty (head_ == tail_: no copy in flight on either
// side) the offsets restart at 0, so an open-loop feeder that keeps the
// queue near empty touches only the start of the ring.
//
// The ring's storage is a row of fixed 64 KiB segments, each allocated the
// first time a reservation reaches it and never zero-filled (slots are
// written before they are read). A segment is small enough to come from
// malloc's free lists, so a service built after another one reuses memory
// that is already resident. One multi-MiB block would instead be mapped
// fresh and page-faulted anew by every service, and freeing it raises
// glibc's dynamic mmap and trim thresholds for the whole process.
#ifndef SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_
#define SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/stream/source.h"

namespace sketchsample {

class PushSource final : public StreamSource {
 public:
  explicit PushSource(size_t max_buffered = 1u << 20);

  /// Enqueues `n` tuples in order, contiguously with respect to other
  /// producers; blocks while the queue is full. Returns the number
  /// accepted — short only when the stream was closed while waiting (late
  /// producers must not reorder past end-of-stream).
  size_t Push(const uint64_t* values, size_t n);

  /// Marks end-of-stream: queued tuples still drain, then NextChunk
  /// returns 0 for good. Idempotent.
  void Close();

  bool closed() const;
  /// Tuples accepted by Push so far (including not-yet-consumed ones).
  uint64_t pushed() const;

  /// Single consumer: Next and NextChunk must be called from one thread.
  std::optional<uint64_t> Next() override;
  size_t NextChunk(uint64_t* out, size_t max_n) override;
  /// Never stalls: NextChunk blocks instead of returning transient zeros.
  bool Stalled() const override { return false; }

 private:
  // Calls visit(segment, first_slot_in_segment, count) for each run of
  // `n` slots from logical `offset` that lies in one segment.
  template <typename Visit>
  void ForEachRun(uint64_t offset, size_t n, Visit visit) const;

  std::mutex producer_mutex_;  // held for a whole Push: batches stay whole
  const size_t capacity_;
  const size_t segment_slots_;
  // Allocated under mutex_ when a reservation first reaches them; a slot's
  // contents belong to whichever side holds its range (see above).
  std::vector<std::unique_ptr<uint64_t[]>> segments_;

  mutable std::mutex mutex_;  // guards everything below
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  // Logical offsets, head_ <= ready_ <= tail_ <= head_ + capacity_; slot
  // index is offset % capacity_. [head_, ready_) is readable, [ready_,
  // tail_) is reserved by a producer whose copy is in flight.
  uint64_t head_ = 0;
  uint64_t ready_ = 0;
  uint64_t tail_ = 0;
  uint64_t pushed_ = 0;
  bool closed_ = false;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_SERVICE_PUSH_SOURCE_H_
