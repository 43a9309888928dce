#include "src/service/push_source.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>

#include "src/util/metrics.h"

namespace sketchsample {

namespace {

// 64 KiB: below glibc's default mmap threshold (128 KiB), so segments are
// served from, and returned to, malloc's free lists.
constexpr size_t kSegmentSlots = size_t{1} << 13;

}  // namespace

PushSource::PushSource(size_t max_buffered)
    : capacity_(max_buffered == 0 ? 1 : max_buffered),
      segment_slots_(std::min(capacity_, kSegmentSlots)),
      segments_((capacity_ + segment_slots_ - 1) / segment_slots_) {}

template <typename Visit>
void PushSource::ForEachRun(uint64_t offset, size_t n, Visit visit) const {
  while (n > 0) {
    const size_t slot = static_cast<size_t>(offset % capacity_);
    const size_t at = slot % segment_slots_;
    const size_t run = std::min({n, segment_slots_ - at, capacity_ - slot});
    visit(slot / segment_slots_, at, run);
    offset += run;
    n -= run;
  }
}

size_t PushSource::Push(const uint64_t* values, size_t n) {
  std::lock_guard<std::mutex> producer(producer_mutex_);
  size_t accepted = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (accepted < n) {
    not_full_.wait(lock, [this] {
      return closed_ || tail_ - head_ < capacity_;
    });
    if (closed_) break;
    if (head_ == tail_) head_ = ready_ = tail_ = 0;  // empty: restart at 0
    const uint64_t offset = tail_;
    const size_t take =
        std::min(capacity_ - static_cast<size_t>(tail_ - head_), n - accepted);
    ForEachRun(offset, take, [this](size_t segment, size_t, size_t) {
      if (!segments_[segment]) {
        segments_[segment] =
            std::make_unique_for_overwrite<uint64_t[]>(segment_slots_);
      }
    });
    tail_ += take;
    lock.unlock();
    const uint64_t* in = values + accepted;
    ForEachRun(offset, take, [this, &in](size_t segment, size_t at,
                                         size_t run) {
      std::memcpy(segments_[segment].get() + at, in, run * sizeof(uint64_t));
      in += run;
    });
    lock.lock();
    // producer_mutex_ makes this the only reservation in flight, and head_
    // cannot pass ready_, so no reset moved the offsets during the copy.
    ready_ = tail_;
    accepted += take;
    not_empty_.notify_one();
  }
  pushed_ += accepted;
  SKETCHSAMPLE_METRIC_ADD("service.ingest.pushed", accepted);
  return accepted;
}

void PushSource::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool PushSource::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

uint64_t PushSource::pushed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pushed_;
}

std::optional<uint64_t> PushSource::Next() {
  uint64_t value = 0;
  return NextChunk(&value, 1) == 1 ? std::optional<uint64_t>(value)
                                   : std::nullopt;
}

size_t PushSource::NextChunk(uint64_t* out, size_t max_n) {
  std::unique_lock<std::mutex> lock(mutex_);
  // End-of-stream only once no producer copy is in flight either: a
  // reservation made before Close still counts as accepted and must drain.
  not_empty_.wait(lock, [this] {
    return ready_ > head_ || (closed_ && tail_ == head_);
  });
  const size_t n = std::min(max_n, static_cast<size_t>(ready_ - head_));
  if (n == 0) return 0;
  const uint64_t offset = head_;
  lock.unlock();
  ForEachRun(offset, n, [this, &out](size_t segment, size_t at, size_t run) {
    std::memcpy(out, segments_[segment].get() + at, run * sizeof(uint64_t));
    out += run;
  });
  lock.lock();
  head_ += n;
  if (head_ == tail_) head_ = ready_ = tail_ = 0;  // empty: restart at 0
  not_full_.notify_one();
  return n;
}

}  // namespace sketchsample
