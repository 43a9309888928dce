// Stream operators: push-based processing stages.
//
// Operators receive tuples via OnTuple (one at a time) or OnTuples (a
// chunk), and may forward them to a downstream operator. The Bernoulli
// shedding stage of §VI-A lives inside the engine's workers
// (src/stream/shard_engine.h); operators are the stages behind it — fault
// injection (src/stream/faults.h) and sinks. The batch entry points exist
// because per-tuple virtual dispatch (plus a std::function call in the
// sink) dominates the very quantity §VI-A measures — per-tuple
// sketch-update cost — once the sketch kernels themselves are batched.
#ifndef SKETCHSAMPLE_STREAM_OPERATORS_H_
#define SKETCHSAMPLE_STREAM_OPERATORS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

namespace sketchsample {

/// Push-based operator interface.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Consumes one tuple.
  virtual void OnTuple(uint64_t value) = 0;

  /// Consumes a chunk of tuples. The default forwards tuple-at-a-time to
  /// OnTuple, so existing scalar operators work unchanged inside a chunked
  /// pipeline; hot operators override it to process whole chunks.
  virtual void OnTuples(const uint64_t* values, size_t n) {
    for (size_t i = 0; i < n; ++i) OnTuple(values[i]);
  }

  /// Signals end of stream (default: no-op).
  virtual void OnEnd() {}
};

/// Terminal stage feeding any sketch (or other consumer) through a
/// callback. Two flavors: a per-tuple callback (type-erased, one
/// std::function call per tuple) and a batch callback invoked once per
/// chunk, which removes per-tuple std::function dispatch from the hot path
/// entirely.
class SinkOperator final : public Operator {
 public:
  // Scalar-compat sink; hot pipelines use the batch constructor below.
  // lint:allow(hot-path-std-function): one call per tuple by request only
  explicit SinkOperator(std::function<void(uint64_t)> consume)
      : consume_(std::move(consume)) {}
  // Invoked once per chunk; per-tuple dispatch is devirtualized inside
  // the sketch's UpdateBatch kernel.
  // lint:allow(hot-path-std-function): per-chunk cost, not per-tuple
  explicit SinkOperator(std::function<void(const uint64_t*, size_t)> batch)
      : batch_(std::move(batch)) {}

  void OnTuple(uint64_t value) override {
    ++count_;
    if (consume_) {
      consume_(value);
    } else {
      batch_(&value, 1);
    }
  }

  void OnTuples(const uint64_t* values, size_t n) override {
    count_ += n;
    if (batch_) {
      batch_(values, n);
    } else {
      for (size_t i = 0; i < n; ++i) consume_(values[i]);
    }
  }

  uint64_t count() const { return count_; }

 private:
  // lint:allow(hot-path-std-function): see the constructors above
  std::function<void(uint64_t)> consume_;
  // lint:allow(hot-path-std-function): see the constructors above
  std::function<void(const uint64_t*, size_t)> batch_;
  uint64_t count_ = 0;
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_STREAM_OPERATORS_H_
