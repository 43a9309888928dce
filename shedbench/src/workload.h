// Workload definitions, input generation and the correctness oracle.
//
// Every workload feeds a seeded zipf(1.0) stream over a 100k domain into an
// F-AGMS sketch of 5000x1 buckets. The program under test receives only the
// generated tuples; the stream, the POST bodies and the query pool are all
// built before any timed region.
#ifndef SHEDBENCH_WORKLOAD_H_
#define SHEDBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/service/service.h"
#include "src/stream/source.h"

namespace shedbench {

using sketchsample::ServiceSnapshot;
using sketchsample::SketchServiceOptions;

inline constexpr size_t kDomain = 100000;
inline constexpr double kSkew = 1.0;
/// Tuples per Push call and per POST /ingest body.
inline constexpr size_t kBatchTuples = 4096;
/// Snapshot cadence: twice the batch size, so every snapshot position
/// falls at the end of a batch.
inline constexpr uint64_t kSnapshotEvery = 8192;
inline constexpr double kLevel = 0.95;

struct Workload {
  std::string name;
  double p = 1.0;
  size_t shards = 1;
  bool summaries = false;  // distinct_k 1024, quantile_k 200, subpop_k 1024
  bool http = false;       // serve over loopback HTTP instead of Push
  size_t tuples = 0;       // stream length of one pass (multiple of 8192)
};

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// Service configuration of a workload (engine options, sketch shape).
SketchServiceOptions ServiceOptions(const Workload& w);
/// Same, with the three auxiliary summaries switched on or off.
SketchServiceOptions ServiceOptions(const Workload& w, bool summaries);

/// The seeded zipf stream of one pass.
std::vector<uint64_t> MakeStream(size_t tuples, uint64_t seed);

/// Decimal, space-separated POST /ingest bodies of kBatchTuples each.
std::vector<std::string> MakeBodies(const std::vector<uint64_t>& stream);

/// StreamSource over a borrowed array: VectorSource's NextChunk contract
/// without copying the stream into the source.
class SpanSource final : public sketchsample::StreamSource {
 public:
  SpanSource(const uint64_t* values, size_t n) : values_(values), n_(n) {}
  std::optional<uint64_t> Next() override;
  size_t NextChunk(uint64_t* out, size_t max_n) override;

 private:
  const uint64_t* values_;
  size_t n_;
  size_t pos_ = 0;
};

/// One query of the mix.
struct Query {
  enum class Kind { kSelfJoin, kPoint, kDistinct, kQuantile, kSubpop };
  Kind kind = Kind::kSelfJoin;
  uint64_t key = 0;        // point
  double q = 0.5;          // quantile
  sketchsample::SubpopPredicate filter;  // subpop
  std::string target;      // HTTP origin-form target
  const char* span = "";   // span name of its response builder
};

/// Query pool in mix order: per cycle selfjoin 1, point 2, and with
/// summaries distinct 1, quantile 1, subpop 1. Keys, ranks and filters are
/// drawn from `seed`.
std::vector<Query> MakeQueryPool(bool summaries, uint64_t seed);

/// The response builder's JSON for `query` (the body of the matching
/// endpoint, without the trailing newline).
sketchsample::JsonValue Answer(const ServiceSnapshot& snapshot,
                               const Query& query,
                               const sketchsample::QueryFreshness& fresh);

/// Reference state for `stream` under `options`: a 1-shard ShardEngine
/// over a SpanSource with the same engine options and snapshot cadence as
/// the service, converted to the snapshot the service would publish last.
ServiceSnapshot ReferenceSnapshot(const SketchServiceOptions& options,
                                  const std::vector<uint64_t>& stream);

/// Sealed answers of `pool` on `snapshot` (staleness 0, not degraded).
std::vector<std::string> SealedAnswers(const ServiceSnapshot& snapshot,
                                       const std::vector<Query>& pool);

}  // namespace shedbench

#endif  // SHEDBENCH_WORKLOAD_H_
