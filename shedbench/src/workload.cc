#include "workload.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/data/zipf.h"
#include "src/stream/shard_engine.h"
#include "src/util/rng.h"

namespace shedbench {

using namespace sketchsample;

namespace {

// batch_shed is the paper's setting: the coin, routing and PushSource do
// nearly all the work and the kernel sees 1% of tuples. batch_summaries
// makes snapshot publication with summary merges and the KLL fold dominate,
// with two lanes so the lane merge is real. serve_mixed puts HTTP parsing,
// decimal parsing and the query path in front of the same summaries.
const Workload kWorkloads[] = {
    {"batch_shed", 0.01, 1, false, false, size_t{1} << 24},
    {"batch_summaries", 0.1, 2, true, false, size_t{1} << 22},
    {"serve_mixed", 0.1, 1, true, true, size_t{1} << 21},
};

// Positional-shed root seed and sketch seed: fixed program configuration
// (the CLI defaults), independent of the input seed.
constexpr uint64_t kShedSeed = 7;
constexpr uint64_t kSketchSeed = 1;

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

SketchServiceOptions ServiceOptions(const Workload& w) {
  return ServiceOptions(w, w.summaries);
}

SketchServiceOptions ServiceOptions(const Workload& w, bool summaries) {
  SketchServiceOptions o;
  o.sketch.rows = 1;
  o.sketch.buckets = 5000;
  o.sketch.scheme = XiScheme::kEh3;
  o.sketch.seed = kSketchSeed;
  o.engine.shards = w.shards;
  o.engine.shed_p = w.p;
  o.engine.seed = kShedSeed;
  if (summaries) {
    o.engine.distinct_k = 1024;
    o.engine.quantile_k = 200;
    o.engine.subpop_k = 1024;
  }
  o.snapshot_every = kSnapshotEvery;
  o.default_level = kLevel;
  return o;
}

std::vector<uint64_t> MakeStream(size_t tuples, uint64_t seed) {
  const ZipfSampler sampler(kDomain, kSkew);
  Xoshiro256 rng(seed);
  return sampler.Stream(tuples, rng);
}

std::vector<std::string> MakeBodies(const std::vector<uint64_t>& stream) {
  std::vector<std::string> bodies;
  bodies.reserve(stream.size() / kBatchTuples + 1);
  char digits[24];
  for (size_t start = 0; start < stream.size(); start += kBatchTuples) {
    const size_t end = std::min(stream.size(), start + kBatchTuples);
    std::string body;
    body.reserve((end - start) * 7);
    for (size_t i = start; i < end; ++i) {
      if (i > start) body.push_back(' ');
      const auto result =
          std::to_chars(digits, digits + sizeof(digits), stream[i]);
      body.append(digits, result.ptr);
    }
    bodies.push_back(std::move(body));
  }
  return bodies;
}

std::optional<uint64_t> SpanSource::Next() {
  if (pos_ >= n_) return std::nullopt;
  return values_[pos_++];
}

size_t SpanSource::NextChunk(uint64_t* out, size_t max_n) {
  const size_t n = std::min(max_n, n_ - pos_);
  std::copy_n(values_ + pos_, n, out);
  pos_ += n;
  return n;
}

std::vector<Query> MakeQueryPool(bool summaries, uint64_t seed) {
  Xoshiro256 rng(MixSeed(seed, 0x9e77));
  const double ranks[] = {0.5, 0.9, 0.99, 0.25};
  const char* filters[] = {"range:0-999", "mod:7-3", "mask:15-5",
                           "range:100-50000"};
  std::vector<Query> pool;
  for (int cycle = 0; cycle < 4; ++cycle) {
    Query selfjoin;
    selfjoin.kind = Query::Kind::kSelfJoin;
    selfjoin.target = "/query/selfjoin";
    selfjoin.span = "core.selfjoin";
    pool.push_back(selfjoin);
    for (int i = 0; i < 2; ++i) {
      Query point;
      point.kind = Query::Kind::kPoint;
      // Half hot keys, half from the long tail of the zipf domain.
      point.key = i == 0 ? rng.NextBounded(100) : rng.NextBounded(kDomain);
      point.target = "/query/point?key=" + std::to_string(point.key);
      point.span = "core.point";
      pool.push_back(point);
    }
    if (!summaries) continue;
    Query distinct;
    distinct.kind = Query::Kind::kDistinct;
    distinct.target = "/query/distinct";
    distinct.span = "core.distinct";
    pool.push_back(distinct);
    Query quantile;
    quantile.kind = Query::Kind::kQuantile;
    quantile.q = ranks[cycle];
    char text[32];
    const auto end = std::to_chars(text, text + sizeof(text), quantile.q);
    quantile.target = "/query/quantile?q=" + std::string(text, end.ptr);
    quantile.span = "core.quantile";
    pool.push_back(quantile);
    Query subpop;
    subpop.kind = Query::Kind::kSubpop;
    subpop.filter = ParseSubpopFilter(filters[cycle]);
    subpop.target = "/query/subpop?filter=" + subpop.filter.ToString();
    subpop.span = "core.subpop";
    pool.push_back(subpop);
  }
  return pool;
}

JsonValue Answer(const ServiceSnapshot& snapshot, const Query& query,
                 const QueryFreshness& fresh) {
  switch (query.kind) {
    case Query::Kind::kSelfJoin:
      return SelfJoinResponseJson(snapshot, std::nullopt, kLevel, fresh);
    case Query::Kind::kPoint:
      return PointResponseJson(snapshot, query.key, std::nullopt, kLevel,
                               fresh);
    case Query::Kind::kDistinct:
      return DistinctResponseJson(snapshot, kLevel, fresh);
    case Query::Kind::kQuantile:
      return QuantileResponseJson(snapshot, query.q, kLevel, fresh);
    case Query::Kind::kSubpop:
      return SubpopResponseJson(snapshot, query.filter, kLevel, fresh);
  }
  throw std::logic_error("unknown query kind");
}

namespace {

class CaptureHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  void Publish(ShardEngineSnapshot<FagmsSketch> snapshot) override {
    last.emplace(std::move(snapshot));
  }
  std::optional<ShardEngineSnapshot<FagmsSketch>> last;
};

}  // namespace

ServiceSnapshot ReferenceSnapshot(const SketchServiceOptions& options,
                                  const std::vector<uint64_t>& stream) {
  ShardEngineOptions engine_options = options.engine;
  engine_options.shards = 1;
  ShardEngine<FagmsSketch> engine(FagmsSketch(options.sketch), engine_options);
  CaptureHook hook;
  engine.SetSnapshotHook(&hook, options.snapshot_every);
  SpanSource source(stream.data(), stream.size());
  engine.Run(source);
  if (!hook.last.has_value()) {
    throw std::runtime_error("reference engine published no snapshot");
  }
  ShardEngineSnapshot<FagmsSketch>& s = *hook.last;
  return ServiceSnapshot{std::move(s.sketch), std::move(s.distinct),
                         std::move(s.quantile), std::move(s.subpop),
                         s.position, s.kept, s.sequence, s.p};
}

std::vector<std::string> SealedAnswers(const ServiceSnapshot& snapshot,
                                       const std::vector<Query>& pool) {
  QueryFreshness fresh;
  fresh.pushed = snapshot.position;
  std::vector<std::string> answers;
  answers.reserve(pool.size());
  for (const Query& query : pool) {
    answers.push_back(Answer(snapshot, query, fresh).Dump());
  }
  return answers;
}

}  // namespace shedbench
