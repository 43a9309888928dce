#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/sampling/bernoulli.h"
#include "src/service/client.h"
#include "src/service/http.h"
#include "src/service/push_source.h"
#include "src/service/router.h"
#include "src/service/server.h"
#include "src/service/service.h"
#include "src/sketch/fagms.h"
#include "src/sketch/kll.h"
#include "src/sketch/kmv.h"
#include "src/stream/shard_engine.h"
#include "trace.h"

namespace shedbench {

using namespace sketchsample;

namespace {

// Share of `seconds` given to each of the untraced and traced end-to-end
// runs; the layer replays take the rest.
constexpr double kE2eShare = 0.3;
constexpr int kReps = 3;
constexpr size_t kReplayChunk = 8192;
// Kernel replays feed at least this many kept tuples (fresh sketches, so
// bottom-k summaries do not saturate on repeats).
constexpr size_t kMinKernelTuples = 2'000'000;
constexpr int kMergeReps = 30;
// POSTs replayed through the parser and the ingest handler: exactly one
// PushSource buffer (1M tuples), so the handler never waits on the engine.
constexpr size_t kHandlerPosts = 256;
// Closed-loop HTTP ingest for the ledger: four buffers' worth.
constexpr size_t kHttpPosts = 1024;
constexpr int kBuilderCalls = 100;
constexpr int kRoundTrips = 2000;
constexpr int kQueryRoundTrips = 600;
constexpr int kRcuReads = 200'000;

double MedianTotalNs(const char* name) {
  return Median(Tracer::TotalsByRequestNs(name));
}

double MedianDurationNs(const char* name) {
  return Median(Tracer::DurationsNs(name));
}

// Records the gaps between consecutive snapshot publications of one run.
class GapHook final : public ShardSnapshotHook<FagmsSketch> {
 public:
  explicit GapHook(std::vector<double>* gaps_ms) : gaps_ms_(gaps_ms) {}
  void Publish(ShardEngineSnapshot<FagmsSketch>) override {
    const int64_t now = NowNs();
    if (last_ != 0) {
      gaps_ms_->push_back(static_cast<double>(now - last_) * 1e-6);
    }
    last_ = now;
  }

 private:
  std::vector<double>* gaps_ms_;
  int64_t last_ = 0;
};

std::string RawPost(const std::string& body) {
  // Byte for byte what HttpClient sends for POST /ingest.
  return "POST /ingest HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
         std::to_string(body.size()) +
         "\r\nConnection: keep-alive\r\n\r\n" + body;
}

std::string Fixed(double value, int digits) {
  char text[64];
  std::snprintf(text, sizeof(text), "%.*f", digits, value);
  return text;
}

}  // namespace

std::vector<Metric> MeasureLayers(const Inputs& in, double seconds,
                                  const std::string& trace_path,
                                  E2eSamples* checked) {
  const Workload& w = *in.workload;
  const SketchServiceOptions opts = ServiceOptions(w);
  const SketchServiceOptions full = ServiceOptions(w, true);
  const uint64_t* stream = in.stream.data();
  const size_t n = in.stream.size();
  std::vector<Metric> out;
  const auto emit = [&](const char* name, double value, const char* unit,
                        std::string note = std::string()) {
    out.push_back({name, value, unit, std::move(note)});
  };
  const auto fail_unless = [&](bool ok) {
    ++checked->attempted;
    if (!ok) ++checked->failed;
  };

  // --- end to end, untraced then traced -----------------------------------
  Tracer::Enable(false);
  E2eSamples plain;
  RunEndToEnd(in, seconds * kE2eShare, &plain);
  Tracer::Clear();
  Tracer::Enable(true);
  E2eSamples traced;
  RunEndToEnd(in, seconds * kE2eShare, &traced);
  for (const E2eSamples* s : {&plain, &traced}) {
    checked->attempted += s->attempted;
    checked->failed += s->failed;
    checked->wrong += s->wrong;
  }
  const double overhead =
      w.http ? MedianOfGroups(traced.post_us, 0.5).value /
                   MedianOfGroups(plain.post_us, 0.5).value
             : Median(plain.tuples_per_s) / Median(traced.tuples_per_s);
  const double blocked = static_cast<double>(traced.push_ns) /
                         static_cast<double>(traced.ingest_ns);
  const Percentile late = PercentileOf(plain.late_ms, 0.99);

  // --- sampling: the positional coin --------------------------------------
  const PositionalBernoulliSampler sampler(w.p, opts.engine.seed);
  std::vector<uint64_t> kept(n);
  size_t k = 0;
  for (int r = 0; r < kReps; ++r) {
    k = 0;
    for (size_t base = 0; base < n; base += kReplayChunk) {
      const size_t len = std::min(kReplayChunk, n - base);
      ScopedSpan span("sampling.keep_batch", r);
      k += sampler.KeepBatch(base, stream + base, len, kept.data() + k);
    }
  }
  kept.resize(k);
  if (k < 2) throw std::runtime_error("layer replay kept fewer than 2 tuples");
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double coin_ns = MedianTotalNs("sampling.keep_batch") / dn;
  const double kept_share = dk / dn;
  emit("sampling.coin_ns_per_tuple", coin_ns, "ns");
  emit("sampling.kept_share", kept_share, "ratio");

  // --- sketch kernels over the kept stream --------------------------------
  const size_t rounds = std::max<size_t>(1, (kMinKernelTuples + k - 1) / k);
  const auto kernel = [&](const char* name, auto make, auto feed) {
    for (int r = 0; r < kReps; ++r) {
      for (size_t i = 0; i < rounds; ++i) {
        auto sketch = make();
        for (size_t base = 0; base < k; base += kReplayChunk) {
          const size_t len = std::min(kReplayChunk, k - base);
          ScopedSpan span(name, r);
          feed(sketch, kept.data() + base, len);
        }
      }
    }
    return MedianTotalNs(name) / (dk * static_cast<double>(rounds));
  };
  const auto merge = [&](const char* name, auto make, auto feed) {
    auto a = make();
    feed(a, kept.data(), k / 2);
    auto b = make();
    feed(b, kept.data() + k / 2, k - k / 2);
    for (int m = 0; m < kMergeReps; ++m) {
      auto target = a;
      ScopedSpan span(name, m);
      target.Merge(b);
    }
    return MedianDurationNs(name) * 1e-3;
  };
  const uint64_t root = opts.engine.seed;
  const auto make_fagms = [&] { return FagmsSketch(opts.sketch); };
  const auto make_kmv = [&] {
    return KmvSketch(full.engine.distinct_k, ShardDistinctSeed(root));
  };
  const auto make_keyed = [&] {
    return KeyedKmvSketch(full.engine.subpop_k, ShardSubpopSeed(root));
  };
  const auto make_kll = [&] {
    return KllSketch(full.engine.quantile_k, ShardQuantileSeed(root));
  };
  const auto feed_batch = [](FagmsSketch& s, const uint64_t* v, size_t len) {
    s.UpdateBatch(v, len);
  };
  const auto feed_each = [](auto& s, const uint64_t* v, size_t len) {
    for (size_t i = 0; i < len; ++i) s.Update(v[i]);
  };
  const double fagms_ns =
      kernel("sketch.fagms_update", make_fagms, feed_batch);
  const double kmv_ns = kernel("sketch.kmv_update", make_kmv, feed_each);
  const double keyed_ns =
      kernel("sketch.keyed_kmv_update", make_keyed, feed_each);
  const double kll_ns = kernel("sketch.kll_update", make_kll, feed_each);
  emit("sketch.fagms_update_ns_per_tuple", fagms_ns, "ns");
  emit("sketch.kmv_update_ns_per_tuple", kmv_ns, "ns");
  emit("sketch.keyed_kmv_update_ns_per_tuple", keyed_ns, "ns");
  emit("sketch.kll_update_ns_per_tuple", kll_ns, "ns");
  emit("sketch.fagms_merge_us", merge("sketch.fagms_merge", make_fagms,
                                      feed_batch), "us");
  emit("sketch.kmv_merge_us", merge("sketch.kmv_merge", make_kmv, feed_each),
       "us");
  emit("sketch.keyed_kmv_merge_us",
       merge("sketch.keyed_kmv_merge", make_keyed, feed_each), "us");

  // --- stream: ShardEngine over the stream --------------------------------
  // Runs the engine kReps times; with `gaps_ms` set, under a snapshot hook
  // that records publication gaps.
  const auto engine_runs = [&](const char* name, ShardEngineOptions eo,
                               std::vector<double>* gaps_ms) {
    ShardEngineStats stats;
    for (int r = 0; r < kReps; ++r) {
      ShardEngine<FagmsSketch> engine(FagmsSketch(opts.sketch), eo);
      GapHook hook(gaps_ms);
      if (gaps_ms != nullptr) engine.SetSnapshotHook(&hook, kSnapshotEvery);
      SpanSource source(stream, n);
      ScopedSpan span(name, r);
      stats = engine.Run(source);
    }
    fail_unless(stats.tuples == n && stats.kept == k);
    return stats;
  };
  engine_runs("stream.engine_run", opts.engine, nullptr);
  std::vector<double> gaps_ms;
  const ShardEngineStats hooked =
      engine_runs("stream.engine_run_snapshots", opts.engine, &gaps_ms);
  ShardEngineOptions other_fold = opts.engine;
  other_fold.quantile_k =
      opts.engine.quantile_k > 0 ? 0 : full.engine.quantile_k;
  engine_runs("stream.engine_run_other_fold", other_fold, nullptr);
  const double engine_ns = MedianTotalNs("stream.engine_run") / dn;
  const double snapshot_ns = MedianTotalNs("stream.engine_run_snapshots") -
                            MedianTotalNs("stream.engine_run");
  const double fold_delta = MedianTotalNs("stream.engine_run") -
                            MedianTotalNs("stream.engine_run_other_fold");
  const Percentile gap = PercentileOf(gaps_ms, 0.99);
  emit("stream.engine_ns_per_tuple", engine_ns, "ns");
  emit("stream.snapshot_us",
       snapshot_ns * 1e-3 / static_cast<double>(std::max<uint64_t>(
                                hooked.snapshots, 1)),
       "us", std::to_string(hooked.snapshots) + " snapshots");
  emit("stream.kll_fold_ns_per_kept",
       (opts.engine.quantile_k > 0 ? fold_delta : -fold_delta) / dk, "ns");
  emit("stream.publish_gap_p99_ms", gap.value, "ms",
       std::to_string(gap.samples) + " gaps, " + std::to_string(gap.beyond) +
           " beyond");
  emit("stream.ring_full_retries",
       static_cast<double>(hooked.ring_full_retries), "count");
  emit("stream.quiesces", static_cast<double>(hooked.quiesces), "count");
  emit("stream.merges", static_cast<double>(hooked.merges), "count");
  emit("stream.snapshots", static_cast<double>(hooked.snapshots), "count");
  emit("stream.quantile_folds", static_cast<double>(hooked.quantile_folds),
       "count");

  // --- service: PushSource with a draining consumer -----------------------
  for (int r = 0; r < kReps; ++r) {
    PushSource source(opts.push_buffer);
    uint64_t drained = 0;
    ScopedSpan span("service.push_source", r);
    std::thread consumer([&] {
      std::vector<uint64_t> buffer(kPipelineChunk);
      size_t got = 0;
      while ((got = source.NextChunk(buffer.data(), buffer.size())) > 0) {
        drained += got;
      }
    });
    for (size_t base = 0; base < n; base += kBatchTuples) {
      source.Push(stream + base, std::min(kBatchTuples, n - base));
    }
    source.Close();
    consumer.join();
    fail_unless(drained == n);
  }
  emit("service.push_source_ns_per_tuple",
       MedianTotalNs("service.push_source") / dn, "ns");
  emit("service.push_blocked_share", blocked, "ratio");

  // Recorded POSTs: the first kHttpPosts batches of the stream.
  std::vector<std::string> bodies;
  if (w.http) {
    bodies.assign(in.bodies.begin(),
                  in.bodies.begin() + std::min(kHttpPosts, in.bodies.size()));
  } else {
    bodies = MakeBodies(std::vector<uint64_t>(
        in.stream.begin(),
        in.stream.begin() + std::min(n, kHttpPosts * kBatchTuples)));
  }
  const size_t handler_posts = std::min(kHandlerPosts, bodies.size());
  std::vector<std::string> raw;
  size_t raw_bytes = 0;
  for (size_t i = 0; i < handler_posts; ++i) {
    raw.push_back(RawPost(bodies[i]));
    raw_bytes += raw.back().size();
  }
  std::vector<HttpRequest> parsed(handler_posts);
  for (int r = 0; r < kReps; ++r) {
    HttpRequestParser parser{HttpLimits()};
    bool ok = true;
    for (size_t i = 0; i < handler_posts; ++i) {
      ScopedSpan span("service.http_parse", r);
      parser.Feed(raw[i].data(), raw[i].size());
      ok = parser.Next(&parsed[i]) && ok;
    }
    fail_unless(ok && !parser.error());
  }
  emit("service.http_parse_ns_per_byte",
       MedianTotalNs("service.http_parse") / static_cast<double>(raw_bytes),
       "ns");

  size_t handler_tuples = 0;
  for (int r = 0; r < kReps; ++r) {
    SketchService service(opts);
    Router router;
    service.Register(router);
    service.Start();
    RequestContext context;
    bool ok = true;
    for (size_t i = 0; i < handler_posts; ++i) {
      ScopedSpan span("service.ingest_dispatch", r);
      ok = router.Dispatch(parsed[i], context).status == 200 && ok;
    }
    service.CloseIngest();
    WaitIngestDone(service);
    handler_tuples = service.pushed();
    fail_unless(ok && handler_tuples == handler_posts * kBatchTuples);
  }
  emit("service.ingest_handler_ns_per_tuple",
       MedianTotalNs("service.ingest_dispatch") /
           static_cast<double>(handler_tuples),
       "ns");

  {
    SketchService service(opts);
    uint64_t seen = 0;
    for (int r = 0; r < kReps; ++r) {
      ScopedSpan span("service.rcu_read", r);
      for (int i = 0; i < kRcuReads; ++i) {
        seen += service.registry().Read(kProbeSlot) ? 1 : 0;
      }
    }
    fail_unless(seen == static_cast<uint64_t>(kReps) * kRcuReads);
    emit("service.rcu_read_ns", MedianTotalNs("service.rcu_read") / kRcuReads,
         "ns");
  }

  // Closed-loop Push over the whole stream: the push rate of the ledger.
  {
    SketchService service(opts);
    service.Start();
    ScopedSpan span("service.push_closed", 0);
    for (size_t base = 0; base < n; base += kBatchTuples) {
      service.Push(stream + base, std::min(kBatchTuples, n - base));
    }
    service.CloseIngest();
    WaitIngestDone(service);
    fail_unless(service.pushed() == n && service.ingest_error().empty());
  }
  const double push_rate = dn / (MedianTotalNs("service.push_closed") * 1e-9);

  // Loopback HTTP: health round trips, closed-loop ingest, sealed queries.
  double http_rate = 0;
  {
    SketchService service(opts);
    Router router;
    service.Register(router);
    HttpServerOptions server_options;
    server_options.bind_address = "127.0.0.1";
    server_options.max_connections = 2;
    HttpServer server(&router, server_options);
    server.Start();
    service.Start();
    const auto client = Client(server.port());
    bool ok = true;
    for (int i = 0; i < kRoundTrips; ++i) {
      ScopedSpan span("service.healthz_roundtrip", i);
      ok = client->Get("/healthz").status == 200 && ok;
    }
    {
      ScopedSpan span("http.ingest_closed", 0);
      for (const std::string& body : bodies) {
        ok = client->Post("/ingest", body).status == 200 && ok;
      }
      ok = client->Post("/ingest/close", "").status == 200 && ok;
      WaitIngestDone(service);
    }
    fail_unless(ok && service.pushed() == bodies.size() * kBatchTuples);
    http_rate = static_cast<double>(service.pushed()) /
                (MedianTotalNs("http.ingest_closed") * 1e-9);
    for (int i = 0; i < kQueryRoundTrips; ++i) {
      ScopedSpan span("service.query_roundtrip", i);
      ok = client->Get(in.pool[i % in.pool.size()].target).status == 200 && ok;
    }
    fail_unless(ok);
    server.Stop();
    service.Stop();
  }
  emit("service.roundtrip_us",
       MedianDurationNs("service.healthz_roundtrip") * 1e-3, "us");

  // --- core: response builders, and util: JSON dump -----------------------
  // Every workload measures all five builders; batch_shed has no summaries,
  // so its builders read a reference snapshot with them switched on.
  std::optional<ServiceSnapshot> with_summaries;
  const ServiceSnapshot* snapshot = &*in.reference;
  std::vector<Query> pool = in.pool;
  if (!w.summaries) {
    with_summaries.emplace(ReferenceSnapshot(full, in.stream));
    snapshot = &*with_summaries;
    pool = MakeQueryPool(true, in.seed);
  }
  QueryFreshness fresh;
  fresh.pushed = snapshot->position;
  for (int i = 0; i < kBuilderCalls; ++i) {
    for (const Query& query : pool) {
      JsonValue json;
      {
        ScopedSpan span(query.span, i);
        json = Answer(*snapshot, query, fresh);
      }
      ScopedSpan span("util.json_dump", i);
      fail_unless(!json.Dump().empty());
    }
  }
  double builder_us = 0;
  for (const char* name : {"core.selfjoin", "core.point", "core.distinct",
                           "core.quantile", "core.subpop"}) {
    const double us = Median(Tracer::SelfTimesNs(name)) * 1e-3;
    builder_us += us;
    out.push_back({std::string(name) + "_us", us, "us", ""});
  }
  const double dump_us = Median(Tracer::SelfTimesNs("util.json_dump")) * 1e-3;
  emit("util.json_dump_us", dump_us, "us");
  // Mean builder cost of the five query kinds plus one dump, against the
  // median HTTP round trip of the workload's query mix.
  const double builder_mix_us = builder_us / 5 + dump_us;
  const double query_http_us =
      MedianDurationNs("service.query_roundtrip") * 1e-3;

  // --- run validity -------------------------------------------------------
  emit("driver.late_p99_ms", late.value, "ms",
       std::to_string(late.samples) + " sends, " +
           std::to_string(late.beyond) + " beyond");
  emit("driver.backlog_max_tuples", static_cast<double>(plain.backlog_max),
       "count");
  emit("driver.trace_overhead", overhead, "ratio",
       w.http ? "traced/untraced post_p50_us"
              : "untraced/traced tuples_per_s");

  // --- ledger: each layer's rate over the rate of the layer beneath --------
  const double summary_ns = w.summaries ? kmv_ns + keyed_ns + kll_ns : 0.0;
  const double kernel_rate =
      1e9 / (coin_ns + kept_share * (fagms_ns + summary_ns));
  const double engine_rate = 1e9 / engine_ns;
  emit("ledger.engine_over_kernel", engine_rate / kernel_rate, "ratio",
       "base: coin+kernels " + Fixed(kernel_rate * 1e-6, 1) +
           " M offered tuples/s");
  emit("ledger.push_over_engine", push_rate / engine_rate, "ratio",
       "base: engine " + Fixed(engine_rate * 1e-6, 1) + " M tuples/s");
  emit("ledger.http_over_push", http_rate / push_rate, "ratio",
       "base: service Push " + Fixed(push_rate * 1e-6, 2) +
           " M tuples/s; HTTP /ingest " + Fixed(http_rate * 1e-6, 2) +
           " M tuples/s");
  emit("ledger.query_http_over_builder", builder_mix_us / query_http_us,
       "ratio",
       "base: builder+dump " + Fixed(builder_mix_us, 1) + " us; HTTP query " +
           Fixed(query_http_us, 1) + " us");

  if (!trace_path.empty() && !Tracer::WriteJsonLines(trace_path)) {
    std::fprintf(stderr, "shedbench: cannot write spans to %s\n",
                 trace_path.c_str());
  }
  return out;
}

}  // namespace shedbench
