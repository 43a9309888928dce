#include "e2e.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <thread>

#include "src/service/client.h"
#include "src/service/server.h"
#include "src/service/service.h"
#include "trace.h"

namespace shedbench {

using namespace sketchsample;

namespace {

// Share of a batch run spent on ingest passes; the rest queries the sealed
// snapshot of each pass right after it, so the query groups are spread over
// the whole run like the passes are, and a host slowdown of a few seconds
// moves only the groups it overlaps.
constexpr double kBatchIngestShare = 0.8;
// Open-loop senders spin out the last stretch before each send: a timer
// wake-up alone is late by about as long as a query takes, and by a
// host-dependent amount.
constexpr int64_t kSpinNs = 200'000;
// Setup cycles before each pass or round, back to back. The first of them
// pays for re-faulting the memory the previous pass released (about 3x
// slower) and is not recorded, so every sample starts from the same heap
// and thread state; spreading the bursts over the run, like the passes,
// keeps one moment of host load from deciding the median.
constexpr int kSetupsPerPass = 4;

// Ready once the first snapshot is readable.
void WaitFirstSnapshot(SketchService& service) {
  while (!service.registry().Read(kProbeSlot)) std::this_thread::yield();
}

// The HTTP server of serve_mixed: one slot per connection the benchmark
// opens (ingest, queries, and the sealing client), plus one spare.
HttpServerOptions ServerOptions() {
  HttpServerOptions options;
  options.bind_address = "127.0.0.1";
  options.port = 0;
  options.max_connections = kServeConnections + 2;
  return options;
}

// The service (and, for serve_mixed, its HTTP server) of one pass.
struct Instance {
  std::unique_ptr<SketchService> service;
  std::unique_ptr<Router> router;
  std::unique_ptr<HttpServer> server;

  ~Instance() {
    if (server) server->Stop();
    if (service) service->Stop();
  }
};

// Constructs and starts the service (and server) until the first snapshot
// is readable; records the time in `setup_s` when it is non-null.
std::unique_ptr<Instance> SetUp(const Inputs& in, std::vector<double>* setup_s,
                                uint64_t request) {
  ScopedSpan span("service.setup", request);
  const int64_t t0 = NowNs();
  auto instance = std::make_unique<Instance>();
  instance->service =
      std::make_unique<SketchService>(ServiceOptions(*in.workload));
  if (in.workload->http) {
    instance->router = std::make_unique<Router>();
    instance->service->Register(*instance->router);
    instance->server =
        std::make_unique<HttpServer>(instance->router.get(), ServerOptions());
    instance->server->Start();
  }
  instance->service->Start();
  WaitFirstSnapshot(*instance->service);
  if (setup_s != nullptr) {
    setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return instance;
}

void SetUpBurst(const Inputs& in, std::vector<double>* setup_s) {
  SetUp(in, nullptr, 0);
  for (int i = 1; i < kSetupsPerPass; ++i) SetUp(in, setup_s, 0);
}

// Counts one sealed answer against the oracle.
void CheckSealed(const std::string& got, const std::string& want,
                 E2eSamples& out) {
  ++out.attempted;
  if (got != want) {
    ++out.failed;
    ++out.wrong;
  }
}

// Freshness probe after a Push: the newest readable snapshot, timed against
// the ack of the batch that completed its position.
void Observe(SketchService& service, const std::vector<int64_t>& acks,
             uint64_t pushed, uint64_t* seen, E2eSamples& out) {
  const auto guard = service.registry().Read(kProbeSlot);
  if (!guard || guard->position <= *seen) return;
  *seen = guard->position;
  const int64_t now = NowNs();
  const size_t index = static_cast<size_t>(*seen / kBatchTuples) - 1;
  if (index < acks.size() && acks[index] != 0) {
    out.freshness_ms.back().push_back(static_cast<double>(now - acks[index]) *
                                      1e-6);
  }
  if (pushed > *seen) {
    out.backlog_max = std::max(out.backlog_max, pushed - *seen);
  }
}

std::unique_ptr<Instance> BatchPass(const Inputs& in, E2eSamples& out,
                                    uint64_t pass) {
  ScopedSpan pass_span("batch.pass", pass);
  std::unique_ptr<Instance> instance = SetUp(in, nullptr, pass);
  SketchService& service = *instance->service;
  const std::vector<uint64_t>& stream = in.stream;
  const size_t batches = stream.size() / kBatchTuples;
  std::vector<int64_t> acks(batches, 0);
  uint64_t seen = 0;
  std::vector<double>& post_us = out.post_us.emplace_back();
  out.freshness_ms.emplace_back();
  const int64_t first = NowNs();
  for (size_t b = 0; b < batches; ++b) {
    int64_t start = 0;
    int64_t end = 0;
    size_t accepted = 0;
    {
      ScopedSpan span("service.push", pass);
      start = NowNs();
      accepted = service.Push(stream.data() + b * kBatchTuples, kBatchTuples);
      end = NowNs();
    }
    ++out.attempted;
    if (accepted != kBatchTuples) ++out.failed;
    post_us.push_back(static_cast<double>(end - start) * 1e-3);
    out.push_ns += end - start;
    acks[b] = end;
    Observe(service, acks, (b + 1) * kBatchTuples, &seen, out);
  }
  out.ingest_ns += NowNs() - first;
  {
    ScopedSpan span("service.seal", pass);
    service.CloseIngest();
    WaitIngestDone(service);
    Observe(service, acks, stream.size(), &seen, out);
  }
  const int64_t sealed = NowNs();
  out.tuples_per_s.push_back(static_cast<double>(stream.size()) /
                             (static_cast<double>(sealed - first) * 1e-9));

  ScopedSpan span("batch.verify", pass);
  ++out.attempted;
  if (!service.ingest_error().empty() || seen != stream.size()) ++out.failed;
  const auto guard = service.registry().Read(kProbeSlot);
  QueryFreshness fresh;
  fresh.pushed = service.pushed();
  for (size_t i = 0; i < in.pool.size(); ++i) {
    CheckSealed(Answer(*guard, in.pool[i], fresh).Dump(), in.sealed[i], out);
  }
  return instance;
}

// Open-loop in-process queries against the sealed snapshot of a batch pass:
// registry read, response builder and JSON dump, each answer checked. The
// queries of one call form one latency group; `*next` numbers the queries
// across calls, so the pool is cycled over the whole run.
void BatchQueries(const Inputs& in, SketchService& service, double seconds,
                  uint64_t* next, E2eSamples& out) {
  QueryFreshness fresh;
  fresh.pushed = service.pushed();
  const int64_t interval = static_cast<int64_t>(1e9 / kBatchQueriesPerS);
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  for (Groups& kind : out.query_us) kind.emplace_back();
  for (uint64_t i = 0;; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * interval;
    if (due >= end) break;
    SleepUntil(due);
    out.late_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
    const uint64_t j = (*next)++;
    const Query& query = in.pool[j % in.pool.size()];
    std::string body;
    {
      ScopedSpan span("batch.query", j);
      const auto guard = service.registry().Read(kProbeSlot);
      JsonValue json;
      {
        ScopedSpan build(query.span, j);
        json = Answer(*guard, query, fresh);
      }
      ScopedSpan dump("util.json_dump", j);
      body = json.Dump();
    }
    out.query_us[static_cast<size_t>(query.kind)].back().push_back(
        static_cast<double>(NowNs() - due) * 1e-3);
    CheckSealed(body, in.sealed[j % in.pool.size()], out);
  }
}

void RunBatch(const Inputs& in, double seconds, E2eSamples& out) {
  {
    E2eSamples warm;
    BatchPass(in, warm, 0);
  }
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const double query_per_ingest = (1 - kBatchIngestShare) / kBatchIngestShare;
  uint64_t pass = 1;
  uint64_t queries = 0;
  do {
    SetUpBurst(in, &out.setup_s);
    const int64_t start = NowNs();
    const std::unique_ptr<Instance> instance = BatchPass(in, out, pass++);
    const double ingest_s = static_cast<double>(NowNs() - start) * 1e-9;
    BatchQueries(in, *instance->service, ingest_s * query_per_ingest,
                 &queries, out);
  } while (NowNs() < end);
}

uint64_t ParsePosition(const std::string& body) {
  const char* key = "\"position\":";
  const size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + std::char_traits<char>::length(key),
                       nullptr, 10);
}

bool Ok(const HttpClient::Response& response) {
  return response.ok && response.status == 200;
}

// One serve_mixed round: a fresh service and server, the whole stream
// POSTed at a fixed rate beside a fixed-rate query mix, then ingest closed
// and the sealed answers compared with the oracle over HTTP.
void ServeRound(const Inputs& in, E2eSamples& out, uint64_t round) {
  ScopedSpan round_span("serve.round", round);
  std::unique_ptr<Instance> instance = SetUp(in, nullptr, round);
  SketchService& service = *instance->service;
  const int port = instance->server->port();
  const size_t posts = in.bodies.size();
  const int64_t post_interval =
      static_cast<int64_t>(kBatchTuples * 1e9 / kServeIngestTuplesPerS);
  const int64_t query_interval = static_cast<int64_t>(1e9 / kServeQueriesPerS);
  const int64_t start = NowNs() + 2'000'000;
  const int64_t ingest_end =
      start + static_cast<int64_t>(posts) * post_interval;

  std::vector<int64_t> acks(posts, 0);
  struct Answered {
    int64_t received;
    uint64_t position;
  };
  std::vector<Answered> answered;
  // Per-thread tallies, merged into `out` once both threads have joined.
  E2eSamples ingest_side;
  E2eSamples query_side;
  std::vector<double> post_us;
  std::array<std::vector<double>, kQueryKinds> query_us;

  std::thread ingest([&] {
    const auto client = Client(port);
    for (size_t i = 0; i < posts; ++i) {
      const int64_t due = start + static_cast<int64_t>(i) * post_interval;
      SleepUntil(due);
      const int64_t sent = NowNs();
      ingest_side.late_ms.push_back(static_cast<double>(sent - due) * 1e-6);
      HttpClient::Response response;
      {
        ScopedSpan span("http.post", round);
        response = client->Post("/ingest", in.bodies[i]);
      }
      const int64_t ack = NowNs();
      acks[i] = ack;
      post_us.push_back(static_cast<double>(ack - due) * 1e-3);
      ingest_side.push_ns += ack - sent;
      ++ingest_side.attempted;
      if (!Ok(response) ||
          response.body.find("\"accepted\":" + std::to_string(kBatchTuples)) ==
              std::string::npos) {
        ++ingest_side.failed;
      }
    }
    ingest_side.ingest_ns += NowNs() - start;
  });
  std::thread queries([&] {
    const auto client = Client(port);
    for (uint64_t j = 0;; ++j) {
      const int64_t due = start + static_cast<int64_t>(j) * query_interval;
      if (due >= ingest_end) break;
      SleepUntil(due);
      query_side.late_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
      const Query& query = in.pool[j % in.pool.size()];
      HttpClient::Response response;
      {
        ScopedSpan span("http.query", j);
        response = client->Get(query.target);
      }
      const int64_t received = NowNs();
      query_us[static_cast<size_t>(query.kind)].push_back(
          static_cast<double>(received - due) * 1e-3);
      ++query_side.attempted;
      if (!Ok(response)) {
        ++query_side.failed;
        continue;
      }
      answered.push_back({received, ParsePosition(response.body)});
    }
  });
  ingest.join();
  queries.join();

  for (E2eSamples* side : {&ingest_side, &query_side}) {
    out.late_ms.insert(out.late_ms.end(), side->late_ms.begin(),
                       side->late_ms.end());
    out.attempted += side->attempted;
    out.failed += side->failed;
    out.push_ns += side->push_ns;
    out.ingest_ns += side->ingest_ns;
  }
  out.post_us.push_back(std::move(post_us));
  for (size_t k = 0; k < kQueryKinds; ++k) {
    out.query_us[k].push_back(std::move(query_us[k]));
  }
  // Acks are in send order, so the tuples acknowledged by a receive time
  // are a binary search away.
  std::vector<double>& freshness_ms = out.freshness_ms.emplace_back();
  for (const Answered& a : answered) {
    if (a.position == 0) continue;
    const size_t index = static_cast<size_t>(a.position / kBatchTuples) - 1;
    if (index >= posts) continue;
    freshness_ms.push_back(static_cast<double>(a.received - acks[index]) *
                           1e-6);
    const uint64_t acked =
        static_cast<uint64_t>(std::upper_bound(acks.begin(), acks.end(),
                                               a.received) -
                              acks.begin()) *
        kBatchTuples;
    if (acked > a.position) {
      out.backlog_max = std::max(out.backlog_max, acked - a.position);
    }
  }

  ScopedSpan seal("service.seal", round);
  const auto client = Client(port);
  ++out.attempted;
  if (!Ok(client->Post("/ingest/close", ""))) ++out.failed;
  WaitIngestDone(service);
  for (size_t i = 0; i < in.pool.size(); ++i) {
    const HttpClient::Response response = client->Get(in.pool[i].target);
    if (i == 0) {
      out.tuples_per_s.push_back(
          static_cast<double>(in.stream.size()) /
          (static_cast<double>(NowNs() - start) * 1e-9));
    }
    CheckSealed(Ok(response) ? response.body : std::string(),
                in.sealed[i] + "\n", out);
  }
}

void RunServe(const Inputs& in, double seconds, E2eSamples& out) {
  {
    E2eSamples warm;
    ServeRound(in, warm, 0);
  }
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint64_t round = 1;
  do {
    SetUpBurst(in, &out.setup_s);
    ServeRound(in, out, round++);
  } while (NowNs() < end);
}

}  // namespace

void WaitIngestDone(const SketchService& service) {
  while (!service.ingest_done()) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

std::unique_ptr<HttpClient> Client(int port) {
  auto client = std::make_unique<HttpClient>("127.0.0.1", port);
  ClientRetryPolicy policy;
  policy.max_attempts = 1;
  client->set_retry_policy(policy);
  return client;
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

void SleepUntil(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs() - kSpinNs;
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  while (NowNs() < deadline_ns) {
  }
}

void RunEndToEnd(const Inputs& in, double seconds, E2eSamples* out) {
  if (in.workload->http) {
    RunServe(in, seconds, *out);
  } else {
    RunBatch(in, seconds, *out);
  }
}

}  // namespace shedbench
