// End-to-end runs: the offline Push path (batch workloads) and the
// loopback HTTP service (serve_mixed).
#ifndef SHEDBENCH_E2E_H_
#define SHEDBENCH_E2E_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/service/client.h"
#include "workload.h"

namespace shedbench {

/// Everything a run needs, built before any timed region.
struct Inputs {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  std::vector<uint64_t> stream;
  std::vector<std::string> bodies;  // POST bodies (serve_mixed only)
  std::vector<Query> pool;
  std::optional<ServiceSnapshot> reference;  // oracle state
  std::vector<std::string> sealed;  // oracle answers, one per pool entry
};

/// Latency samples grouped by pass, round or window of queries; metrics
/// report the median over groups of the per-group percentile.
using Groups = std::vector<std::vector<double>>;
inline constexpr size_t kQueryKinds = 5;

/// Raw samples of one end-to-end run.
struct E2eSamples {
  std::vector<double> tuples_per_s;  // one per pass / round
  std::vector<double> setup_s;
  Groups post_us;                    // Push call or POST ack latency
  // Query latency per Query::Kind: the kinds' costs differ up to 20-fold,
  // so one p50 over the whole mix would jump between their clusters.
  std::array<Groups, kQueryKinds> query_us;
  Groups freshness_ms;
  std::vector<double> late_ms;       // open-loop send time minus schedule
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;                // sealed answers unequal to the oracle
  uint64_t backlog_max = 0;          // tuples pushed beyond the snapshot
  int64_t push_ns = 0;               // time inside Push / POST calls
  int64_t ingest_ns = 0;             // wall time of the ingest loops
};

/// Runs the workload end to end for about `seconds` (after one
/// untimed warm-up pass) and appends its samples to `out`.
void RunEndToEnd(const Inputs& in, double seconds, E2eSamples* out);

/// Client threads plus connections serve_mixed opens; it refuses to run
/// when they exceed the CPUs available to the process.
inline constexpr int kServeClientThreads = 2;
inline constexpr int kServeConnections = 2;
int AvailableCpus();

/// Offered rates of the open-loop generators. The query rates keep the
/// query senders from sleeping most of each interval: a sender whose vCPU
/// idles between requests pays a host-dependent wake-up on the next one.
/// The batch interval equals the senders' spin window, so it never sleeps.
inline constexpr double kServeIngestTuplesPerS = 2.0e6;
inline constexpr double kServeQueriesPerS = 2000;
inline constexpr double kBatchQueriesPerS = 5000;

/// Reader slot for in-process probes, above the HTTP server's slots.
inline constexpr size_t kProbeSlot = 100;

/// Polls until the service's ingest thread has drained and sealed.
void WaitIngestDone(const sketchsample::SketchService& service);

/// A loopback client that never retries: a retried POST could apply twice,
/// and every transport error must count as a failure.
std::unique_ptr<sketchsample::HttpClient> Client(int port);

/// Sleeps until `deadline_ns` (NowNs clock), spinning for the last 200 us.
void SleepUntil(int64_t deadline_ns);

}  // namespace shedbench

#endif  // SHEDBENCH_E2E_H_
