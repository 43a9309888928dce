// shedbench: the end-to-end and per-layer benchmark of the shed-sketch
// engine and its query service.
//
//   shedbench --workload <batch_shed|batch_summaries|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Prints a human-readable table on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones of the traced run. Exit code 0 only when the run completed
// and every output was checked.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "e2e.h"
#include "layers.h"
#include "trace.h"

namespace shedbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Fixed(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.3f", value);
  return text;
}

std::string Counted(const Percentile& p) {
  return std::to_string(p.samples) + " samples in " +
         std::to_string(p.groups) + " groups, >= " +
         std::to_string(p.beyond) + " beyond the p99 per group" +
         (p.Supported() ? "" : " (UNSUPPORTED)");
}

std::vector<Metric> EndToEndMetrics(const E2eSamples& s) {
  std::vector<Metric> out;
  // Medians are reported; the tails are printed beside them. On a shared
  // host the p90 and p99 of serve_mixed follow CPU steal, not the program.
  const auto latency = [&](const char* name, double p50, const Groups& groups,
                           const char* unit) {
    const Percentile p90 = MedianOfGroups(groups, 0.9);
    const Percentile p99 = MedianOfGroups(groups, 0.99);
    out.push_back({name, p50, unit,
                   "p90 " + Fixed(p90.value) + ", p99 " + Fixed(p99.value) +
                       "; " + Counted(p99)});
  };
  out.push_back({"tuples_per_s", Median(s.tuples_per_s), "1/s",
                 "median of " + std::to_string(s.tuples_per_s.size()) +
                     " passes"});
  out.push_back({"setup_s", Median(s.setup_s), "s",
                 "median of " + std::to_string(s.setup_s.size()) + " setups"});
  out.push_back({"peak_rss_mb", PeakRssMiB(), "MiB", ""});
  latency("post_p50_us", MedianOfGroups(s.post_us, 0.5).value, s.post_us,
          "us");
  // Query p50: the mix-weighted mean of the per-kind p50s.
  double weighted = 0;
  size_t queries = 0;
  Groups all_queries;
  std::string per_kind = "per-kind p50";
  for (const Groups& kind : s.query_us) {
    const Percentile p = MedianOfGroups(kind, 0.5);
    weighted += p.value * static_cast<double>(p.samples);
    queries += p.samples;
    all_queries.insert(all_queries.end(), kind.begin(), kind.end());
    per_kind += " " + Fixed(p.value);
  }
  latency("query_p50_us", queries > 0 ? weighted / queries : 0, all_queries,
          "us");
  out.back().note = per_kind + "; " + out.back().note;
  latency("freshness_p50_ms", MedianOfGroups(s.freshness_ms, 0.5).value,
          s.freshness_ms, "ms");
  return out;
}

std::string Number(double value) {
  char text[64];
  const auto result = std::to_chars(text, text + sizeof(text), value);
  return std::string(text, result.ptr);
}

int Run(const Args& args) {
  if (!RunSelfTests()) return 3;
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "shedbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (workload->http &&
      kServeClientThreads + kServeConnections > AvailableCpus()) {
    std::fprintf(stderr,
                 "shedbench: serve_mixed needs %d client threads plus "
                 "connections but only %d CPUs are available\n",
                 kServeClientThreads + kServeConnections, AvailableCpus());
    return 2;
  }

  Inputs in;
  in.workload = workload;
  in.seed = args.seed;
  in.stream = MakeStream(workload->tuples, args.seed);
  if (workload->http) in.bodies = MakeBodies(in.stream);
  in.pool = MakeQueryPool(workload->summaries, args.seed);
  in.reference.emplace(ReferenceSnapshot(ServiceOptions(*workload), in.stream));
  in.sealed = SealedAnswers(*in.reference, in.pool);

  E2eSamples checked;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    RunEndToEnd(in, args.seconds, &checked);
    metrics = EndToEndMetrics(checked);
  } else {
    metrics = MeasureLayers(in, args.seconds, args.trace_out, &checked);
  }

  std::fprintf(stderr, "shedbench %s seed=%llu trace=%d\n",
               workload->name.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-38s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                 m.unit.c_str(), m.note.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu, wrong answers %llu\n",
               static_cast<unsigned long long>(checked.attempted),
               static_cast<unsigned long long>(checked.failed),
               static_cast<unsigned long long>(checked.wrong));

  std::string json = "{\"correct\": ";
  json += checked.wrong == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checked.attempted);
  json += ", \"failed\": " + std::to_string(checked.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace shedbench

int main(int argc, char** argv) {
  shedbench::Args args;
  if (!shedbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: shedbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    return shedbench::Run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "shedbench: %s\n", error.what());
    return 1;
  }
}
