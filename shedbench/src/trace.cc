#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace shedbench {

Percentile PercentileOf(std::vector<double> values, double q) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

Percentile MedianOfGroups(const std::vector<std::vector<double>>& groups,
                          double q) {
  Percentile out;
  out.groups = 0;
  std::vector<double> values;
  for (const std::vector<double>& group : groups) {
    if (group.empty()) continue;
    const Percentile p = PercentileOf(group, q);
    values.push_back(p.value);
    out.beyond = out.groups == 0 ? p.beyond : std::min(out.beyond, p.beyond);
    out.samples += p.samples;
    ++out.groups;
  }
  out.value = Median(std::move(values));
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& log) {
  std::vector<std::vector<size_t>> children(log.size());
  for (size_t i = 0; i < log.size(); ++i) {
    const int64_t parent = log[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < log.size()) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<int64_t> self(log.size());
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < log.size(); ++i) {
    const Span& span = log[i];
    cover.clear();
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(log[c].start_ns, span.start_ns);
      const int64_t hi = std::min(log[c].end_ns, span.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (run_hi < lo) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

namespace {

struct ThreadLog {
  std::vector<Span> spans;
  std::vector<int64_t> open;
};

std::atomic<bool> g_enabled{false};
std::mutex g_logs_mutex;
std::vector<std::unique_ptr<ThreadLog>>& AllLogs() {
  static std::vector<std::unique_ptr<ThreadLog>> logs;
  return logs;
}

ThreadLog& LocalLog() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    owned->spans.reserve(1 << 14);
    log = owned.get();
    std::lock_guard<std::mutex> lock(g_logs_mutex);
    AllLogs().push_back(std::move(owned));
  }
  return *log;
}

template <typename Fn>
void ForEachNamed(const char* name, Fn fn) {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (const auto& log : AllLogs()) {
    const std::vector<int64_t> self = SelfTimes(log->spans);
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& span = log->spans[i];
      if (std::strcmp(span.name, name) == 0) fn(span, self[i]);
    }
  }
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int64_t Tracer::Open(const char* name, uint64_t request) {
  if (!enabled()) return -1;
  ThreadLog& log = LocalLog();
  const int64_t index = static_cast<int64_t>(log.spans.size());
  Span span;
  span.name = name;
  span.parent = log.open.empty() ? -1 : log.open.back();
  span.request = request;
  span.start_ns = NowNs();
  log.spans.push_back(span);
  log.open.push_back(index);
  return index;
}

void Tracer::Close(int64_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  ThreadLog& log = LocalLog();
  log.spans[static_cast<size_t>(index)].end_ns = now;
  if (!log.open.empty() && log.open.back() == index) log.open.pop_back();
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  for (auto& log : AllLogs()) {
    log->spans.clear();
    log->open.clear();
  }
}

std::vector<double> Tracer::SelfTimesNs(const char* name) {
  std::vector<double> out;
  ForEachNamed(name, [&](const Span&, int64_t self) {
    out.push_back(static_cast<double>(self));
  });
  return out;
}

std::vector<double> Tracer::DurationsNs(const char* name) {
  std::vector<double> out;
  ForEachNamed(name, [&](const Span& span, int64_t) {
    out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  });
  return out;
}

std::vector<double> Tracer::TotalsByRequestNs(const char* name) {
  std::map<uint64_t, double> totals;
  ForEachNamed(name, [&](const Span& span, int64_t) {
    totals[span.request] += static_cast<double>(span.end_ns - span.start_ns);
  });
  std::vector<double> out;
  for (const auto& [request, total] : totals) out.push_back(total);
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_logs_mutex);
  const auto& logs = AllLogs();
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans;
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(file,
                   "{\"thread\":%zu,\"index\":%zu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%lld,"
                   "\"request\":%llu,\"self_ns\":%lld}\n",
                   t, i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
  }
  const bool ok = std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

bool RunSelfTests() {
  bool ok = true;
  const auto check = [&](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "shedbench self-test failed: %s\n", what);
      ok = false;
    }
  };
  const auto iota = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    return v;  // descending, so the sort is exercised
  };

  Percentile p = PercentileOf(iota(100), 0.5);
  check(p.value == 50 && p.samples == 100 && p.beyond == 50, "p50 of 1..100");
  p = PercentileOf(iota(1000), 0.99);
  check(p.value == 990 && p.beyond == 10 && p.Supported(), "p99 of 1..1000");
  p = PercentileOf(iota(999), 0.99);
  check(p.value == 990 && p.beyond == 9 && !p.Supported(),
        "p99 of 1..999 has nine samples beyond");
  p = PercentileOf({5, 1, 3}, 1.0);
  check(p.value == 5 && p.beyond == 0, "p100 is the maximum");
  p = PercentileOf({}, 0.5);
  check(p.samples == 0 && !p.Supported(), "empty percentile");
  check(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  std::vector<std::vector<double>> groups = {iota(100), {}, iota(1000),
                                             iota(100)};
  for (double& v : groups[2]) v += 1000;
  p = MedianOfGroups(groups, 0.9);
  check(p.value == 90 && p.groups == 3 && p.samples == 1200 &&
            p.beyond == 10 && p.Supported(),
        "median of per-group p90s skips empty groups");
  groups[3].push_back(5000);
  groups[3].push_back(5001);
  p = MedianOfGroups(groups, 0.9);
  check(p.value == 92 && p.beyond == 10, "median group moves with its data");

  // parent [0,100] with children [10,30] and [20,40] (overlapping) and
  // [90,120] (runs past the parent); a grandchild [12,14] under the first
  // child counts against that child only.
  std::vector<Span> log(5);
  log[0] = {"parent", 0, 100, -1, 1};
  log[1] = {"a", 10, 30, 0, 1};
  log[2] = {"b", 20, 40, 0, 1};
  log[3] = {"c", 90, 120, 0, 1};
  log[4] = {"a.child", 12, 14, 1, 1};
  const std::vector<int64_t> self = SelfTimes(log);
  check(self[0] == 60, "parent self time excludes the union of children");
  check(self[1] == 18 && self[2] == 20 && self[3] == 30 && self[4] == 2,
        "child self times");

  // Live recording: nesting sets parents, and self time sums to the root.
  const bool was_enabled = Tracer::enabled();
  Tracer::Enable(true);
  int64_t outer = 0;
  int64_t inner = 0;
  {
    ScopedSpan a("selftest.outer", 7);
    { ScopedSpan b("selftest.inner", 7); }
  }
  {
    const ThreadLog& local = LocalLog();
    outer = static_cast<int64_t>(local.spans.size()) - 2;
    inner = outer + 1;
    check(outer >= 0 && local.spans[inner].parent == outer &&
              local.spans[outer].parent == -1 &&
              local.spans[inner].request == 7,
          "recorded span nesting");
    const std::vector<int64_t> live = SelfTimes(local.spans);
    const Span& o = local.spans[outer];
    check(live[outer] + live[inner] == o.end_ns - o.start_ns,
          "recorded self times add up to the root span");
  }
  Tracer::Enable(was_enabled);
  Tracer::Clear();
  return ok;
}

}  // namespace shedbench
