// Tests for the AIMD admission controller (src/service/admission.h): the
// query-path analogue of shed_controller_test. Covers the control law
// (proportional clamp down past capacity, additive probe up under
// headroom), the typed rejections (429 rate shed vs 503 hard cap, both
// with Retry-After), positional determinism of the admit/shed sequence,
// the min/max admit clamps, and — under the `tsan` ctest label — the
// admission-vs-ingest race: query threads gated by a shared controller
// while the service ingests live.

// lint:allow-file(raw-atomic-confined): stop flag coordinating the racing
// query/ingest threads in the TSan end-to-end test; harness-side only.
#include "src/service/admission.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

AdmissionOptions SmallOptions() {
  AdmissionOptions options;
  options.capacity = 4;
  options.window_requests = 8;
  return options;
}

TEST(AdmissionTest, AdmitsEverythingUnderCapacity) {
  AdmissionController controller(SmallOptions());
  for (int i = 0; i < 100; ++i) {
    AdmissionController::Decision decision = controller.Admit();
    ASSERT_TRUE(decision.admitted) << "request " << i;
    controller.OnDone();
  }
  const AdmissionController::Stats stats = controller.stats();
  EXPECT_EQ(stats.offered, 100u);
  EXPECT_EQ(stats.admitted, 100u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.admit_rate, 1.0);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_FALSE(controller.saturated());
}

TEST(AdmissionTest, HardCapAnswers503WithRetryAfter) {
  AdmissionOptions options = SmallOptions();
  options.window_requests = 1000;  // no retarget during this test
  AdmissionController controller(options);
  // Default hard limit = 2 x capacity = 8. At admit rate 1.0 every request
  // below the cap is admitted; the ninth concurrent request must bounce.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(controller.Admit().admitted);
  }
  const AdmissionController::Decision overflow = controller.Admit();
  EXPECT_FALSE(overflow.admitted);
  EXPECT_EQ(overflow.status, 503);
  EXPECT_GE(overflow.retry_after_s, 1);
  EXPECT_LE(overflow.retry_after_s, options.retry_after_max_s);
  EXPECT_EQ(controller.stats().rejected, 1u);
  EXPECT_TRUE(controller.saturated()) << "at the hard cap";
  // Releasing one slot readmits.
  controller.OnDone();
  EXPECT_TRUE(controller.Admit().admitted);
}

TEST(AdmissionTest, ClampsDownPastCapacityAndProbesBackUp) {
  AdmissionOptions options = SmallOptions();  // capacity 4, window 8
  AdmissionController controller(options);

  // Overloaded window: hold 8 slots (= hard limit) so the window peak is
  // twice the capacity budget; the close clamps the rate proportionally.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(controller.Admit().admitted);
  const double clamped = controller.stats().admit_rate;
  EXPECT_LT(clamped, 1.0);
  EXPECT_NEAR(clamped, 0.5, 1e-12) << "peak 8 vs capacity 4 halves the rate";
  EXPECT_TRUE(controller.saturated());

  // Drain. The next window still sees the old depth as its starting peak
  // (the controller carries inflight across the close), so run one flush
  // window before asserting on the recovery shape.
  for (int i = 0; i < 8; ++i) controller.OnDone();
  for (uint64_t i = 0; i < options.window_requests; ++i) {
    if (controller.Admit().admitted) controller.OnDone();
  }

  // Idle windows: the rate probes back up additively and monotonically.
  double last = controller.stats().admit_rate;
  int windows_to_recover = 0;
  while (controller.stats().admit_rate < options.max_admit &&
         windows_to_recover < 100) {
    for (uint64_t i = 0; i < options.window_requests; ++i) {
      if (controller.Admit().admitted) controller.OnDone();
    }
    const double rate = controller.stats().admit_rate;
    EXPECT_GE(rate, last) << "recovery is monotone";
    EXPECT_LE(rate - last, options.increase_step + 1e-12)
        << "recovery is additive, not multiplicative";
    last = rate;
    ++windows_to_recover;
  }
  EXPECT_EQ(controller.stats().admit_rate, options.max_admit);
  EXPECT_GT(windows_to_recover, 2) << "recovery takes multiple windows";
  EXPECT_FALSE(controller.saturated());
}

TEST(AdmissionTest, SustainedOverloadNeverDropsBelowMinAdmit) {
  AdmissionOptions options = SmallOptions();
  options.min_admit = 0.25;
  AdmissionController controller(options);
  for (int i = 0; i < 8; ++i) controller.Admit();  // pin inflight at the cap
  for (int i = 0; i < 1000; ++i) controller.Admit();
  const AdmissionController::Stats stats = controller.stats();
  EXPECT_GE(stats.admit_rate, options.min_admit);
  EXPECT_GT(stats.windows, 0u);
  // Every offered request is accounted for exactly once.
  EXPECT_EQ(stats.offered, stats.admitted + stats.shed + stats.rejected);
}

TEST(AdmissionTest, RateShedIs429AndPositionallyDeterministic) {
  // Pin the admit rate at 0.5 via the clamps so both controllers hold the
  // same rate for the whole arrival sequence.
  AdmissionOptions options;
  options.initial_admit = 0.5;
  options.min_admit = 0.5;
  options.max_admit = 0.5;
  options.capacity = 64;
  AdmissionController a(options);
  AdmissionController b(options);

  int shed = 0;
  for (int i = 0; i < 400; ++i) {
    const AdmissionController::Decision da = a.Admit();
    const AdmissionController::Decision db = b.Admit();
    ASSERT_EQ(da.admitted, db.admitted) << "arrival " << i;
    if (da.admitted) {
      a.OnDone();
      b.OnDone();
    } else {
      EXPECT_EQ(da.status, 429);
      EXPECT_EQ(da.retry_after_s, db.retry_after_s);
      EXPECT_GE(da.retry_after_s, 1);
      ++shed;
    }
  }
  // At rate 0.5 the positional draws shed about half the arrivals.
  EXPECT_GT(shed, 400 / 4);
  EXPECT_LT(shed, 3 * 400 / 4);

  // A different seed yields a different (but equally deterministic) pattern.
  AdmissionOptions reseeded = options;
  reseeded.seed ^= 0xabcdef;
  AdmissionController c(reseeded);
  int diverged = 0;
  AdmissionController replay(options);
  for (int i = 0; i < 400; ++i) {
    const bool base = replay.Admit().admitted;
    if (base) replay.OnDone();
    const bool other = c.Admit().admitted;
    if (other) c.OnDone();
    if (base != other) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(AdmissionTest, RetryAfterScalesWithShedSeverity) {
  AdmissionOptions gentle;
  gentle.capacity = 1;
  gentle.hard_limit = 1;
  AdmissionController full_rate(gentle);
  ASSERT_TRUE(full_rate.Admit().admitted);
  EXPECT_EQ(full_rate.Admit().retry_after_s, 1) << "severity 0 hints 1s";

  AdmissionOptions severe = gentle;
  severe.initial_admit = 0.1;
  severe.min_admit = 0.1;
  severe.max_admit = 0.1;
  AdmissionController low_rate(severe);
  AdmissionController::Decision rejected;
  for (int i = 0; i < 64; ++i) {
    rejected = low_rate.Admit();
    if (!rejected.admitted) break;
    low_rate.OnDone();
  }
  ASSERT_FALSE(rejected.admitted);
  EXPECT_EQ(rejected.retry_after_s, severe.retry_after_max_s)
      << "severity 0.9 saturates the hint";
}

// Admission racing live ingest, the way the HTTP server drives it: query
// threads Admit()/OnDone() around Router::Dispatch while the service's
// ingest thread runs — under TSan (ctest label `tsan`) this is the
// admission-vs-ingest data-race probe. Every admitted answer must carry a
// parseable body with the degraded/staleness stamps, and the controller's
// books must balance once the threads join.
TEST(AdmissionConcurrencyTest, AdmissionVsIngestRaceKeepsBooksConsistent) {
  SketchServiceOptions service_options;
  service_options.sketch.rows = 3;
  service_options.sketch.buckets = 128;
  service_options.sketch.seed = 33;
  service_options.engine.shards = 2;
  service_options.engine.shed_p = 0.5;
  service_options.engine.seed = 42;
  service_options.engine.chunk_tuples = 512;
  service_options.snapshot_every = 1024;
  service_options.max_readers = 8;
  SketchService service(service_options);
  Router router;
  service.Register(router);
  service.Start();

  AdmissionOptions admission_options;
  admission_options.capacity = 2;
  admission_options.window_requests = 32;
  AdmissionController admission(admission_options);

  constexpr size_t kQueryThreads = 3;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> threads;
  threads.reserve(kQueryThreads);
  for (size_t t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpRequest request;
      request.method = "GET";
      request.path = "/query/selfjoin";
      while (!stop.load(std::memory_order_acquire)) {
        const AdmissionController::Decision decision = admission.Admit();
        if (!decision.admitted) continue;
        RequestContext context;
        context.reader_slot = t;
        context.admission = &admission;
        context.admission_saturated = admission.saturated();
        const HttpResponse response = router.Dispatch(request, context);
        admission.OnDone();
        ASSERT_EQ(response.status, 200);
        const std::optional<JsonValue> body = JsonValue::Parse(response.body);
        ASSERT_TRUE(body.has_value());
        ASSERT_TRUE(body->Get("degraded") != nullptr);
        ASSERT_TRUE(body->GetNumber("staleness").has_value());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Xoshiro256 rng(7);
  std::vector<uint64_t> chunk(1024);
  for (int batch = 0; batch < 40; ++batch) {
    for (uint64_t& v : chunk) v = rng() % 1000;
    ASSERT_EQ(service.Push(chunk.data(), chunk.size()), chunk.size());
  }
  service.CloseIngest();
  while (!service.ingest_done()) std::this_thread::yield();
  // The pushes can finish before any query thread is scheduled; give the
  // queries a bounded chance to answer before stopping them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(service.ingest_error(), "");
  EXPECT_GT(answered.load(), 0u);
  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.inflight, 0u) << "every Admit was paired with OnDone";
  EXPECT_EQ(stats.offered, stats.admitted + stats.shed + stats.rejected);
  EXPECT_GE(stats.admitted, answered.load());
}

}  // namespace
}  // namespace sketchsample
