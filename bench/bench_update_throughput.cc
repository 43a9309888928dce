// E9: sketch-update throughput — the speed-up claim of §VI-A / §VII-E.
//
// Measures the per-arriving-tuple cost of:
//   * full F-AGMS sketching (p = 1 baseline),
//   * coin-flip Bernoulli shedding in front of the sketch,
//   * geometric-skip shedding (Olken skips, ref [18]).
//
// The paper's claim: with skip-based sampling the work is proportional to
// the number of *kept* tuples, so throughput improves by ≈ 1/p (10x for a
// 10% sample, up to 1000x for p = 0.001). Coin-flip shedding still pays one
// RNG draw per tuple and saturates well below that.
//
// google-benchmark reports time per processed stream chunk; the per-tuple
// figure is time / kTuplesPerIteration.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/micro_main.h"
#include "src/core/sketch_over_sample.h"
#include "src/data/zipf.h"
#include "src/prng/cw.h"
#include "src/prng/hash.h"
#include "src/prng/simd/dispatch.h"
#include "src/sketch/agms.h"
#include "src/sketch/fagms.h"
#include "src/util/aligned.h"
#include "src/util/rng.h"

namespace sketchsample {
namespace {

constexpr size_t kTuplesPerIteration = 1 << 16;
constexpr size_t kDomain = 100000;

SketchParams Params() {
  SketchParams p;
  p.rows = 1;
  p.buckets = 5000;
  p.scheme = XiScheme::kEh3;
  p.seed = 42;
  return p;
}

const std::vector<uint64_t>& Stream() {
  static const std::vector<uint64_t> stream = [] {
    ZipfSampler sampler(kDomain, 1.0);
    Xoshiro256 rng(7);
    return sampler.Stream(kTuplesPerIteration, rng);
  }();
  return stream;
}

void BM_FullSketching(benchmark::State& state) {
  FagmsSketch sketch(Params());
  for (auto _ : state) {
    for (uint64_t v : Stream()) sketch.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
}
BENCHMARK(BM_FullSketching);

// Scalar vs batched F-AGMS update kernels (the devirtualized SignBatch /
// BucketBatch block path). Same sketch state, same stream, bit-identical
// counters; the batch variant's win is the headline number for the kernel
// work. Arg 0 = EH3 (cheap signs: win mostly from dispatch/bucket batching),
// Arg 1 = CW4 (3 mulmods per sign: win dominated by pipelined mulmod chains).
XiScheme SchemeArg(int64_t arg) {
  return arg == 0 ? XiScheme::kEh3 : XiScheme::kCw4;
}

void BM_FagmsUpdateScalar(benchmark::State& state) {
  SketchParams p = Params();
  p.scheme = SchemeArg(state.range(0));
  FagmsSketch sketch(p);
  for (auto _ : state) {
    for (uint64_t v : Stream()) sketch.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.SetLabel(XiSchemeName(p.scheme));
}
BENCHMARK(BM_FagmsUpdateScalar)->Arg(0)->Arg(1);

void BM_FagmsUpdateBatch(benchmark::State& state) {
  SketchParams p = Params();
  p.scheme = SchemeArg(state.range(0));
  FagmsSketch sketch(p);
  for (auto _ : state) {
    sketch.UpdateBatch(Stream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.SetLabel(XiSchemeName(p.scheme));
}
BENCHMARK(BM_FagmsUpdateBatch)->Arg(0)->Arg(1);

// --------------------------------------------------------------------------
// ISA-dispatched kernel series (src/prng/simd/). Registered dynamically so a
// report only contains points for levels the host (as capped by
// SKETCHSAMPLE_ISA) can actually run: committed baselines carry the levels
// every CI host reaches, and higher levels show up as extra, ungated points.

std::vector<simd::IsaLevel> CappedLevels() {
  std::vector<simd::IsaLevel> levels = {simd::IsaLevel::kScalar};
  if (simd::ActiveIsaLevel() >= simd::IsaLevel::kAvx2) {
    levels.push_back(simd::IsaLevel::kAvx2);
  }
  if (simd::ActiveIsaLevel() >= simd::IsaLevel::kAvx512) {
    levels.push_back(simd::IsaLevel::kAvx512);
  }
  return levels;
}

// The fused CW4 F-AGMS row kernel at one pinned ISA level — the tentpole
// series. The scalar point is the previous fused kernel (the scalar twin is
// the PR-6 code moved verbatim), so the <level>/scalar ratio measures the
// vector speed-up host-independently; bench/rules/ gates it.
void FagmsFusedIsaBody(benchmark::State& state, simd::IsaLevel level) {
  simd::ScopedIsaForTesting scoped(level);
  SketchParams p = Params();
  p.scheme = XiScheme::kCw4;
  FagmsSketch sketch(p);
  for (auto _ : state) {
    sketch.UpdateBatch(Stream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.SetLabel(simd::IsaLevelName(level));
}

// Roofline series: keys/s of the fused CW4 kernel as the counter working
// set sweeps from L1-resident to DRAM-resident. Buckets are uniform random
// so every cache level is actually exercised; rows = 1, so the working set
// is buckets * 8 bytes.
constexpr size_t kRooflineBuckets[] = {
    1 << 10,  // 8 KiB   — L1
    1 << 13,  // 64 KiB  — L2
    1 << 16,  // 512 KiB — L2/LLC
    1 << 19,  // 4 MiB   — LLC
    1 << 22,  // 32 MiB  — DRAM
};

const std::vector<uint64_t>& UniformStream() {
  static const std::vector<uint64_t> stream = [] {
    Xoshiro256 rng(321);
    std::vector<uint64_t> keys(kTuplesPerIteration);
    for (uint64_t& k : keys) k = rng();
    return keys;
  }();
  return stream;
}

void FagmsRooflineBody(benchmark::State& state, simd::IsaLevel level,
                       size_t buckets) {
  simd::ScopedIsaForTesting scoped(level);
  SketchParams p;
  p.rows = 1;
  p.buckets = buckets;
  p.scheme = XiScheme::kCw4;
  p.seed = 42;
  FagmsSketch sketch(p);
  for (auto _ : state) {
    sketch.UpdateBatch(UniformStream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.counters["ws_bytes"] = static_cast<double>(buckets * sizeof(double));
  state.SetLabel(simd::IsaLevelName(level));
}

const bool kIsaBenchmarksRegistered = [] {
  for (simd::IsaLevel level : CappedLevels()) {
    const std::string isa = simd::IsaLevelName(level);
    ::benchmark::RegisterBenchmark(
        ("BM_FagmsFusedIsa/" + isa).c_str(),
        [level](benchmark::State& state) { FagmsFusedIsaBody(state, level); });
    for (size_t buckets : kRooflineBuckets) {
      ::benchmark::RegisterBenchmark(
          ("BM_FagmsRoofline/" + isa + "/" + std::to_string(buckets)).c_str(),
          [level, buckets](benchmark::State& state) {
            FagmsRooflineBody(state, level, buckets);
          });
    }
  }
  return true;
}();

// Layout trial backing the row-major decision (DESIGN.md §2): identical
// precomputed (bucket, signed-weight) update streams scattered into the two
// candidate counter layouts. Row-major keeps each row's updates inside one
// contiguous `buckets`-sized region (the layout every query walks
// sequentially); interleaving rows (counter[bucket * rows + row]) spreads a
// row across the whole array. Only the scatter is timed.
void LayoutTrialBody(benchmark::State& state, bool interleaved) {
  constexpr size_t kRows = 4;
  constexpr size_t kBuckets = 1 << 14;  // 512 KiB counters: past L1 and L2
  const std::vector<uint64_t>& keys = UniformStream();
  std::vector<uint64_t> buckets(kRows * keys.size());
  std::vector<double> weights(kRows * keys.size());
  {
    Cw4Xi xi(88);
    std::vector<int8_t> signs(keys.size());
    for (size_t r = 0; r < kRows; ++r) {
      PairwiseHash hash(77 + r, kBuckets);
      hash.BucketBatch(keys.data(), keys.size(), buckets.data() + r * keys.size());
      xi.SignBatch(keys.data(), keys.size(), signs.data());
      for (size_t i = 0; i < keys.size(); ++i) {
        weights[r * keys.size() + i] = static_cast<double>(signs[i]);
      }
    }
  }
  CounterVector counters(kRows * kBuckets, 0.0);
  for (auto _ : state) {
    for (size_t r = 0; r < kRows; ++r) {
      const uint64_t* b = buckets.data() + r * keys.size();
      const double* w = weights.data() + r * keys.size();
      if (interleaved) {
        double* base = counters.data() + r;
        for (size_t i = 0; i < keys.size(); ++i) {
          base[b[i] * kRows] += w[i];
        }
      } else {
        double* row = counters.data() + r * kBuckets;
        for (size_t i = 0; i < keys.size(); ++i) {
          row[b[i]] += w[i];
        }
      }
    }
  }
  benchmark::DoNotOptimize(counters.data());
  state.SetItemsProcessed(state.iterations() * kRows * keys.size());
  state.SetLabel(interleaved ? "interleaved" : "row_major");
}

void BM_FagmsLayoutRowMajor(benchmark::State& state) {
  LayoutTrialBody(state, /*interleaved=*/false);
}
BENCHMARK(BM_FagmsLayoutRowMajor);

void BM_FagmsLayoutInterleaved(benchmark::State& state) {
  LayoutTrialBody(state, /*interleaved=*/true);
}
BENCHMARK(BM_FagmsLayoutInterleaved);

void BM_CoinFlipShedding(benchmark::State& state) {
  const double p =
      1.0 / static_cast<double>(state.range(0));  // range = 1/p
  BernoulliSketchEstimator<FagmsSketch> est(p, Params(), 3);
  for (auto _ : state) {
    for (uint64_t v : Stream()) est.Update(v);
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.counters["p"] = p;
}
BENCHMARK(BM_CoinFlipShedding)->Arg(10)->Arg(100)->Arg(1000);

void BM_GeometricSkipShedding(benchmark::State& state) {
  const double p = 1.0 / static_cast<double>(state.range(0));
  BernoulliSketchEstimator<FagmsSketch> est(p, Params(), 5);
  for (auto _ : state) {
    est.ProcessStreamWithSkips(Stream());
  }
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
  state.counters["p"] = p;
}
BENCHMARK(BM_GeometricSkipShedding)->Arg(10)->Arg(100)->Arg(1000);

// AGMS update cost: the motivation for F-AGMS. Each update touches every
// row, so per-tuple cost grows linearly with rows; materialized sign tables
// (one bit per domain value per row) recover most of the CW4 evaluation
// cost on bounded domains.
void BM_AgmsUpdate(benchmark::State& state) {
  SketchParams p;
  p.rows = static_cast<size_t>(state.range(0));
  p.scheme = XiScheme::kCw4;
  p.seed = 9;
  if (state.range(1)) p.materialize_domain = kDomain;
  AgmsSketch sketch(p);
  size_t i = 0;
  for (auto _ : state) {
    sketch.Update(Stream()[i]);
    i = (i + 1) % Stream().size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(state.range(1) ? "materialized" : "direct_cw4");
}
BENCHMARK(BM_AgmsUpdate)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({128, 0})
    ->Args({128, 1});

// The pure sampling front-end without any sketch, to separate sampling cost
// from sketching cost.
void BM_SkipSamplingOnly(benchmark::State& state) {
  const double p = 1.0 / static_cast<double>(state.range(0));
  GeometricSkipSampler sampler(p, 11);
  uint64_t sink = 0;
  for (auto _ : state) {
    size_t pos = sampler.NextSkip();
    while (pos < Stream().size()) {
      sink += Stream()[pos];
      pos += 1 + sampler.NextSkip();
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kTuplesPerIteration);
}
BENCHMARK(BM_SkipSamplingOnly)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace sketchsample

SKETCHSAMPLE_BENCHMARK_MAIN("bench_update_throughput");
