#include "src/sketch/kmv.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/util/metrics.h"
#include "src/util/rng.h"

namespace sketchsample {

namespace {

// Inserts `item` at `at` in an ascending bottom-k vector; a saturated one
// (k items) drops its maximum to make room, which the caller guarantees
// sorts after `item`.
template <typename T>
void InsertBounded(std::vector<T>& items,
                   typename std::vector<T>::iterator at, const T& item,
                   size_t k) {
  if (items.size() < k) {
    items.insert(at, item);
    return;
  }
  std::move_backward(at, items.end() - 1, items.end());
  *at = item;
}

// One two-way merge of the ascending runs `a` and `b`, stopping at k items:
// the union's k smallest by `hash`. An item of `b` whose hash `a` also
// holds is folded into a's copy by `fold`.
template <typename T, typename Hash, typename Fold>
std::vector<T> MergeBottomK(const std::vector<T>& a, const std::vector<T>& b,
                            size_t k, Hash hash, Fold fold) {
  std::vector<T> merged;
  merged.reserve(std::min(k, a.size() + b.size()));
  auto i = a.begin();
  auto j = b.begin();
  while (merged.size() < k && (i != a.end() || j != b.end())) {
    if (j == b.end() || (i != a.end() && hash(*i) < hash(*j))) {
      merged.push_back(*i++);
    } else if (i == a.end() || hash(*j) < hash(*i)) {
      merged.push_back(*j++);
    } else {
      merged.push_back(*i++);
      fold(merged.back(), *j++);
    }
  }
  return merged;
}

}  // namespace

KmvSketch::KmvSketch(size_t k, uint64_t seed) : k_(k), seed_(seed) {
  if (k < 2) {
    throw std::invalid_argument("KMV needs k >= 2");
  }
}

uint64_t KmvSketch::Hash(uint64_t key) const {
  // Strong 64-bit mixing of (seed, key); collision probability 2^-64 is
  // negligible against the estimator's own ~1/sqrt(k) error.
  return MixSeed(seed_, key);
}

void KmvSketch::Update(uint64_t key) {
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.updates");
  const uint64_t h = Hash(key);
  if (minima_.size() >= k_ && h >= minima_.back()) return;
  const auto it = std::lower_bound(minima_.begin(), minima_.end(), h);
  if (it != minima_.end() && *it == h) return;  // duplicates are free
  InsertBounded(minima_, it, h, k_);
}

double KmvSketch::EstimateDistinct() const {
  if (minima_.size() < k_) {
    // Fewer than k distinct hashes: the retained count is exact.
    return static_cast<double>(minima_.size());
  }
  // u = normalized k-th minimum; (k-1)/u is the unbiased estimator.
  const double kth = static_cast<double>(minima_.back());
  const double u = (kth + 1.0) / 18446744073709551616.0;  // / 2^64
  return static_cast<double>(k_ - 1) / u;
}

void KmvSketch::LoadMinima(const std::vector<uint64_t>& minima) {
  if (minima.size() > k_) {
    throw std::invalid_argument("KMV load exceeds k retained values");
  }
  for (size_t i = 1; i < minima.size(); ++i) {
    if (minima[i] <= minima[i - 1]) {
      throw std::invalid_argument("KMV load requires strictly ascending hashes");
    }
  }
  minima_ = minima;
}

void KmvSketch::Merge(const KmvSketch& other) {
  if (!CompatibleWith(other)) {
    throw std::invalid_argument("merge of incompatible KMV sketches");
  }
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.merges");
  minima_ = MergeBottomK(
      minima_, other.minima_, k_, [](uint64_t h) { return h; },
      [](uint64_t&, uint64_t) {});  // a shared hash is one distinct value
}

KeyedKmvSketch::KeyedKmvSketch(size_t k, uint64_t seed)
    : k_(k), seed_(seed) {
  if (k < 2) {
    throw std::invalid_argument("keyed KMV needs k >= 2");
  }
}

void KeyedKmvSketch::Update(uint64_t key) {
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.keyed_updates");
  const uint64_t h = MixSeed(seed_, key);
  // An evicted key can never re-enter: its hash is above the threshold and
  // the threshold only shrinks — which is what keeps retained weights exact.
  // A hash equal to the threshold is the retained maximum itself, so it
  // falls through to the weight increment below.
  if (saturated() && h > entries_.back().hash) return;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), h,
      [](const Entry& entry, uint64_t hash) { return entry.hash < hash; });
  if (it != entries_.end() && it->hash == h) {
    // Same hash implies same key (collisions are 2^-64 events, negligible
    // against the estimator's own error); the key has been retained since
    // its first occurrence, so counting keeps the weight exact.
    ++it->weight;
    return;
  }
  InsertBounded(entries_, it, Entry{h, key, 1}, k_);
}

double KeyedKmvSketch::EstimateDistinct() const {
  if (entries_.size() < k_) {
    return static_cast<double>(entries_.size());
  }
  return static_cast<double>(k_ - 1) / Threshold01();
}

double KeyedKmvSketch::Threshold01() const {
  if (entries_.size() < k_) return 1.0;
  const double kth = static_cast<double>(entries_.back().hash);
  return (kth + 1.0) / 18446744073709551616.0;  // / 2^64
}

void KeyedKmvSketch::LoadEntries(const std::vector<Entry>& entries) {
  if (entries.size() > k_) {
    throw std::invalid_argument("keyed KMV load exceeds k retained entries");
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].hash <= entries[i - 1].hash) {
      throw std::invalid_argument(
          "keyed KMV load requires strictly ascending hashes");
    }
    if (entries[i].weight == 0) {
      throw std::invalid_argument("keyed KMV load with zero weight");
    }
  }
  entries_ = entries;
}

void KeyedKmvSketch::Merge(const KeyedKmvSketch& other) {
  if (!CompatibleWith(other)) {
    throw std::invalid_argument("merge of incompatible keyed KMV sketches");
  }
  SKETCHSAMPLE_METRIC_INC("sketch.kmv.keyed_merges");
  // A hash present in both sums its weights (the exact-weight argument in
  // the header).
  entries_ = MergeBottomK(
      entries_, other.entries_, k_, [](const Entry& e) { return e.hash; },
      [](Entry& into, const Entry& from) { into.weight += from.weight; });
}

}  // namespace sketchsample
