// Pseudo-random number generation utilities.
//
// The library separates two kinds of randomness:
//   * "driver" randomness (this file): fast, high-quality generators used to
//     drive sampling processes, data generation, and seed derivation;
//   * "scheme" randomness (src/prng/): limited-independence families with
//     provable k-wise independence guarantees required by the AGMS analysis.
//
// The generators here are deterministic functions of their seed so that every
// experiment in the repository is reproducible bit-for-bit.
#ifndef SKETCHSAMPLE_UTIL_RNG_H_
#define SKETCHSAMPLE_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace sketchsample {

/// SplitMix64 step function. Used to expand a single 64-bit seed into an
/// arbitrary-length seed sequence (as recommended by the xoshiro authors) and
/// as a cheap stateless mixer for seed derivation.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mix of two 64-bit values; used to derive independent sub-seeds
/// (e.g. one per repetition of an experiment) from a master seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  s = SplitMix64(&s);
  return SplitMix64(&s);
}

/// xoshiro256** 1.0 — the all-purpose driver generator.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be plugged
/// into <random> distributions. Passes BigCrush; period 2^256 - 1.
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Xoshiro256(uint64_t seed = 0xdeadbeefcafef00dULL) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(&sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound) {
    // Multiply-shift rejection sampling.
    uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t threshold = (0 - bound) % bound;
      while (l < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace sketchsample

#endif  // SKETCHSAMPLE_UTIL_RNG_H_
