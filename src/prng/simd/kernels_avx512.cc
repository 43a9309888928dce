// AVX-512 kernels (F+BW+DQ+VL; 8 keys per vector). Math notes:
//
// Lazy Mersenne-2^61 mulmod is decomposed into 32-bit vpmuludq products.
// For the full 64x64 case with a < 2^62 and b = Fold61(key) < 2^61 + 7:
//   a·b = p00 + 2^32(p01 + p10) + 2^64·p11, and with m = p01 + p10 < 2^63,
//   2^32·m ≡ ((m & (2^29-1)) << 32) + (m >> 29)   (since 2^61 ≡ 1 mod p)
//   2^64·p11 ≡ p11 << 3
// summing to < 2^63.2 — no 64-bit overflow, one Fold61 restores the lazy
// range. When every key in a vector is < 2^32 (checked per 8-key block with
// one test-mask), the p01/p11 terms vanish and the mulmod needs only two
// vpmuludq — the benchmark streams and all small-domain workloads take this
// path. Both paths are bit-exact with the scalar twins by construction
// (identical final canonicalization), which the dispatch sweep test checks.
//
// The fused CW4 row kernel pipelines 8-key groups with a lag of one: the
// vector engine computes group g+1's buckets and pre-signed weights
// (weight ^ signflip via one XOR on the IEEE sign bit) while the scalar
// side scatters group g in stream order — scatter order is what keeps
// counter bits identical to per-key updates under FP non-associativity.
//
// GF(2^64) cubes for BCH5 use PCLMULQDQ with the double-fold reduction by
// P(x) = x^64+x^4+x^3+x+1 (low word 0x1b), replacing the 64-iteration
// shift-xor loop.
#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <bit>
#include <cstdint>
#include <cstring>

#include "src/prng/simd/kernels.h"

namespace sketchsample::simd {

namespace {

constexpr uint64_t kM61 = (1ULL << 61) - 1;

// All-lanes zero-masked forms of the five unmasked intrinsics this file
// uses. GCC's unmasked forms pass _mm512_undefined_epi32() as the merge
// source, which -Wmaybe-uninitialized flags at -O1 (the tsan preset); with
// a full mask the merge source is never read, so these are the same
// instructions with a defined input and bit-identical results.
constexpr __mmask8 kAllLanes = 0xFF;

inline __m512i SrliZ(__m512i x, unsigned int n) {
  return _mm512_maskz_srli_epi64(kAllLanes, x, n);
}
inline __m512i SlliZ(__m512i x, unsigned int n) {
  return _mm512_maskz_slli_epi64(kAllLanes, x, n);
}
inline __m512i SrlvZ(__m512i x, __m512i n) {
  return _mm512_maskz_srlv_epi64(kAllLanes, x, n);
}
inline __m512i MinEpu64Z(__m512i a, __m512i b) {
  return _mm512_maskz_min_epu64(kAllLanes, a, b);
}
inline __m512i MulEpu32Z(__m512i a, __m512i b) {
  return _mm512_maskz_mul_epu32(kAllLanes, a, b);
}

inline __m512i Fold61Z(__m512i x, __m512i m61) {
  return _mm512_add_epi64(_mm512_and_si512(x, m61), SrliZ(x, 61));
}

// Lazy mulmod, x < 2^32 (two vpmuludq): h·x = p00 + 2^32·p10.
inline __m512i MulModSmallZ(__m512i h, __m512i x, __m512i m61,
                            __m512i mask29) {
  const __m512i p00 = MulEpu32Z(h, x);
  const __m512i p10 = MulEpu32Z(SrliZ(h, 32), x);
  __m512i r = _mm512_add_epi64(_mm512_and_si512(p00, m61),
                               SrliZ(p00, 61));
  r = _mm512_add_epi64(r,
                       SlliZ(_mm512_and_si512(p10, mask29), 32));
  return _mm512_add_epi64(r, SrliZ(p10, 29));
}

// Lazy mulmod, general x < 2^61 + 7 (four vpmuludq); x1 = x >> 32.
inline __m512i MulModGenZ(__m512i h, __m512i x, __m512i x1, __m512i m61,
                          __m512i mask29) {
  const __m512i h1 = SrliZ(h, 32);
  const __m512i p00 = MulEpu32Z(h, x);
  const __m512i p01 = MulEpu32Z(h, x1);
  const __m512i p10 = MulEpu32Z(h1, x);
  const __m512i p11 = MulEpu32Z(h1, x1);
  const __m512i m = _mm512_add_epi64(p01, p10);
  __m512i r = _mm512_add_epi64(_mm512_and_si512(p00, m61),
                               SrliZ(p00, 61));
  r = _mm512_add_epi64(r, SlliZ(_mm512_and_si512(m, mask29), 32));
  r = _mm512_add_epi64(r, SrliZ(m, 29));
  return _mm512_add_epi64(r, SlliZ(p11, 3));
}

// Canonical [0, p) from a folded value f < 2p: f - p wraps above 2^63 when
// f < p, so the unsigned min picks the reduced representative.
inline __m512i CanonZ(__m512i f, __m512i m61) {
  return MinEpu64Z(f, _mm512_sub_epi64(f, m61));
}

// Granlund–Montgomery bucket reduction of canonical g < 2^61: the 64x64
// mulhi is assembled from four vpmuludq partial products.
inline __m512i FastModZ(__m512i g, __m512i m0, __m512i m1, __m512i mask32,
                        __m512i dv, unsigned shift) {
  const __m512i g1 = SrliZ(g, 32);
  const __m512i t = SrliZ(MulEpu32Z(m0, g), 32);
  const __m512i u = _mm512_add_epi64(MulEpu32Z(m1, g), t);
  const __m512i v = _mm512_add_epi64(MulEpu32Z(m0, g1),
                                     _mm512_and_si512(u, mask32));
  const __m512i hi = _mm512_add_epi64(
      _mm512_add_epi64(MulEpu32Z(m1, g1), SrliZ(u, 32)),
      SrliZ(v, 32));
  const __m512i q = SrliZ(hi, shift);
  return _mm512_sub_epi64(g, _mm512_mullo_epi64(q, dv));
}

// Sign-flip bit (bit 63) of the canonical parity of lazy h — the vector
// form of the scalar SignFlipBit63.
inline __m512i SignFlip63Z(__m512i h, __m512i m61, __m512i one) {
  const __m512i f = Fold61Z(h, m61);
  return SlliZ(
      _mm512_xor_si512(f, SrliZ(_mm512_add_epi64(f, one), 61)),
      63);
}

// Parity of each 64-bit lane, as 0/1 lanes: xor-fold to a nibble, then
// index the 16-bit parity table 0x6996 with a per-lane variable shift.
inline __m512i ParityZ(__m512i v, __m512i par16, __m512i nib, __m512i one) {
  v = _mm512_xor_si512(v, SrliZ(v, 32));
  v = _mm512_xor_si512(v, SrliZ(v, 16));
  v = _mm512_xor_si512(v, SrliZ(v, 8));
  v = _mm512_xor_si512(v, SrliZ(v, 4));
  v = _mm512_and_si512(v, nib);
  return _mm512_and_si512(SrlvZ(par16, v), one);
}

uint64_t Gf64MulClmul(uint64_t a, uint64_t b) {
  const __m128i poly = _mm_cvtsi64_si128(0x1b);
  const __m128i prod = _mm_clmulepi64_si128(_mm_cvtsi64_si128(
                                                static_cast<long long>(a)),
                                            _mm_cvtsi64_si128(
                                                static_cast<long long>(b)),
                                            0x00);
  const __m128i r1 = _mm_clmulepi64_si128(_mm_srli_si128(prod, 8), poly, 0x00);
  const __m128i r2 = _mm_clmulepi64_si128(_mm_srli_si128(r1, 8), poly, 0x00);
  const __m128i res = _mm_xor_si128(_mm_xor_si128(prod, r1), r2);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(res));
}

// Loop-invariant broadcast state for the fused row kernel.
struct FusedConstsZ {
  __m512i m61, mask29, mask32, av, bv, c0v, c1v, c2v, c3v, m0, m1, dv, one,
      wv;
  unsigned shift;
};

FusedConstsZ MakeFusedConstsZ(const BucketParams& hash, const uint64_t* c,
                              double weight) {
  FusedConstsZ k;
  k.m61 = _mm512_set1_epi64(static_cast<long long>(kM61));
  k.mask29 = _mm512_set1_epi64((1LL << 29) - 1);
  k.mask32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  k.av = _mm512_set1_epi64(static_cast<long long>(hash.multiplier));
  k.bv = _mm512_set1_epi64(static_cast<long long>(hash.offset));
  k.c0v = _mm512_set1_epi64(static_cast<long long>(c[0]));
  k.c1v = _mm512_set1_epi64(static_cast<long long>(c[1]));
  k.c2v = _mm512_set1_epi64(static_cast<long long>(c[2]));
  k.c3v = _mm512_set1_epi64(static_cast<long long>(c[3]));
  k.m0 = _mm512_set1_epi64(static_cast<long long>(hash.magic & 0xFFFFFFFFu));
  k.m1 = _mm512_set1_epi64(static_cast<long long>(hash.magic >> 32));
  k.dv = _mm512_set1_epi64(static_cast<long long>(hash.num_buckets));
  k.one = _mm512_set1_epi64(1);
  uint64_t wbits;
  std::memcpy(&wbits, &weight, sizeof(wbits));
  k.wv = _mm512_set1_epi64(static_cast<long long>(wbits));
  k.shift = hash.shift;
  return k;
}

// Computes 8 bucket indices and 8 pre-signed weights (weight XOR sign-flip
// bit) for the loaded key vector. kSmall selects the 2-vpmuludq mulmod.
template <bool kSmall>
inline void FusedCompute8(const FusedConstsZ& k, __m512i x, uint64_t* bucket,
                          double* w) {
  __m512i x1;
  if constexpr (!kSmall) {
    x = Fold61Z(x, k.m61);
    x1 = SrliZ(x, 32);
  }
  const auto mulmod = [&](__m512i h) {
    if constexpr (kSmall) {
      return MulModSmallZ(h, x, k.m61, k.mask29);
    } else {
      return MulModGenZ(h, x, x1, k.m61, k.mask29);
    }
  };
  __m512i g = _mm512_add_epi64(mulmod(k.av), k.bv);
  g = CanonZ(Fold61Z(g, k.m61), k.m61);
  const __m512i bkt = FastModZ(g, k.m0, k.m1, k.mask32, k.dv, k.shift);
  __m512i h = _mm512_add_epi64(mulmod(k.c3v), k.c2v);
  h = Fold61Z(h, k.m61);
  h = _mm512_add_epi64(mulmod(h), k.c1v);
  h = Fold61Z(h, k.m61);
  h = _mm512_add_epi64(mulmod(h), k.c0v);
  const __m512i flip = SignFlip63Z(h, k.m61, k.one);
  _mm512_store_si512(bucket, bkt);
  _mm512_store_si512(w, _mm512_xor_si512(k.wv, flip));
}

void Avx512FusedCw4Row(const BucketParams& hash, const uint64_t* c,
                       const uint64_t* keys, size_t n, double weight,
                       double* row) {
  if (hash.num_buckets == 1) {
    // Degenerate single-bucket row: the scalar twin's dedicated loop is the
    // reference; nothing to vectorize around a single accumulator.
    ScalarFusedCw4Row(hash, c, keys, n, weight, row);
    return;
  }
  const FusedConstsZ k = MakeFusedConstsZ(hash, c, weight);
  const __m512i hi32 =
      _mm512_set1_epi64(static_cast<long long>(0xFFFFFFFF00000000ULL));
  alignas(64) uint64_t bucket[2][8];
  alignas(64) double w[2][8];
  const size_t groups = n / 8;
  const auto compute = [&](size_t g, size_t slot) {
    const __m512i x = _mm512_loadu_si512(keys + g * 8);
    if (_mm512_test_epi64_mask(x, hi32) != 0) {
      FusedCompute8<false>(k, x, bucket[slot], w[slot]);
    } else {
      FusedCompute8<true>(k, x, bucket[slot], w[slot]);
    }
  };
  if (groups > 0) {
    // Lag-1 software pipeline: vector-compute group g while scattering
    // group g-1, keeping the port-complementary halves overlapped.
    compute(0, 0);
    for (size_t g = 1; g < groups; ++g) {
      compute(g, g & 1);
      const uint64_t* pb = bucket[(g - 1) & 1];
      const double* pw = w[(g - 1) & 1];
      for (size_t j = 0; j < 8; ++j) row[pb[j]] += pw[j];
    }
    const uint64_t* pb = bucket[(groups - 1) & 1];
    const double* pw = w[(groups - 1) & 1];
    for (size_t j = 0; j < 8; ++j) row[pb[j]] += pw[j];
  }
  if (n % 8 != 0) {
    ScalarFusedCw4Row(hash, c, keys + groups * 8, n % 8, weight, row);
  }
}

void Avx512BucketBatch(const BucketParams& hash, const uint64_t* keys,
                       size_t n, uint64_t* out) {
  const __m512i m61 = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __m512i mask29 = _mm512_set1_epi64((1LL << 29) - 1);
  const __m512i mask32 = _mm512_set1_epi64(0xFFFFFFFFLL);
  const __m512i av = _mm512_set1_epi64(static_cast<long long>(hash.multiplier));
  const __m512i bv = _mm512_set1_epi64(static_cast<long long>(hash.offset));
  const __m512i m0 =
      _mm512_set1_epi64(static_cast<long long>(hash.magic & 0xFFFFFFFFu));
  const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(hash.magic >> 32));
  const __m512i dv =
      _mm512_set1_epi64(static_cast<long long>(hash.num_buckets));
  const __m512i maskv = _mm512_set1_epi64(static_cast<long long>(hash.mask));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i x = _mm512_loadu_si512(keys + i);
    x = Fold61Z(x, m61);
    const __m512i x1 = SrliZ(x, 32);
    __m512i g = _mm512_add_epi64(MulModGenZ(av, x, x1, m61, mask29), bv);
    g = CanonZ(Fold61Z(g, m61), m61);
    const __m512i bkt = _mm512_and_si512(
        FastModZ(g, m0, m1, mask32, dv, hash.shift), maskv);
    _mm512_storeu_si512(out + i, bkt);
  }
  if (i < n) ScalarBucketBatch(hash, keys + i, n - i, out + i);
}

void Avx512Eh3Sign(uint64_t s, int s0, const uint64_t* keys, size_t n,
                   int8_t* out) {
  const __m512i sv = _mm512_set1_epi64(static_cast<long long>(s));
  const __m512i fives =
      _mm512_set1_epi64(static_cast<long long>(0x5555555555555555ULL));
  const __m512i par16 = _mm512_set1_epi64(0x6996);
  const __m512i nib = _mm512_set1_epi64(15);
  const __m512i one = _mm512_set1_epi64(1);
  alignas(64) uint64_t lane[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i key = _mm512_loadu_si512(keys + i);
    const __m512i pair_or = _mm512_and_si512(
        _mm512_or_si512(key, SrliZ(key, 1)), fives);
    const __m512i v =
        _mm512_xor_si512(_mm512_and_si512(sv, key), pair_or);
    _mm512_store_si512(lane, ParityZ(v, par16, nib, one));
    for (size_t j = 0; j < 8; ++j) {
      out[i + j] =
          static_cast<int8_t>(1 - 2 * (static_cast<int>(lane[j]) ^ s0));
    }
  }
  if (i < n) ScalarEh3Sign(s, s0, keys + i, n - i, out + i);
}

void Avx512Bch3Sign(uint64_t s, int s0, const uint64_t* keys, size_t n,
                    int8_t* out) {
  const __m512i sv = _mm512_set1_epi64(static_cast<long long>(s));
  const __m512i par16 = _mm512_set1_epi64(0x6996);
  const __m512i nib = _mm512_set1_epi64(15);
  const __m512i one = _mm512_set1_epi64(1);
  alignas(64) uint64_t lane[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i v = _mm512_and_si512(sv, _mm512_loadu_si512(keys + i));
    _mm512_store_si512(lane, ParityZ(v, par16, nib, one));
    for (size_t j = 0; j < 8; ++j) {
      out[i + j] =
          static_cast<int8_t>(1 - 2 * (static_cast<int>(lane[j]) ^ s0));
    }
  }
  if (i < n) ScalarBch3Sign(s, s0, keys + i, n - i, out + i);
}

void Avx512Bch5Sign(uint64_t s1, uint64_t s2, int s0, const uint64_t* keys,
                    size_t n, int8_t* out) {
  // The cube in GF(2^64) dominates; PCLMULQDQ computes it in a handful of
  // carry-less multiplies per key vs. the scalar twin's 64-iteration loop.
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = keys[i];
    const uint64_t cube = Gf64MulClmul(Gf64MulClmul(key, key), key);
    int bit = std::popcount(s1 & key) & 1;
    bit ^= std::popcount(s2 & cube) & 1;
    bit ^= s0;
    out[i] = static_cast<int8_t>(1 - 2 * bit);
  }
}

void Avx512Cw2Sign(uint64_t a, uint64_t b, const uint64_t* keys, size_t n,
                   int8_t* out) {
  const __m512i m61 = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __m512i mask29 = _mm512_set1_epi64((1LL << 29) - 1);
  const __m512i av = _mm512_set1_epi64(static_cast<long long>(a));
  const __m512i bv = _mm512_set1_epi64(static_cast<long long>(b));
  alignas(64) uint64_t lane[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i x = _mm512_loadu_si512(keys + i);
    x = Fold61Z(x, m61);
    const __m512i x1 = SrliZ(x, 32);
    __m512i h = _mm512_add_epi64(MulModGenZ(av, x, x1, m61, mask29), bv);
    h = CanonZ(Fold61Z(h, m61), m61);
    _mm512_store_si512(lane, h);
    for (size_t j = 0; j < 8; ++j) {
      out[i + j] =
          static_cast<int8_t>(1 - 2 * static_cast<int>(lane[j] & 1));
    }
  }
  if (i < n) ScalarCw2Sign(a, b, keys + i, n - i, out + i);
}

void Avx512Cw4Sign(const uint64_t* c, const uint64_t* keys, size_t n,
                   int8_t* out) {
  const __m512i m61 = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __m512i mask29 = _mm512_set1_epi64((1LL << 29) - 1);
  const __m512i c0v = _mm512_set1_epi64(static_cast<long long>(c[0]));
  const __m512i c1v = _mm512_set1_epi64(static_cast<long long>(c[1]));
  const __m512i c2v = _mm512_set1_epi64(static_cast<long long>(c[2]));
  const __m512i c3v = _mm512_set1_epi64(static_cast<long long>(c[3]));
  alignas(64) uint64_t lane[8];
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i x = _mm512_loadu_si512(keys + i);
    x = Fold61Z(x, m61);
    const __m512i x1 = SrliZ(x, 32);
    __m512i h = _mm512_add_epi64(MulModGenZ(c3v, x, x1, m61, mask29), c2v);
    h = Fold61Z(h, m61);
    h = _mm512_add_epi64(MulModGenZ(h, x, x1, m61, mask29), c1v);
    h = Fold61Z(h, m61);
    h = _mm512_add_epi64(MulModGenZ(h, x, x1, m61, mask29), c0v);
    h = CanonZ(Fold61Z(h, m61), m61);
    _mm512_store_si512(lane, h);
    for (size_t j = 0; j < 8; ++j) {
      out[i + j] =
          static_cast<int8_t>(1 - 2 * static_cast<int>(lane[j] & 1));
    }
  }
  if (i < n) ScalarCw4Sign(c, keys + i, n - i, out + i);
}

}  // namespace

const KernelTable* GetAvx512KernelTable() {
  static const KernelTable table = {
      .name = "avx512",
      .eh3_sign = Avx512Eh3Sign,
      .bch3_sign = Avx512Bch3Sign,
      .bch5_sign = Avx512Bch5Sign,
      .cw2_sign = Avx512Cw2Sign,
      .cw4_sign = Avx512Cw4Sign,
      .bucket_batch = Avx512BucketBatch,
      .fused_cw4_row = Avx512FusedCw4Row,
  };
  return &table;
}

}  // namespace sketchsample::simd

#else  // !x86

#include "src/prng/simd/kernels.h"

namespace sketchsample::simd {
const KernelTable* GetAvx512KernelTable() { return nullptr; }
}  // namespace sketchsample::simd

#endif
