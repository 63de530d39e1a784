#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define DGI_CRC_CLMUL 1
#endif

namespace dgiwarp {

namespace {

// Slice-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
struct Tables {
  std::array<std::array<u32, 256>, 8> t;
  Tables() {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i) {
      u32 c = t[0][i];
      for (std::size_t s = 1; s < 8; ++s) {
        c = t[0][c & 0xFF] ^ (c >> 8);
        t[s][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

u32 crc_update_table(u32 crc, const u8* p, std::size_t n) {
  const auto& t = tables().t;
  while (n >= 8) {
    const u32 lo = crc ^ (u32{p[0]} | (u32{p[1]} << 8) | (u32{p[2]} << 16) |
                          (u32{p[3]} << 24));
    const u32 hi =
        u32{p[4]} | (u32{p[5]} << 8) | (u32{p[6]} << 16) | (u32{p[7]} << 24);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  return crc;
}

#ifdef DGI_CRC_CLMUL
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) for the
// same reflected polynomial. Four 128-bit lanes fold 64 bytes per round by
// x^(512±32) mod P, collapse to one lane, fold to 64 then 32 bits and
// finish with a Barrett reduction. Constants are the bit-reflected
// x^k mod P values (k1..k5) and P/µ for Barrett, as in the whitepaper.
#define DGI_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

DGI_CLMUL_TARGET inline __m128i load(const u8* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// x := x.hi * k.hi ^ x.lo * k.lo ^ next (carry-less).
DGI_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

// `n` must be a multiple of 16 and at least 64.
DGI_CLMUL_TARGET u32 crc_fold_clmul(u32 crc, const u8* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = fold(x1, k3k4, load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  // 64 -> 32 bits.
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5k0, 0x00), x2r);
  // Barrett reduction to the 32-bit remainder.
  x2r = _mm_and_si128(x1, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x10);
  x2r = _mm_and_si128(x2r, mask32);
  x2r = _mm_clmulepi64_si128(x2r, poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<u32>(_mm_extract_epi32(x1, 1));
}
#endif

u32 crc_update_clmul(u32 crc, const u8* p, std::size_t n) {
#ifdef DGI_CRC_CLMUL
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    crc = crc_fold_clmul(crc, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return crc_update_table(crc, p, n);
}

bool detect_clmul() {
#ifdef DGI_CRC_CLMUL
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

// Chosen once per process: the folded kernel where the CPU has PCLMULQDQ,
// slice-by-8 everywhere else. Both give the same CRC for every input.
using UpdateFn = u32 (*)(u32, const u8*, std::size_t);
UpdateFn crc_update_fn() {
  static const UpdateFn fn =
      detect_clmul() ? crc_update_clmul : crc_update_table;
  return fn;
}

u32 crc_update(u32 crc, const u8* p, std::size_t n) {
  return crc_update_fn()(crc, p, n);
}

}  // namespace

namespace crc32_detail {

u32 update_table(u32 state, ConstByteSpan data) {
  return crc_update_table(state, data.data(), data.size());
}

u32 update_clmul(u32 state, ConstByteSpan data) {
  return detect_clmul() ? crc_update_clmul(state, data.data(), data.size())
                        : crc_update_table(state, data.data(), data.size());
}

bool clmul_supported() { return detect_clmul(); }

}  // namespace crc32_detail

u32 crc32_ieee(ConstByteSpan data) {
  return ~crc_update(0xFFFFFFFFu, data.data(), data.size());
}

void Crc32::update(ConstByteSpan data) {
  state_ = crc_update(state_, data.data(), data.size());
}

void Crc32::update(const GatherList& gl) {
  for (const auto& s : gl.segments()) update(s);
}

}  // namespace dgiwarp
