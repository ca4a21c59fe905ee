#include "src/common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace pipedream {
namespace {

constexpr std::array<uint32_t, 256> MakeCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrc32Table = MakeCrc32Table();

// Both kernels work on the CRC register, i.e. the complement of the running checksum.
uint32_t UpdateBytewise(uint32_t reg, const unsigned char* bytes, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    reg = kCrc32Table[(reg ^ bytes[i]) & 0xFFu] ^ (reg >> 8);
  }
  return reg;
}

#if defined(__x86_64__)

// Below this the folding set-up costs more than the table loop.
constexpr size_t kFoldMinBytes = 64;

#define PD_CRC32_TARGET __attribute__((target("pclmul,sse4.1")))

PD_CRC32_TARGET inline __m128i Load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries the 128-bit remainder `acc` forward over the distance encoded in `k` (its low
// half multiplies acc's low half, its high half acc's high half) and adds in `next`.
PD_CRC32_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// Folding CRC after Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009): four 128-bit lanes fold 64 bytes per round, then
// collapse to one lane, fold any remaining 16-byte blocks, and reduce 128 -> 64 -> 32 bits
// with a final Barrett step. The constants are the bit-reflected x^n mod P of the paper
// for the IEEE polynomial. Requires size >= 64 and a multiple of 16.
PD_CRC32_TARGET uint32_t UpdatePclmul(uint32_t reg, const unsigned char* p, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // fold by 512 bits
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // fold by 128 bits
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);               // fold 64 -> 32 bits
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu : P'
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 = _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(reg)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = Fold(x0, k1k2, Load16(p));
    x1 = Fold(x1, k1k2, Load16(p + 16));
    x2 = Fold(x2, k1k2, Load16(p + 32));
    x3 = Fold(x3, k1k2, Load16(p + 48));
  }
  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = Fold(x0, k3k4, Load16(p));
  }

  // 128 -> 64 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  // 64 -> 32 bits.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00));
  // Barrett reduction to the 32-bit register.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#undef PD_CRC32_TARGET

#endif  // defined(__x86_64__)

}  // namespace

namespace internal {

uint32_t Crc32Bytewise(const void* data, size_t size, uint32_t crc) {
  return ~UpdateBytewise(~crc, static_cast<const unsigned char*>(data), size);
}

bool Crc32PclmulSupported() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

uint32_t Crc32Pclmul(const void* data, size_t size, uint32_t crc) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t reg = ~crc;
#if defined(__x86_64__)
  if (size >= kFoldMinBytes) {
    const size_t bulk = size & ~size_t{15};
    reg = UpdatePclmul(reg, bytes, bulk);
    bytes += bulk;
    size -= bulk;
  }
#endif
  return ~UpdateBytewise(reg, bytes, size);
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  static const bool kUsePclmul = internal::Crc32PclmulSupported();
  return kUsePclmul ? internal::Crc32Pclmul(data, size, crc)
                    : internal::Crc32Bytewise(data, size, crc);
}

}  // namespace pipedream
