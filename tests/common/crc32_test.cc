// CRC-32: every implementation behind Crc32 (the dispatched entry point, the bytewise
// table loop and the PCLMULQDQ folding path) must return exactly the values of an
// independent oracle, for every length, alignment, incoming crc and chunking. The wire
// (PDM1 frame footers, message checksums) and on-disk (checkpoint and manifest footers)
// formats depend on it, so a pinned value guards against drift too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"

namespace pipedream {
namespace {

// Sarwate's table CRC with its table derived here from the reflected IEEE polynomial, so
// the oracle shares no code with src/common/crc32.cc.
uint32_t OracleCrc32(const unsigned char* bytes, size_t size, uint32_t crc) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c >> 1) ^ ((c & 1u) != 0 ? 0xEDB88320u : 0u);
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(Rng* rng, size_t size) {
  std::vector<unsigned char> out(size);
  for (auto& b : out) {
    b = static_cast<unsigned char>(rng->NextU64());
  }
  return out;
}

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Impl {
  const char* name;
  CrcFn fn;
  bool needs_pclmul;
};

const Impl kImpls[] = {
    {"Dispatched", [](const void* d, size_t n, uint32_t c) { return Crc32(d, n, c); }, false},
    {"Bytewise", internal::Crc32Bytewise, false},
    {"Pclmul", internal::Crc32Pclmul, true},
};

void PrintTo(const Impl& impl, std::ostream* os) { *os << impl.name; }

class Crc32ImplTest : public ::testing::TestWithParam<Impl> {
 protected:
  void SetUp() override {
    if (GetParam().needs_pclmul && !internal::Crc32PclmulSupported()) {
      GTEST_SKIP() << "this CPU has no PCLMULQDQ";
    }
  }
  uint32_t Crc(const void* data, size_t size, uint32_t crc = 0) const {
    return GetParam().fn(data, size, crc);
  }
};

TEST_P(Crc32ImplTest, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc(nullptr, 0), 0u);
  EXPECT_EQ(Crc(nullptr, 0, 0xDEADBEEFu), 0xDEADBEEFu);
  EXPECT_EQ(Crc(check.data() + 4, 5, Crc(check.data(), 4)), 0xCBF43926u);
}

// A fixed 128 KB buffer (one mlp_socket_ckpt activation) from a fixed generator: the value
// every message, frame and checkpoint checksum of such bytes has always carried.
TEST_P(Crc32ImplTest, PinnedValueOfFixedBuffer) {
  std::vector<unsigned char> buffer(128 * 1024);
  uint64_t x = 42;
  for (auto& b : buffer) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    b = static_cast<unsigned char>(x >> 56);
  }
  EXPECT_EQ(OracleCrc32(buffer.data(), buffer.size(), 0), 0xB1965AB7u);
  EXPECT_EQ(Crc(buffer.data(), buffer.size()), 0xB1965AB7u);
}

// Every length up to 512 (each residue mod 16 and 64 on both sides of the 64-byte folding
// threshold) at every offset within a cache line.
TEST_P(Crc32ImplTest, MatchesOracleForAllShortLengthsAndOffsets) {
  Rng rng(1);
  const std::vector<unsigned char> buffer = RandomBytes(&rng, 512 + 64);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t size = 0; size <= 512; ++size) {
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      const unsigned char* p = buffer.data() + offset;
      ASSERT_EQ(Crc(p, size, seed), OracleCrc32(p, size, seed))
          << "size " << size << " offset " << offset << " crc " << seed;
    }
  }
}

TEST_P(Crc32ImplTest, MatchesOracleOnRandomLargeInputs) {
  Rng rng(2);
  const std::vector<unsigned char> buffer = RandomBytes(&rng, 300 * 1024 + 64);
  for (int i = 0; i < 300; ++i) {
    const size_t offset = rng.NextU64() % 64;
    const size_t size = rng.NextU64() % (300 * 1024 + 1);
    const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    const unsigned char* p = buffer.data() + offset;
    ASSERT_EQ(Crc(p, size, seed), OracleCrc32(p, size, seed))
        << "size " << size << " offset " << offset << " crc " << seed;
  }
}

// Incremental use (message checksums chain four fields; checkpoints stream file chunks):
// any split of the input must give the one-shot value.
TEST_P(Crc32ImplTest, ChunkedEqualsOneShot) {
  Rng rng(3);
  const std::vector<unsigned char> buffer = RandomBytes(&rng, 64 * 1024 + 64);
  for (int i = 0; i < 500; ++i) {
    const size_t offset = rng.NextU64() % 64;
    const size_t size = rng.NextU64() % (64 * 1024 + 1);
    const unsigned char* p = buffer.data() + offset;
    const uint32_t one_shot = OracleCrc32(p, size, 0);
    uint32_t crc = 0;
    size_t done = 0;
    while (done < size) {
      // Mostly short chunks, sometimes long ones, so both paths meet at every boundary.
      const size_t cap = rng.NextU64() % 4 == 0 ? 8192 : 200;
      const size_t chunk = std::min(size - done, 1 + rng.NextU64() % cap);
      crc = Crc(p + done, chunk, crc);
      done += chunk;
    }
    ASSERT_EQ(crc, one_shot) << "size " << size << " offset " << offset << " case " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPaths, Crc32ImplTest, ::testing::ValuesIn(kImpls),
                         [](const ::testing::TestParamInfo<Impl>& param_info) {
                           return std::string(param_info.param.name);
                         });

}  // namespace
}  // namespace pipedream
