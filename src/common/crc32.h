// CRC-32 (IEEE 802.3 polynomial, reflected) over arbitrary byte ranges.
//
// Used wherever the system needs to tell "bytes arrived/persisted intact" from "bytes were
// torn or flipped": the checkpoint file footer and the runtime's inter-stage message
// checksums. Incremental: feed chunks through repeated calls, passing the previous result.
//
// On x86-64 hosts with PCLMULQDQ the bulk of every input of 64 bytes or more is folded with
// carry-less multiplies (crc32.cc); elsewhere, and for short inputs and tails, a bytewise
// table loop runs. Both produce the same values, so the choice never shows in a checksum.
#ifndef SRC_COMMON_CRC32_H_
#define SRC_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace pipedream {

// Extends `crc` (the running checksum of everything fed so far; 0 for a fresh stream) with
// `size` bytes at `data`.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

namespace internal {

// The two implementations behind Crc32, exposed so tests can check each against an oracle
// in the same binary. Same contract as Crc32.
uint32_t Crc32Bytewise(const void* data, size_t size, uint32_t crc);
// True when this CPU has PCLMULQDQ and SSE4.1. On x86-64, calling Crc32Pclmul on a CPU
// without them faults (illegal instruction); elsewhere Crc32Pclmul is the table loop.
bool Crc32PclmulSupported();
uint32_t Crc32Pclmul(const void* data, size_t size, uint32_t crc);

}  // namespace internal
}  // namespace pipedream

#endif  // SRC_COMMON_CRC32_H_
