//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable 64-bit content hashing (FNV-1a) for the result cache's
/// content-addressed fingerprints. The function is fixed forever: cache
/// entries written by one build must be readable by the next, so changing
/// the algorithm requires bumping the cache format version instead.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_SUPPORT_HASH_H
#define RUSTSIGHT_SUPPORT_HASH_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace rs {

inline constexpr uint64_t Fnv1a64OffsetBasis = 14695981039346656037ull;
inline constexpr uint64_t Fnv1a64Prime = 1099511628211ull;

/// FNV-1a over \p Bytes, continuing from \p Seed. Chain calls to hash
/// multi-part inputs: fnv1a64(B, fnv1a64(A)) != fnv1a64(A + B) only in that
/// the former is exactly the hash of the concatenation — parts hash the
/// same as the joined string, so include explicit separators when the
/// split points matter.
constexpr uint64_t fnv1a64(std::string_view Bytes,
                           uint64_t Seed = Fnv1a64OffsetBasis) {
  uint64_t H = Seed;
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= Fnv1a64Prime;
  }
  return H;
}

/// Folds the 8 bytes of \p Value into \p Seed (little-endian byte order,
/// explicitly, so the result is identical across hosts).
constexpr uint64_t fnv1a64U64(uint64_t Value,
                              uint64_t Seed = Fnv1a64OffsetBasis) {
  uint64_t H = Seed;
  for (int I = 0; I != 8; ++I) {
    H ^= (Value >> (8 * I)) & 0xff;
    H *= Fnv1a64Prime;
  }
  return H;
}

/// 8-byte-chunk multiply-fold over \p Bytes. Byte-at-a-time FNV costs
/// most of an order of magnitude more on large inputs, so the hot
/// checksums (source fingerprints, module facts sections, cache pack
/// payloads) use this instead. Like fnv1a64 it is part of on-disk
/// formats: changing it requires bumping their versions.
inline uint64_t hashCanonicalBytes(std::string_view Bytes) {
  constexpr uint64_t M = 0x9e3779b97f4a7c15ull;
  uint64_t H =
      Fnv1a64OffsetBasis ^ (static_cast<uint64_t>(Bytes.size()) * M);
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t Chunk;
    std::memcpy(&Chunk, Bytes.data() + I, 8);
    H = (H ^ Chunk) * M;
  }
  uint64_t Tail = 0;
  for (unsigned Shift = 0; I < Bytes.size(); ++I, Shift += 8)
    Tail |= static_cast<uint64_t>(static_cast<unsigned char>(Bytes[I]))
            << Shift;
  H = (H ^ Tail) * M;
  H ^= H >> 32;
  H *= M;
  H ^= H >> 29;
  return H;
}

/// Renders a hash as fixed-width lowercase hex (16 digits) — the stable
/// on-disk spelling of cache keys.
std::string hashToHex(uint64_t H);

/// Parses the hashToHex spelling back; returns false on malformed input.
bool hexToHash(std::string_view Hex, uint64_t &Out);

} // namespace rs

#endif // RUSTSIGHT_SUPPORT_HASH_H
