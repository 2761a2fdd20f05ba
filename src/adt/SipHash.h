//===- adt/SipHash.h - Keyed SipHash-c-d over a byte stream -----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SipHash (Aumasson and Bernstein, "SipHash: a fast short-input PRF",
/// 2012) with c compression and d finalization rounds and a 64- or
/// 128-bit output, fed incrementally. The compile server keys a
/// SipHash-1-3-128 per process and digests request bytes with it, so no
/// client can precompute two requests whose digests collide. The 2-4
/// instantiation exists for the reference test vectors; the 1-3 one
/// matches CPython's string hash.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ADT_SIPHASH_H
#define DRA_ADT_SIPHASH_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dra {

/// A 128-bit digest: the first (Lo) and second (Hi) output words.
struct Hash128 {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  bool operator==(const Hash128 &) const = default;
};

template <unsigned CRounds, unsigned DRounds> class SipHasher {
public:
  /// \p Wide selects the 128-bit output: call finish128 then, finish64
  /// otherwise. The two modes differ from the first round on, so the
  /// choice is made here, not at the end.
  SipHasher(uint64_t K0, uint64_t K1, bool Wide)
      : V0(0x736f6d6570736575ull ^ K0),
        V1(0x646f72616e646f6dull ^ K1 ^ (Wide ? 0xeeull : 0)),
        V2(0x6c7967656e657261ull ^ K0), V3(0x7465646279746573ull ^ K1) {}

  void update(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    Total += Len;
    while (Len && TailLen) { // finish a word begun by an earlier update
      Tail |= uint64_t(*P++) << (8 * TailLen);
      --Len;
      if (++TailLen == 8) {
        compress(Tail);
        Tail = 0;
        TailLen = 0;
      }
    }
    for (; Len >= 8; P += 8, Len -= 8)
      compress(load64(P));
    for (; Len; --Len)
      Tail |= uint64_t(*P++) << (8 * TailLen++);
  }

  uint64_t finish64() {
    finalize(0xff);
    return V0 ^ V1 ^ V2 ^ V3;
  }

  Hash128 finish128() {
    Hash128 H;
    finalize(0xee);
    H.Lo = V0 ^ V1 ^ V2 ^ V3;
    V1 ^= 0xdd;
    for (unsigned I = 0; I != DRounds; ++I)
      round();
    H.Hi = V0 ^ V1 ^ V2 ^ V3;
    return H;
  }

private:
  static uint64_t load64(const unsigned char *P) {
    uint64_t W;
    std::memcpy(&W, P, sizeof W);
    if constexpr (std::endian::native == std::endian::big)
      W = __builtin_bswap64(W);
    return W;
  }

  void round() {
    V0 += V1;
    V1 = std::rotl(V1, 13);
    V1 ^= V0;
    V0 = std::rotl(V0, 32);
    V2 += V3;
    V3 = std::rotl(V3, 16);
    V3 ^= V2;
    V0 += V3;
    V3 = std::rotl(V3, 21);
    V3 ^= V0;
    V2 += V1;
    V1 = std::rotl(V1, 17);
    V1 ^= V2;
    V2 = std::rotl(V2, 32);
  }

  void compress(uint64_t M) {
    V3 ^= M;
    for (unsigned I = 0; I != CRounds; ++I)
      round();
    V0 ^= M;
  }

  /// The last word carries the total length mod 256 in its top byte.
  void finalize(uint64_t V2Tweak) {
    compress(Tail | (uint64_t(Total) << 56));
    V2 ^= V2Tweak;
    for (unsigned I = 0; I != DRounds; ++I)
      round();
  }

  uint64_t V0, V1, V2, V3;
  uint64_t Tail = 0;     ///< Bytes of the current partial word, LE.
  unsigned TailLen = 0;  ///< 0..7
  size_t Total = 0;      ///< Bytes fed so far.
};

using SipHash13 = SipHasher<1, 3>;

} // namespace dra

#endif // DRA_ADT_SIPHASH_H
