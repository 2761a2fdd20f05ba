//===- tests/adt_test.cpp - Rng/BitVector/Statistics unit tests -----------===//

#include "adt/Arena.h"
#include "adt/BitMatrix.h"
#include "adt/BitVector.h"
#include "adt/IndexSet.h"
#include "adt/Rng.h"
#include "adt/SipHash.h"
#include "adt/Statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

using namespace dra;

TEST(Rng, DeterministicForSeed) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.nextBelow(13);
    EXPECT_LT(V, 13u);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng R(9);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 500; ++I)
    Seen.insert(R.nextBelow(7));
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, WithChanceAlwaysAndNever) {
  Rng R(5);
  for (int I = 0; I != 50; ++I) {
    EXPECT_TRUE(R.withChance(10, 10));
    EXPECT_FALSE(R.withChance(0, 10));
  }
}

TEST(Rng, NextDoubleUnitInterval) {
  Rng R(17);
  for (int I = 0; I != 1000; ++I) {
    double V = R.nextDouble();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng R(31);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> Shuffled = V;
  R.shuffle(Shuffled);
  std::sort(Shuffled.begin(), Shuffled.end());
  EXPECT_EQ(V, Shuffled);
}

TEST(BitVector, SetTestReset) {
  BitVector BV(130);
  EXPECT_FALSE(BV.test(0));
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVector, ResizeWithValue) {
  BitVector BV(10, true);
  EXPECT_EQ(BV.count(), 10u);
  BV.resize(100, true);
  EXPECT_EQ(BV.count(), 100u);
  BV.resize(5);
  EXPECT_EQ(BV.count(), 5u);
}

TEST(BitVector, FindNextAndForEach) {
  BitVector BV(200);
  BV.set(0);
  BV.set(63);
  BV.set(64);
  BV.set(199);
  EXPECT_EQ(BV.findNext(0), 0u);
  EXPECT_EQ(BV.findNext(1), 63u);
  EXPECT_EQ(BV.findNext(65), 199u);
  EXPECT_EQ(BV.findNext(200), BitVector::npos);
  std::vector<uint32_t> Bits = BV.toVector();
  EXPECT_EQ(Bits, (std::vector<uint32_t>{0, 63, 64, 199}));
}

TEST(BitVector, NoneAndClear) {
  BitVector BV(40);
  EXPECT_TRUE(BV.none());
  BV.set(17);
  EXPECT_FALSE(BV.none());
  BV.clear();
  EXPECT_TRUE(BV.none());
}

TEST(Statistics, Percentile) {
  std::vector<double> V = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 5.0);
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena A;
  char *C1 = static_cast<char *>(A.allocate(3, 1));
  double *D = A.allocArray<double>(5);
  char *C2 = static_cast<char *>(A.allocate(1, 1));
  uint64_t *U = A.allocArray<uint64_t>(7);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(D) % alignof(double), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(U) % alignof(uint64_t), 0u);
  // Writing every byte of every allocation must not alias another one.
  std::memset(C1, 0xa1, 3);
  for (int I = 0; I != 5; ++I)
    D[I] = 1.5 * I;
  *C2 = 0x7f;
  for (int I = 0; I != 7; ++I)
    U[I] = 0x0101010101010101ull * static_cast<uint64_t>(I);
  EXPECT_EQ(C1[0], static_cast<char>(0xa1));
  EXPECT_EQ(C1[2], static_cast<char>(0xa1));
  for (int I = 0; I != 5; ++I)
    EXPECT_EQ(D[I], 1.5 * I);
  EXPECT_EQ(*C2, 0x7f);
  for (int I = 0; I != 7; ++I)
    EXPECT_EQ(U[I], 0x0101010101010101ull * static_cast<uint64_t>(I));
}

TEST(Arena, GrowsAcrossChunksAndResetRetainsCapacity) {
  Arena A;
  // Far beyond the first chunk: force several growth steps.
  for (int I = 0; I != 64; ++I) {
    char *P = static_cast<char *>(A.allocate(8192, 8));
    std::memset(P, 0x5c, 8192);
  }
  size_t Reserved = A.bytesReserved();
  EXPECT_GE(A.bytesUsed(), size_t(64 * 8192));
  A.reset();
  EXPECT_EQ(A.bytesUsed(), 0u);
  // reset() keeps (coalesced) capacity so steady-state reuse is heap-free.
  EXPECT_GE(A.bytesReserved(), Reserved);
  size_t ReservedAfterReset = A.bytesReserved();
  for (int I = 0; I != 64; ++I)
    A.allocate(8192, 8);
  EXPECT_EQ(A.bytesReserved(), ReservedAfterReset);
}

TEST(Arena, ZeroedArrayIsZero) {
  Arena A;
  // Dirty the arena first so the zeroing is observable.
  std::memset(A.allocate(4096, 8), 0xff, 4096);
  A.reset();
  uint32_t *Z = A.allocZeroedArray<uint32_t>(1024);
  for (int I = 0; I != 1024; ++I)
    EXPECT_EQ(Z[I], 0u) << I;
}

//===----------------------------------------------------------------------===//
// IndexSet
//===----------------------------------------------------------------------===//

TEST(IndexSet, MirrorsStdSetOrderedOperations) {
  IndexSet S;
  S.init(200);
  std::set<unsigned> Ref;
  Rng R(99);
  for (int Step = 0; Step != 2000; ++Step) {
    unsigned V = static_cast<unsigned>(R.nextBelow(200));
    if (R.nextBelow(3) == 0) {
      S.erase(V);
      Ref.erase(V);
    } else {
      S.insert(V);
      Ref.insert(V);
    }
    ASSERT_EQ(S.size(), Ref.size());
    ASSERT_EQ(S.empty(), Ref.empty());
    // first() must equal *begin() of the ordered reference — the worklist
    // determinism contract of the allocator rework.
    if (!Ref.empty())
      ASSERT_EQ(S.first(), *Ref.begin());
    else
      ASSERT_EQ(S.first(), IndexSet::npos);
  }
  std::vector<unsigned> Got;
  S.forEach([&](unsigned V) { Got.push_back(V); });
  std::vector<unsigned> Want(Ref.begin(), Ref.end());
  EXPECT_EQ(Got, Want);
}

TEST(IndexSet, InsertEraseIdempotentAndMembership) {
  IndexSet S;
  S.init(70);
  EXPECT_TRUE(S.insert(65));
  EXPECT_FALSE(S.insert(65)); // second insert is a no-op
  EXPECT_EQ(S.size(), 1u);
  EXPECT_TRUE(S.contains(65));
  EXPECT_FALSE(S.contains(64));
  EXPECT_TRUE(S.erase(65));
  EXPECT_FALSE(S.erase(65)); // second erase is a no-op
  EXPECT_EQ(S.size(), 0u);
  EXPECT_EQ(S.first(), IndexSet::npos);
}

TEST(IndexSet, FindNextScansAscending) {
  IndexSet S;
  S.init(130);
  for (unsigned V : {3u, 64u, 65u, 127u})
    S.insert(V);
  EXPECT_EQ(S.findNext(0), 3u);
  EXPECT_EQ(S.findNext(3), 3u);
  EXPECT_EQ(S.findNext(4), 64u);
  EXPECT_EQ(S.findNext(65), 65u);
  EXPECT_EQ(S.findNext(66), 127u);
  EXPECT_EQ(S.findNext(128), IndexSet::npos);
}

TEST(IndexSet, ArenaBackedBehavesIdentically) {
  Arena A;
  IndexSet S;
  S.init(A, 100);
  for (unsigned V = 0; V < 100; V += 7)
    S.insert(V);
  EXPECT_EQ(S.first(), 0u);
  S.erase(0);
  EXPECT_EQ(S.first(), 7u);
  EXPECT_EQ(S.size(), 14u);
}

//===----------------------------------------------------------------------===//
// BitMatrix
//===----------------------------------------------------------------------===//

TEST(BitMatrix, SymmetricSetAndTest) {
  BitMatrix M;
  M.init(150);
  EXPECT_FALSE(M.test(3, 140));
  M.setSym(3, 140);
  EXPECT_TRUE(M.test(3, 140));
  EXPECT_TRUE(M.test(140, 3));
  EXPECT_FALSE(M.test(3, 139));
  EXPECT_EQ(M.rowCount(3), 1u);
  EXPECT_EQ(M.rowCount(140), 1u);
  EXPECT_EQ(M.rowCount(0), 0u);
}

TEST(BitMatrix, ForEachInRowAscending) {
  BitMatrix M;
  M.init(200);
  std::set<uint32_t> Ref;
  Rng R(5);
  for (int I = 0; I != 60; ++I) {
    uint32_t V = static_cast<uint32_t>(R.nextBelow(200));
    if (V != 17) {
      M.setSym(17, V);
      Ref.insert(V);
    }
  }
  std::vector<uint32_t> Got;
  M.forEachInRow(17, [&](uint32_t V) { Got.push_back(V); });
  std::vector<uint32_t> Want(Ref.begin(), Ref.end());
  EXPECT_EQ(Got, Want); // ascending, no duplicates
  EXPECT_EQ(M.rowCount(17), Want.size());
}

TEST(BitMatrix, ArenaBackedRowsStartZero) {
  Arena A;
  std::memset(A.allocate(1 << 16, 8), 0xff, 1 << 16);
  A.reset();
  BitMatrix M;
  M.init(A, 300);
  for (uint32_t I = 0; I != 300; ++I)
    EXPECT_EQ(M.rowCount(I), 0u) << I;
}

//===----------------------------------------------------------------------===//
// SipHash
//===----------------------------------------------------------------------===//

namespace {

std::vector<unsigned char> counting(size_t N) {
  std::vector<unsigned char> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = static_cast<unsigned char>(I);
  return V;
}

} // namespace

TEST(SipHash, ReferenceVectors) {
  // Key 00 01 .. 0f, as in the paper and the reference implementation.
  const uint64_t K0 = 0x0706050403020100ull, K1 = 0x0f0e0d0c0b0a0908ull;
  // SipHash-2-4, 64-bit, message 00 .. 0e (the paper's appendix A).
  std::vector<unsigned char> M = counting(15);
  SipHasher<2, 4> H64(K0, K1, /*Wide=*/false);
  H64.update(M.data(), M.size());
  EXPECT_EQ(0xa129ca6149be45e5ull, H64.finish64());
  // SipHash-2-4, 128-bit, empty message (vectors_sip128[0]).
  SipHasher<2, 4> H128(K0, K1, /*Wide=*/true);
  Hash128 D = H128.finish128();
  EXPECT_EQ(0xe6a825ba047f81a3ull, D.Lo);
  EXPECT_EQ(0x930255c71472f66dull, D.Hi);
}

TEST(SipHash, OneThreeMatchesCPythonBytesHash) {
  // CPython 3.11+ hashes bytes with SipHash-1-3 (64-bit); with
  // PYTHONHASHSEED=0 its key is zero, so these are
  // hash(bytes(range(n))) & (2**64 - 1).
  const std::pair<size_t, uint64_t> Expected[] = {
      {1, 0x68a914128e01e473ull},  {7, 0x2f098ab0c751325aull},
      {8, 0xead411e67ebe2eeaull},  {15, 0xf30eb725bb91c9eaull},
      {64, 0x75e05fd5bbc870c6ull}};
  for (auto [N, Want] : Expected) {
    std::vector<unsigned char> M = counting(N);
    SipHash13 H(0, 0, /*Wide=*/false);
    H.update(M.data(), M.size());
    EXPECT_EQ(Want, H.finish64()) << N << " bytes";
  }
}

TEST(SipHash, IncrementalUpdatesMatchOneShot) {
  std::vector<unsigned char> M = counting(100);
  SipHash13 Whole(3, 5, /*Wide=*/true);
  Whole.update(M.data(), M.size());
  const Hash128 Want = Whole.finish128();
  for (size_t Step : {1u, 3u, 7u, 8u, 13u, 64u}) {
    SipHash13 H(3, 5, /*Wide=*/true);
    for (size_t I = 0; I < M.size(); I += Step)
      H.update(M.data() + I, std::min(Step, M.size() - I));
    EXPECT_EQ(Want, H.finish128()) << "step " << Step;
  }
  // Every byte and the length matter.
  for (size_t I = 0; I < M.size(); I += 9) {
    std::vector<unsigned char> Flip = M;
    Flip[I] ^= 1;
    SipHash13 H(3, 5, /*Wide=*/true);
    H.update(Flip.data(), Flip.size());
    EXPECT_FALSE(Want == H.finish128()) << "byte " << I;
  }
  SipHash13 Longer(3, 5, /*Wide=*/true);
  M.push_back(0);
  Longer.update(M.data(), M.size());
  EXPECT_FALSE(Want == Longer.finish128());
}
