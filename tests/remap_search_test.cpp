//===- tests/remap_search_test.cpp - Incremental remap search -------------===//
//
// Property, golden and determinism coverage for the incremental delta-cost
// remap search (core/Remap.cpp):
//
//  * RemapCostModel::swapDelta must equal a full recost difference for
//    every candidate — including after every applied swap of a random
//    walk — across the RegN matrix {8, 12, 32, 40, 64};
//  * its branch-free sums must match, bit for bit, the branchy per-arc
//    kernel it replaced (kept below as the reference) on inexact weights,
//    pinned and special registers, pairs joined by an edge in either
//    direction, and graphs with fewer nodes than RegN;
//  * the search trajectory over that matrix is pinned by a golden
//    (permutation hash, final cost, starts, swaps evaluated and applied,
//    arcs visited): once on integer weights, which pins the restart
//    stream and the first-best tie-break, and once on the same weights
//    divided by 3, whose inexact sums also pin the order in which
//    swapDelta adds its terms;
//  * a start that reaches cost zero ends the search, at once even at the
//    largest start count (restart vectors are drawn one at a time);
//  * the exhaustive search must report real search stats (regression
//    test: it used to report all zeros).
//
// Outside the thirds golden, graph weights are small integers, so every
// cost and delta is an exactly representable double and the comparisons
// below are exact, not tolerance-based.
//
//===----------------------------------------------------------------------===//

#include "adt/Rng.h"
#include "core/Remap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace dra;

namespace {

const unsigned RegNMatrix[] = {8, 12, 32, 40, 64};

/// An encoding config with a non-trivial violated-difference range for
/// each matrix RegN (DiffN == RegN would make every assignment free).
EncodingConfig cfgFor(unsigned RegN) {
  switch (RegN) {
  case 8: {
    EncodingConfig C;
    C.RegN = 8;
    C.DiffN = 4;
    C.DiffW = 2;
    return C;
  }
  case 12:
    return lowEndConfig(12);
  case 32: {
    EncodingConfig C = vliwConfig(32);
    C.DiffN = 16; // Half the differences violate, as in the 64-reg case.
    C.DiffW = 4;
    return C;
  }
  default:
    return vliwConfig(RegN);
  }
}

/// Seeded random adjacency graph with integer weights in [1, 9], each
/// divided by \p Divisor as it is added.
AdjacencyGraph randomGraph(uint64_t Seed, unsigned RegN, unsigned Edges,
                           unsigned Divisor = 1) {
  Rng R(Seed);
  AdjacencyGraph G(RegN);
  for (unsigned E = 0; E != Edges; ++E) {
    RegId A = static_cast<RegId>(R.nextBelow(RegN));
    RegId B = static_cast<RegId>(R.nextBelow(RegN));
    if (A != B)
      G.addWeight(A, B, static_cast<double>(1 + R.nextBelow(9)) / Divisor);
  }
  return G;
}

bool isPermutation(const std::vector<RegId> &Perm, unsigned N) {
  if (Perm.size() != N)
    return false;
  std::vector<RegId> Sorted = Perm;
  std::sort(Sorted.begin(), Sorted.end());
  for (RegId R = 0; R != N; ++R)
    if (Sorted[R] != R)
      return false;
  return true;
}

/// FNV-1a over a permutation's register numbers.
uint64_t permHash(const std::vector<RegId> &Perm) {
  uint64_t H = 14695981039346656037ull;
  for (RegId R : Perm) {
    H ^= R;
    H *= 1099511628211ull;
  }
  return H;
}

/// The branchy swapDelta the cost model used before its rows became flat
/// out/in segments and condition (3) a 0.0/1.0 table: one arc list per
/// register (outgoing, then incoming), a branch per term, and a skip of
/// the edge shared by U and V in row V. Same summation order.
class ReferenceSwapDelta {
public:
  ReferenceSwapDelta(const AdjacencyGraph &G, const EncodingConfig &C)
      : C(C), Rows(C.RegN) {
    uint32_t Nodes = std::min<uint32_t>(G.numNodes(), C.RegN);
    for (RegId R = 0; R != Nodes; ++R) {
      G.forEachOut(R, [&](RegId To, double W) {
        Rows[R].push_back({To, W, true});
      });
      G.forEachIn(R, [&](RegId From, double W) {
        Rows[R].push_back({From, W, false});
      });
    }
  }

  double operator()(const std::vector<RegId> &Perm, RegId U,
                    RegId V) const {
    double Before = 0, After = 0;
    RegId PU = Perm[U], PV = Perm[V];
    for (const Arc &A : Rows[U]) {
      RegId O = Perm[A.Other];
      RegId OS = A.Other == V ? PU : O;
      if (A.IsOut) {
        if (violated(PU, O))
          Before += A.W;
        if (violated(PV, OS))
          After += A.W;
      } else {
        if (violated(O, PU))
          Before += A.W;
        if (violated(OS, PV))
          After += A.W;
      }
    }
    for (const Arc &A : Rows[V]) {
      if (A.Other == U)
        continue;
      RegId O = Perm[A.Other];
      if (A.IsOut) {
        if (violated(PV, O))
          Before += A.W;
        if (violated(PU, O))
          After += A.W;
      } else {
        if (violated(O, PV))
          Before += A.W;
        if (violated(O, PU))
          After += A.W;
      }
    }
    return After - Before;
  }

private:
  struct Arc {
    RegId Other;
    double W;
    bool IsOut;
  };

  bool violated(RegId FromNo, RegId ToNo) const {
    return C.diffOf(FromNo, ToNo) >= C.DiffN;
  }

  EncodingConfig C;
  std::vector<std::vector<Arc>> Rows;
};

/// Bit pattern of a double, so +0.0 and -0.0 compare unequal.
uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// One pinned search outcome of the trajectory golden.
struct TrajectoryGolden {
  unsigned RegN;
  uint64_t PermHash;
  double CostAfter;
  unsigned StartsRun;
  size_t SwapsEvaluated;
  size_t SwapsApplied;
  size_t DeltaArcsVisited;
};

/// Recorded on the tree that still carried the pre-incremental
/// incident-walk search, where both searches returned these results. A
/// deliberate change to the descent's arithmetic or tie-break re-records
/// them and says why.
const TrajectoryGolden IntegerGolden[] = {
    {8, 0xa3771339f2147129ull, 0x1.a8p+5, 16, 2044, 57, 27594},
    {12, 0x71a9035763472c15ull, 0x1.bp+4, 16, 6402, 81, 100298},
    {32, 0x0de7fba68dd947cdull, 0x1.22p+7, 16, 139872, 266, 2500212},
    {40, 0xc13eb7f916398da7ull, 0x0p+0, 5, 63180, 76, 1181466},
    {64, 0xf241785f81f42b43ull, 0x1.94p+7, 6, 433440, 209, 8127000},
};

/// The same graphs with every weight divided by 3. The costs are inexact
/// (RegN 40 ends 2^-47 below zero instead of at it, so its zero-cost
/// cutoff never fires), which pins swapDelta's summation order too.
const TrajectoryGolden ThirdsGolden[] = {
    {8, 0xa3771339f2147129ull, 0x1.1aaaaaaaaaaa8p+4, 16, 2044, 57, 27594},
    {12, 0x71a9035763472c15ull, 0x1.1fffffffffffep+3, 16, 6402, 81,
     100298},
    {32, 0x68bdb2df3adcc62dull, 0x1.7d5555555555ap+5, 16, 142848, 272,
     2553408},
    {40, 0xc13eb7f916398da7ull, -0x1.88p-47, 6, 78000, 94, 1458600},
    {64, 0xe5a448ec75c73fcbull, 0x1.1000000000003p+6, 6, 449568, 217,
     8429400},
};

void expectTrajectory(const TrajectoryGolden (&Golden)[5],
                      unsigned Divisor) {
  for (const TrajectoryGolden &Gold : Golden) {
    const unsigned RegN = Gold.RegN;
    SCOPED_TRACE("RegN=" + std::to_string(RegN) +
                 " divisor=" + std::to_string(Divisor));
    EncodingConfig C = cfgFor(RegN);
    AdjacencyGraph G = randomGraph(900 + RegN, RegN, RegN * 5, Divisor);

    RemapOptions O;
    O.ExhaustiveLimit = 0;
    O.NumStarts = RegN >= 40 ? 6 : 16;
    RemapResult R = findRemap(G, C, O);
    EXPECT_EQ(Gold.PermHash, permHash(R.Perm));
    EXPECT_EQ(Gold.CostAfter, R.CostAfter);
    EXPECT_EQ(Gold.StartsRun, R.StartsRun);
    EXPECT_EQ(Gold.SwapsEvaluated, R.SwapsEvaluated);
    EXPECT_EQ(Gold.SwapsApplied, R.SwapsApplied);
    EXPECT_EQ(Gold.DeltaArcsVisited, R.DeltaArcsVisited);
    EXPECT_TRUE(isPermutation(R.Perm, RegN));
    EXPECT_LE(R.CostAfter, R.CostBefore);
  }
}

} // namespace

TEST(RemapCostModel, DeltaEqualsRecostDifferenceAfterEveryAppliedSwap) {
  for (unsigned RegN : RegNMatrix) {
    EncodingConfig C = cfgFor(RegN);
    for (uint64_t Seed = 1; Seed != 4; ++Seed) {
      AdjacencyGraph G = randomGraph(Seed * 71 + RegN, RegN, RegN * 6);
      RemapCostModel Model(G, C);

      // Random walk of applied swaps: at every step the incremental
      // delta must equal the difference of two full recosts, exactly.
      std::vector<RegId> Perm(RegN);
      for (RegId R = 0; R != RegN; ++R)
        Perm[R] = R;
      Rng Walk(Seed ^ 0xabcdef);
      Walk.shuffle(Perm);
      double Cost = G.cost(Perm, C);
      for (int Step = 0; Step != 200; ++Step) {
        RegId U = static_cast<RegId>(Walk.nextBelow(RegN));
        RegId V = static_cast<RegId>(Walk.nextBelow(RegN));
        if (U == V)
          continue;
        double Delta = Model.swapDelta(Perm, U, V);
        std::swap(Perm[U], Perm[V]);
        double Recost = G.cost(Perm, C);
        ASSERT_EQ(Delta, Recost - Cost)
            << "RegN=" << RegN << " seed=" << Seed << " step=" << Step;
        Cost = Recost; // Keep the swap applied; the model must stay exact.
      }
    }
  }
}

TEST(RemapCostModel, DeltaBitIdenticalToBranchyReference) {
  for (unsigned RegN : RegNMatrix) {
    EncodingConfig C = cfgFor(RegN);
    // A special and a pinned register, which the search never moves: the
    // walk below keeps them mapped to themselves, as every descent does,
    // while every ordered pair, theirs included, is checked.
    C.SpecialRegs = {RegN - 1};
    const RegId Pinned = RegN / 2;
    for (uint64_t Seed = 1; Seed != 4; ++Seed) {
      // Thirds weights (inexact sums) on a graph over all RegN registers
      // and on one over only the low two thirds of them.
      for (unsigned Nodes : {RegN, RegN * 2 / 3}) {
        SCOPED_TRACE("RegN=" + std::to_string(RegN) +
                     " nodes=" + std::to_string(Nodes) +
                     " seed=" + std::to_string(Seed));
        AdjacencyGraph G =
            randomGraph(Seed * 131 + RegN + Nodes, Nodes, Nodes * 6, 3);
        // Registers 0 and 1 are joined by an edge each way, 2 and 3 by
        // one edge.
        G.addWeight(0, 1, 1.0 / 3);
        G.addWeight(1, 0, 2.0 / 3);
        G.addWeight(2, 3, 4.0 / 3);
        RemapCostModel Model(G, C);
        ReferenceSwapDelta Reference(G, C);

        std::vector<RegId> Perm(RegN);
        for (RegId R = 0; R != RegN; ++R)
          Perm[R] = R;
        Rng Walk(Seed * 7 + Nodes);
        for (int Step = 0; Step != 40; ++Step) {
          for (RegId U = 0; U != RegN; ++U)
            for (RegId V = 0; V != RegN; ++V) {
              if (U == V)
                continue;
              ASSERT_EQ(bitsOf(Reference(Perm, U, V)),
                        bitsOf(Model.swapDelta(Perm, U, V)))
                  << "U=" << U << " V=" << V << " step=" << Step;
            }
          RegId A = static_cast<RegId>(Walk.nextBelow(RegN));
          RegId B = static_cast<RegId>(Walk.nextBelow(RegN));
          if (!C.isSpecial(A) && !C.isSpecial(B) && A != Pinned &&
              B != Pinned)
            std::swap(Perm[A], Perm[B]);
        }
      }
    }
  }
}

TEST(RemapSearch, TrajectoryMatchesGolden) {
  expectTrajectory(IntegerGolden, 1);
  expectTrajectory(ThirdsGolden, 3);
}

TEST(RemapSearch, ZeroCostStartEndsTheSearch) {
  // A single violated edge: the very first descent reaches cost zero, so
  // the remaining starts are cut off. At the largest start count this is
  // also a memory regression test: restart vectors are drawn one at a
  // time, so the search returns at once where drawing every vector up
  // front ended in std::bad_alloc.
  EncodingConfig C = cfgFor(8);
  AdjacencyGraph G(8);
  G.addWeight(0, 5, 3); // diff 5 >= DiffN=4: violated under identity.

  RemapOptions O;
  O.ExhaustiveLimit = 0;
  for (unsigned Starts : {32u, 4294967295u}) {
    O.NumStarts = Starts;
    RemapResult R = findRemap(G, C, O);
    EXPECT_EQ(R.CostAfter, 0.0);
    EXPECT_EQ(R.StartsRun, 1u);
    EXPECT_EQ(R.StartsCutOff, Starts - 1);
  }
}

TEST(RemapExhaustive, ReportsEnumerationStats) {
  // Regression: the exhaustive search used to return all-zero stats. With 4
  // movable registers it must report exactly 4! = 24 permutations
  // evaluated, one enumeration run, and at least one improvement.
  EncodingConfig C;
  C.RegN = 4;
  C.DiffN = 2;
  C.DiffW = 1;
  AdjacencyGraph G(4);
  G.addWeight(0, 2, 2); // diff 2: violated under identity.
  G.addWeight(1, 3, 1); // diff 2: violated under identity.

  RemapResult R = findRemap(G, C); // ExhaustiveLimit=7 routes to exhaustive.
  ASSERT_TRUE(R.Exhaustive);
  EXPECT_EQ(R.StartsRun, 1u);
  EXPECT_EQ(R.StartsCutOff, 0u);
  EXPECT_EQ(R.SwapsEvaluated, 24u);
  EXPECT_GE(R.SwapsApplied, 1u);
  EXPECT_LE(R.CostAfter, R.CostBefore);
}

TEST(RemapSearch, GreedyArmsReportStatsAndValidCosts) {
  for (unsigned RegN : RegNMatrix) {
    EncodingConfig C = cfgFor(RegN);
    AdjacencyGraph G = randomGraph(31 + RegN, RegN, RegN * 4);
    RemapOptions O;
    O.ExhaustiveLimit = 0;
    O.NumStarts = 8;
    RemapResult R = findRemap(G, C, O);
    EXPECT_TRUE(isPermutation(R.Perm, RegN));
    EXPECT_GE(R.StartsRun, 1u);
    EXPECT_EQ(R.StartsRun + R.StartsCutOff, 8u);
    EXPECT_GT(R.SwapsEvaluated, 0u);
    EXPECT_LE(R.CostAfter, R.CostBefore);
    // Integer weights make the incrementally maintained cost exact: it
    // must equal a from-scratch recost of the returned permutation.
    EXPECT_EQ(R.CostAfter, G.cost(R.Perm, C));
    // The whole point of the delta rows: far fewer arc visits than
    // recosting every candidate from scratch would have needed.
    EXPECT_GT(R.DeltaRecostSavings, 0u);
  }
}
