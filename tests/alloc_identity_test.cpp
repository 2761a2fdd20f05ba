//===- tests/alloc_identity_test.cpp - Allocator golden bit-identity ------===//
//
// Guards the flat-arena/bitset rework of the allocator hot core: every
// scheme's complete pipeline result — machine code, spill decisions, and
// all deterministic stage counters — must stay byte-identical to the
// pre-rework allocator. The golden fingerprints in
// tests/data/golden_alloc_identity.txt were generated with the
// hash/tree-based (std::unordered_set / std::set) implementation this PR
// replaced; ResultCache::serializeResult is the canonical byte encoding
// (doubles as hex bit patterns, so the comparison is exact).
//
// Regenerate after an *intentional* behavior change with:
//   DRA_REGEN_GOLDEN=1 ./build/tests/alloc_identity_test
// which rewrites the checked-in file in the source tree.
//
//===----------------------------------------------------------------------===//

#include "adt/Rng.h"
#include "core/Pipeline.h"
#include "driver/ResultCache.h"
#include "ir/Parser.h"
#include "workloads/MiBench.h"
#include "workloads/ProgramGen.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifndef DRA_SOURCE_DIR
#error "DRA_SOURCE_DIR must be defined by the build"
#endif

using namespace dra;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// A medium function drawn the way the benchmark corpus draws one: a
/// miBenchProfile shape grown to 320-360 instructions, trying seeds from
/// Rng(\p Seed). \p MoveHeavy raises the move share to 40 %.
Function drawMedium(const std::string &Profile, uint64_t Seed,
                    bool MoveHeavy, const std::string &Name) {
  ProgramProfile P = miBenchProfile(Profile);
  if (MoveHeavy)
    P.MovePct = 40;
  Rng R(Seed);
  return generateSizedProgram(Name, P, R, 320, 360);
}

/// The fixed corpus: every checked-in example plus a spread of generated
/// programs covering the shapes the allocator sees (pressure spikes, deep
/// loops, heavy move chains, medium functions). All deterministic.
std::vector<std::pair<std::string, Function>> buildCorpus() {
  std::vector<std::pair<std::string, Function>> Corpus;

  const char *Examples[] = {"branchy", "memsum", "poly", "pressure"};
  for (const char *Name : Examples) {
    std::string Path =
        std::string(DRA_SOURCE_DIR) + "/examples/dra/" + Name + ".dra";
    std::ifstream In(Path);
    EXPECT_TRUE(In.good()) << "cannot open " << Path;
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Err;
    auto F = parseFunction(SS.str(), &Err);
    EXPECT_TRUE(F.has_value()) << Path << ": " << Err;
    if (F)
      Corpus.emplace_back(Name, std::move(*F));
  }

  for (uint64_t Seed : {3u, 17u, 99u}) {
    ProgramProfile P;
    P.Seed = Seed;
    P.TopStatements = 10;
    P.BodyStatements = 6;
    Corpus.emplace_back("gen" + std::to_string(Seed),
                        generateProgram("gen" + std::to_string(Seed), P));
  }
  {
    // High-pressure profile: forces spill rounds in every scheme.
    ProgramProfile P;
    P.Seed = 42;
    P.PressureVars = 10;
    P.HotPct = 30;
    P.HotWidth = 11;
    P.TopStatements = 8;
    Corpus.emplace_back("genhot", generateProgram("genhot", P));
  }
  {
    // Move-heavy profile: exercises the coalesce worklists.
    ProgramProfile P;
    P.Seed = 7;
    P.MovePct = 40;
    P.TopStatements = 9;
    Corpus.emplace_back("genmove", generateProgram("genmove", P));
  }
  // Medium functions, where the coalescer probes most candidates and the
  // remap search runs long descents.
  Corpus.emplace_back("medjpeg", drawMedium("jpeg", 11, false, "medjpeg"));
  Corpus.emplace_back("medsusan", drawMedium("susan", 23, false, "medsusan"));
  Corpus.emplace_back("medmove", drawMedium("sha", 37, true, "medmove"));
  return Corpus;
}

const Scheme AllSchemes[] = {Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                             Scheme::Select, Scheme::Coalesce};

std::string goldenPath() {
  return std::string(DRA_SOURCE_DIR) + "/tests/data/golden_alloc_identity.txt";
}

/// Runs the whole matrix and returns "scheme function full-hash code-hash"
/// lines. The full hash covers the complete serialized result (every
/// counter and cost gauge, doubles as exact bit patterns); the code hash
/// covers only the final-code section ("\nfunc ..." onward) plus the
/// static counts — the paper-visible encoded output. The code hash is the
/// hard bit-identity criterion; the full hash additionally pins every
/// deterministic stage counter.
std::vector<std::string> computeLines() {
  std::vector<std::string> Lines;
  auto Corpus = buildCorpus();
  for (Scheme S : AllSchemes) {
    for (const auto &[Name, F] : Corpus) {
      PipelineConfig C;
      C.S = S;
      PipelineResult R = runPipeline(F, C);
      std::string Full = ResultCache::serializeResult(R);
      size_t CodeAt = Full.find("\ncounts ");
      EXPECT_NE(CodeAt, std::string::npos) << "serialized stream format";
      std::string Code =
          CodeAt == std::string::npos ? Full : Full.substr(CodeAt);
      char Buf[160];
      std::snprintf(Buf, sizeof Buf, "%s %s %016llx %016llx", schemeName(S),
                    Name.c_str(),
                    static_cast<unsigned long long>(fnv1a(Full)),
                    static_cast<unsigned long long>(fnv1a(Code)));
      Lines.push_back(Buf);
    }
  }
  return Lines;
}

TEST(AllocIdentity, GoldenCorpusAllSchemes) {
  std::vector<std::string> Lines = computeLines();

  if (std::getenv("DRA_REGEN_GOLDEN")) {
    std::ofstream Out(goldenPath());
    ASSERT_TRUE(Out.good()) << "cannot write " << goldenPath();
    for (const std::string &L : Lines)
      Out << L << "\n";
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::ifstream In(goldenPath());
  ASSERT_TRUE(In.good())
      << "missing " << goldenPath()
      << " (run with DRA_REGEN_GOLDEN=1 to create it)";
  // "scheme function" -> "fullhash codehash" (the last two fields).
  std::map<std::string, std::string> Golden;
  std::string Line;
  auto SplitHashes = [](const std::string &L) {
    size_t H2 = L.rfind(' ');
    size_t H1 = L.rfind(' ', H2 - 1);
    return std::pair<std::string, std::string>(L.substr(0, H1),
                                               L.substr(H1 + 1));
  };
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    ASSERT_GE(std::count(Line.begin(), Line.end(), ' '), 3)
        << "malformed golden line: " << Line;
    auto [Key, Hashes] = SplitHashes(Line);
    Golden[Key] = Hashes;
  }
  ASSERT_EQ(Golden.size(), Lines.size())
      << "golden file entry count mismatch — corpus changed without "
         "regenerating";

  for (const std::string &L : Lines) {
    auto [Key, Hashes] = SplitHashes(L);
    auto It = Golden.find(Key);
    ASSERT_NE(It, Golden.end()) << "no golden entry for '" << Key << "'";
    size_t Mid = Hashes.find(' ');
    size_t GoldMid = It->second.find(' ');
    // Hard criterion: the final code (and its static counts) is
    // byte-identical to the pre-rework allocator.
    EXPECT_EQ(It->second.substr(GoldMid + 1), Hashes.substr(Mid + 1))
        << Key << ": encoded output diverged from the pre-rework "
        << "allocator (bit-identity broken)";
    // Full-stream criterion: every stage counter and cost gauge matches
    // too (bit patterns of doubles included).
    EXPECT_EQ(It->second.substr(0, GoldMid), Hashes.substr(0, Mid))
        << Key << ": stage counters / cost gauges diverged from the "
        << "pre-rework allocator";
  }
}

/// The serialized stream itself must be stable run to run within one
/// build (guards against nondeterministic containers sneaking back in).
TEST(AllocIdentity, RepeatRunsBitIdentical) {
  auto Corpus = buildCorpus();
  for (Scheme S : {Scheme::Select, Scheme::Coalesce}) {
    const auto &[Name, F] = Corpus[3]; // pressure.dra: spills + moves
    PipelineConfig C;
    C.S = S;
    std::string A = ResultCache::serializeResult(runPipeline(F, C));
    std::string B = ResultCache::serializeResult(runPipeline(F, C));
    EXPECT_EQ(A, B) << schemeName(S) << " nondeterministic on " << Name;
  }
}

} // namespace
