//===- tests/cache_test.cpp - Content-addressed result cache tests --------===//
//
// Covers the ResultCache tentpole: key derivation (content addressing,
// config sensitivity, the deliberate Portfolio.Jobs exclusion), payload
// round trips, the sharded LRU memory tier, the dra-cache-v1 disk tier's
// corruption handling (truncate / bit-flip / version-bump must read as
// quarantined misses, never as errors or wrong results), hit
// verification, and the "cached == fresh" invariant through runPipeline
// and a parallel BatchCompiler.
//
//===----------------------------------------------------------------------===//

#include "driver/ResultCache.h"

#include "core/Features.h"
#include "core/Portfolio.h"
#include "driver/BatchCompiler.h"
#include "interp/Interpreter.h"
#include "ir/IRBuilder.h"
#include "workloads/ProgramGen.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace dra;
namespace fs = std::filesystem;

namespace {

/// Fresh empty scratch directory under the system temp dir.
std::string freshDir(const std::string &Name) {
  fs::path P = fs::temp_directory_path() / "dra_cache_test" / Name;
  fs::remove_all(P);
  fs::create_directories(P);
  return P.string();
}

/// Small deterministic program with some register pressure.
Function testProgram(uint64_t Seed) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = 6;
  P.TopStatements = 6;
  P.MaxLoopDepth = 1;
  P.BodyStatements = 4;
  P.ExprWidth = 3;
  P.TripMin = 2;
  P.TripMax = 4;
  P.OuterTrip = 3;
  P.MemWords = 32;
  P.LoopPct = 20;
  P.IfPct = 15;
  P.MemPct = 20;
  P.MovePct = 15;
  return generateProgram("cache" + std::to_string(Seed), P);
}

/// Tiny straight-line function (sub-kilobyte payload) for LRU tests.
Function tinyProgram(int64_t Tag) {
  Function F;
  F.NumRegs = 12;
  F.MemWords = 4;
  F.makeBlock();
  IRBuilder B(F);
  B.setBlock(0);
  B.createMovImmTo(0, Tag);
  B.createRet(0);
  F.recomputeCFG();
  return F;
}

PipelineConfig smallConfig(Scheme S = Scheme::Coalesce) {
  PipelineConfig C;
  C.S = S;
  C.Remap.NumStarts = 10;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

TEST(CacheKey, ContentAddressedIgnoresName) {
  Function A = testProgram(1);
  Function B = A;
  B.Name = "completely-different-name";
  PipelineConfig C = smallConfig();
  EXPECT_EQ(ResultCache::cacheKey(A, C), ResultCache::cacheKey(B, C));
}

TEST(CacheKey, BodyAndConfigChangesChangeTheKey) {
  Function A = testProgram(1);
  PipelineConfig C = smallConfig();
  uint64_t Base = ResultCache::cacheKey(A, C);

  Function B = A;
  B.Blocks[0].Insts[0].Imm ^= 1;
  EXPECT_NE(ResultCache::cacheKey(B, C), Base);

  PipelineConfig C2 = C;
  C2.S = Scheme::Remap;
  EXPECT_NE(ResultCache::cacheKey(A, C2), Base);
  C2 = C;
  C2.Enc.DiffN -= 1;
  EXPECT_NE(ResultCache::cacheKey(A, C2), Base);
  C2 = C;
  C2.Remap.NumStarts += 1;
  EXPECT_NE(ResultCache::cacheKey(A, C2), Base);
  C2 = C;
  C2.Remap.Seed ^= 1;
  EXPECT_NE(ResultCache::cacheKey(A, C2), Base);
}

TEST(CacheKey, PortfolioConfigJoinsTheKeyButJobsDoesNot) {
  Function A = testProgram(1);
  PipelineConfig C = smallConfig();
  uint64_t Off = ResultCache::cacheKey(A, C);

  // Turning the race on is a different request.
  PipelineConfig Race = C;
  Race.Portfolio.Mode = PortfolioMode::Race;
  uint64_t RaceKey = ResultCache::cacheKey(A, Race);
  EXPECT_NE(RaceKey, Off);

  // Empty arms means defaultPortfolioArms(): spelling the default out
  // explicitly must hash identically, a different arm set must not.
  PipelineConfig Explicit = Race;
  Explicit.Portfolio.Arms = defaultPortfolioArms();
  EXPECT_EQ(ResultCache::cacheKey(A, Explicit), RaceKey);
  PipelineConfig OtherArms = Race;
  OtherArms.Portfolio.Arms = {{Scheme::Remap, 0}, {Scheme::Select, 0}};
  EXPECT_NE(ResultCache::cacheKey(A, OtherArms), RaceKey);
  PipelineConfig OtherStarts = Race;
  OtherStarts.Portfolio.Arms = defaultPortfolioArms();
  OtherStarts.Portfolio.Arms[2].RemapStarts = 50;
  EXPECT_NE(ResultCache::cacheKey(A, OtherStarts), RaceKey);

  // Jobs is a wall-clock knob with bit-identical results — excluded, so
  // a 1-worker and an 8-worker race share entries.
  PipelineConfig Jobs = Race;
  Jobs.Portfolio.Jobs = 8;
  EXPECT_EQ(ResultCache::cacheKey(A, Jobs), RaceKey);

  // Choose mode adds the chooser knobs: mode, threshold, and the loaded
  // table's content fingerprint all shift the key.
  PipelineConfig Choose = Race;
  Choose.Portfolio.Mode = PortfolioMode::Choose;
  uint64_t ChooseKey = ResultCache::cacheKey(A, Choose);
  EXPECT_NE(ChooseKey, RaceKey);
  PipelineConfig Conf = Choose;
  Conf.Portfolio.MinConfidence = 0.5;
  EXPECT_NE(ResultCache::cacheKey(A, Conf), ChooseKey);

  DecisionTable T;
  T.Features = featureNames();
  T.Arms = defaultPortfolioArms();
  DecisionNode Leaf;
  Leaf.Feature = -1;
  Leaf.Arm = 0;
  Leaf.Confidence = 1.0;
  T.Nodes.push_back(Leaf);
  PipelineConfig WithTable = Choose;
  WithTable.Portfolio.Table = &T;
  uint64_t TableKey = ResultCache::cacheKey(A, WithTable);
  EXPECT_NE(TableKey, ChooseKey);
  DecisionTable T2 = T;
  T2.Nodes[0].Arm = 1;
  PipelineConfig WithTable2 = Choose;
  WithTable2.Portfolio.Table = &T2;
  EXPECT_NE(ResultCache::cacheKey(A, WithTable2), TableKey);
}

//===----------------------------------------------------------------------===//
// Payload round trip
//===----------------------------------------------------------------------===//

TEST(CachePayload, SerializeRoundTripsPipelineResult) {
  Function P = testProgram(2);
  PipelineResult R = runPipeline(P, smallConfig());

  std::string Payload = ResultCache::serializeResult(R);
  PipelineResult Out;
  ASSERT_TRUE(ResultCache::deserializeResult(Payload, Out));

  // The machine code and every stage counter must survive; the strongest
  // check is that re-serialization is byte-identical (what the verify
  // pass compares).
  EXPECT_EQ(ResultCache::serializeResult(Out), Payload);
  Out.F.Name = R.F.Name; // Names travel outside the payload.
  EXPECT_EQ(printFunction(Out.F), printFunction(R.F));
  EXPECT_EQ(Out.NumInsts, R.NumInsts);
  EXPECT_EQ(Out.CodeBytes, R.CodeBytes);
  EXPECT_EQ(Out.SetLastRegs, R.SetLastRegs);
  EXPECT_EQ(Out.Remap.Perm, R.Remap.Perm);
  EXPECT_EQ(Out.Remap.CostAfter, R.Remap.CostAfter);
  EXPECT_EQ(Out.Coalesce.FinalAdjCost, R.Coalesce.FinalAdjCost);
  EXPECT_EQ(Out.Coalesce.OracleCalls, R.Coalesce.OracleCalls);
  EXPECT_EQ(Out.DiffEncoded, R.DiffEncoded);
}

TEST(CachePayload, DeserializeRejectsMalformedInput) {
  Function P = testProgram(2);
  PipelineResult R = runPipeline(P, smallConfig());
  std::string Good = ResultCache::serializeResult(R);

  PipelineResult Out;
  EXPECT_FALSE(ResultCache::deserializeResult("", Out));
  EXPECT_FALSE(ResultCache::deserializeResult("garbage", Out));
  // Every truncation point must fail cleanly, never crash.
  for (size_t Len : {Good.size() / 4, Good.size() / 2, Good.size() - 4})
    EXPECT_FALSE(ResultCache::deserializeResult(Good.substr(0, Len), Out));
  // A non-numeric token in the middle.
  std::string Bad = Good;
  Bad.replace(Bad.find("counts ") + 7, 1, "x");
  EXPECT_FALSE(ResultCache::deserializeResult(Bad, Out));
}

//===----------------------------------------------------------------------===//
// Memory tier
//===----------------------------------------------------------------------===//

TEST(CacheMemTier, HitReplaysBitIdenticalResult) {
  Function P = testProgram(3);
  ResultCache Cache;
  PipelineConfig C = smallConfig();
  C.Cache = &Cache;

  PipelineResult Cold = runPipeline(P, C);
  PipelineResult Warm = runPipeline(P, C);
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemHits, 1u);
  EXPECT_EQ(S.Stores, 1u);

  EXPECT_EQ(printFunction(Warm.F), printFunction(Cold.F));
  EXPECT_EQ(ResultCache::serializeResult(Warm),
            ResultCache::serializeResult(Cold));
  EXPECT_EQ(fingerprint(interpret(Warm.F)), fingerprint(interpret(Cold.F)));
}

TEST(CacheMemTier, LruEvictsWithinByteBudget) {
  ResultCacheOptions O;
  O.Shards = 1;
  O.MemBudgetBytes = 2048;
  ResultCache Cache(O);
  PipelineConfig C = smallConfig(Scheme::Remap);

  // Tiny handcrafted results so several fit before the budget trips.
  for (int I = 0; I != 16; ++I) {
    Function F = tinyProgram(I);
    PipelineResult R;
    R.F = F;
    Cache.store(F, C, R);
  }
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.Stores, 16u);
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_LE(S.Bytes, O.MemBudgetBytes);

  // The most recent key must still be resident; the oldest must be gone.
  PipelineResult Out;
  const char *Tier = nullptr;
  EXPECT_TRUE(Cache.lookupTiered(tinyProgram(15), C, Out, &Tier));
  EXPECT_FALSE(Cache.lookupTiered(tinyProgram(0), C, Out, &Tier));
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

TEST(CacheDiskTier, PersistsAcrossInstances) {
  std::string Dir = freshDir("persist");
  Function P = testProgram(4);
  PipelineConfig C = smallConfig();

  ResultCacheOptions O;
  O.DiskDir = Dir;
  PipelineResult Cold;
  {
    ResultCache Writer(O);
    C.Cache = &Writer;
    Cold = runPipeline(P, C);
    EXPECT_EQ(Writer.stats().Stores, 1u);
  }
  ResultCache Reader(O);
  C.Cache = &Reader;
  PipelineResult Warm = runPipeline(P, C);
  ResultCacheStats S = Reader.stats();
  EXPECT_EQ(S.DiskHits, 1u);
  EXPECT_EQ(S.Misses, 0u);
  EXPECT_EQ(printFunction(Warm.F), printFunction(Cold.F));

  // The disk hit was promoted: a second warm lookup is a memory hit.
  runPipeline(P, C);
  EXPECT_EQ(Reader.stats().MemHits, 1u);
}

TEST(CacheDiskTier, CorruptEntriesQuarantineAsMisses) {
  std::string Dir = freshDir("corrupt");
  PipelineConfig C = smallConfig();
  std::vector<Function> Programs = {testProgram(10), testProgram(11),
                                    testProgram(12)};
  std::vector<PipelineResult> Cold;
  {
    ResultCacheOptions O;
    O.DiskDir = Dir;
    ResultCache Writer(O);
    C.Cache = &Writer;
    for (const Function &P : Programs)
      Cold.push_back(runPipeline(P, C));
  }

  // Corrupt all three stored entries three different ways.
  std::string Paths[3];
  for (int I = 0; I != 3; ++I)
    Paths[I] = ResultCache::entryPath(Dir, ResultCache::cacheKey(
                                               Programs[static_cast<size_t>(I)], C));
  // 1: truncate mid-payload.
  fs::resize_file(Paths[0], fs::file_size(Paths[0]) / 2);
  // 2: flip one payload byte (header intact, checksum now wrong).
  {
    std::fstream F(Paths[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-10, std::ios::end);
    char B;
    F.get(B);
    F.seekp(-10, std::ios::end);
    F.put(static_cast<char>(B ^ 0x40));
  }
  // 3: bump the format version line.
  {
    std::ifstream In(Paths[2], std::ios::binary);
    std::string Data((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>{});
    In.close();
    Data.replace(0, Data.find('\n'), "dra-cache-v999");
    std::ofstream Out(Paths[2], std::ios::binary | std::ios::trunc);
    Out << Data;
  }

  // Every lookup must read as a miss (then recompile correctly), never
  // crash, never serve a wrong result.
  ResultCacheOptions O;
  O.DiskDir = Dir;
  ResultCache Cache(O);
  C.Cache = &Cache;
  for (size_t I = 0; I != Programs.size(); ++I) {
    PipelineResult R = runPipeline(Programs[I], C);
    EXPECT_EQ(printFunction(R.F), printFunction(Cold[I].F));
  }
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.LoadErrors, 3u);
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Hits, 0u);

  // The bad files moved to quarantine/ and were re-stored cleanly.
  size_t Quarantined = 0;
  for (const auto &E : fs::directory_iterator(fs::path(Dir) / "quarantine"))
    Quarantined += E.is_regular_file();
  EXPECT_EQ(Quarantined, 3u);
  ResultCache Fresh(O);
  C.Cache = &Fresh;
  for (const Function &P : Programs)
    runPipeline(P, C);
  EXPECT_EQ(Fresh.stats().DiskHits, 3u);
  EXPECT_EQ(Fresh.stats().LoadErrors, 0u);
}

TEST(CacheDiskTier, UndecodableEntryIsRejectedBeforePromotion) {
  std::string Dir = freshDir("undecodable");
  Function P = testProgram(13);
  PipelineConfig C = smallConfig();
  ResultCacheOptions O;
  O.DiskDir = Dir;
  {
    // Planted under P's key with a valid header and checksum, but the
    // payload does not decode: an instruction names a block the function
    // does not have.
    PipelineResult Bad;
    Bad.F = tinyProgram(1);
    Bad.F.Blocks[0].Insts[0].Target0 = 5;
    PipelineResult Scratch;
    ASSERT_FALSE(ResultCache::deserializeResult(
        ResultCache::serializeResult(Bad), Scratch));
    ResultCache Writer(O);
    Writer.store(P, C, Bad);
  }

  ResultCache Cache(O);
  C.Cache = &Cache;
  PipelineResult Fresh = runPipeline(P, C);
  for (int I = 0; I != 3; ++I)
    runPipeline(P, C);
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.LoadErrors, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemHits, 3u);

  // The memory tier serves the recompiled bytes.
  std::string Payload;
  const char *Tier = nullptr;
  ASSERT_TRUE(Cache.lookupPayload(P, C, Payload, &Tier));
  EXPECT_STREQ(Tier, "mem");
  EXPECT_EQ(Payload, ResultCache::serializeResult(Fresh));
}

//===----------------------------------------------------------------------===//
// Hit verification
//===----------------------------------------------------------------------===//

TEST(CacheVerify, CleanHitsVerifyWithZeroMismatches) {
  Function P = testProgram(5);
  ResultCacheOptions O;
  O.VerifyFraction = 1.0;
  ResultCache Cache(O);
  PipelineConfig C = smallConfig();
  C.Cache = &Cache;

  PipelineResult Cold = runPipeline(P, C);
  PipelineResult Warm = runPipeline(P, C); // Hit hijacked into a recompile.
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.VerifyRecompiles, 1u);
  EXPECT_EQ(S.VerifyMismatches, 0u);
  EXPECT_EQ(S.Hits, 0u); // The verified hit is accounted as a miss.
  EXPECT_EQ(printFunction(Warm.F), printFunction(Cold.F));
}

TEST(CacheVerify, DetectsTamperedEntry) {
  Function P = testProgram(6);
  PipelineConfig C = smallConfig();
  PipelineResult R = runPipeline(P, C);

  // Plant a subtly-wrong result under the true key (valid header and
  // checksum — only byte-compare verification can catch this).
  std::string Dir = freshDir("tamper");
  ResultCacheOptions O;
  O.DiskDir = Dir;
  {
    ResultCache Writer(O);
    PipelineResult Tampered = R;
    Tampered.CodeBytes += 2;
    Writer.store(P, C, Tampered);
  }

  O.VerifyFraction = 1.0;
  ResultCache Cache(O);
  C.Cache = &Cache;
  PipelineResult Out = runPipeline(P, C);
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.VerifyRecompiles, 1u);
  EXPECT_EQ(S.VerifyMismatches, 1u);
  // The caller still gets the fresh (correct) result.
  EXPECT_EQ(Out.CodeBytes, R.CodeBytes);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(CacheMetrics, FlushEmitsEverySeriesEvenAtZero) {
  ResultCache Cache;
  MetricsRegistry Reg;
  Cache.flushMetrics(Reg);
  const char *Expected[] = {
      "cache.hits",        "cache.hits_mem",   "cache.hits_disk",
      "cache.misses",      "cache.stores",     "cache.evictions",
      "cache.load_errors", "cache.verify_recompiles",
      "cache.verify_mismatches"};
  auto Counters = Reg.counters();
  for (const char *Name : Expected) {
    bool Found = false;
    for (const auto &CS : Counters)
      if (CS.Name == Name) {
        Found = true;
        EXPECT_EQ(CS.Value, 0.0) << Name;
      }
    EXPECT_TRUE(Found) << Name << " missing — dra-stats --fail-on gates "
                                  "would reject the file";
  }
}

TEST(CacheMetrics, HitLatencyHistogramRecorded) {
  Function P = testProgram(7);
  ResultCache Cache;
  MetricsRegistry Reg;
  Cache.setMetrics(&Reg);
  PipelineConfig C = smallConfig();
  C.Cache = &Cache;
  runPipeline(P, C);
  runPipeline(P, C);
  bool Found = false;
  for (const auto &H : Reg.histograms())
    if (H.Name == "cache.hit_us") {
      Found = true;
      EXPECT_EQ(H.Count, 1u);
    }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Portfolio (scheme=auto) caching
//===----------------------------------------------------------------------===//

TEST(CachePortfolio, WarmRaceHitIsBitIdenticalAndTierLabeled) {
  Function P = testProgram(8);
  ResultCache Cache;
  MetricsRegistry Reg;
  Cache.setMetrics(&Reg);
  PipelineConfig C = smallConfig();
  C.Portfolio.Mode = PortfolioMode::Race;
  C.Portfolio.Jobs = 2;
  C.Cache = &Cache;

  PipelineResult Cold = runPipeline(P, C);
  PipelineResult Warm = runPipeline(P, C);
  ResultCacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.MemHits, 1u);
  // One cold race stores twice: under the portfolio key and under the
  // winning arm's concrete single-scheme key.
  EXPECT_EQ(S.Stores, 2u);
  EXPECT_EQ(ResultCache::serializeResult(Warm),
            ResultCache::serializeResult(Cold));

  // The warm hit is tier-labeled in the latency histogram.
  bool Found = false;
  for (const auto &H : Reg.histograms())
    if (H.Name == "cache.hit_us")
      for (const auto &[K, V] : H.Labels.entries())
        if (K == "tier" && V == "mem")
          Found = true;
  EXPECT_TRUE(Found) << "warm auto hit missing cache.hit_us{tier=mem}";
}

TEST(CachePortfolio, WinnerDoubleStoreServesDirectSchemeRequests) {
  Function P = testProgram(9);
  ResultCache Cache;
  PipelineConfig C = smallConfig();
  C.Portfolio.Mode = PortfolioMode::Race;
  C.Cache = &Cache;

  PortfolioOutcome Out;
  PipelineConfig WinnerCfg;
  // Race once through runPipeline (which does the double store), and
  // learn the winner via a cache-less rerun of the same race.
  PipelineResult Raced = runPipeline(P, C);
  PipelineConfig NoCache = C;
  NoCache.Cache = nullptr;
  runPortfolio(P, NoCache, &WinnerCfg, &Out);
  ASSERT_EQ(Cache.stats().Stores, 2u);

  // A direct request for the winning scheme (portfolio off) must hit the
  // stored entry, not recompile — and replay the raced bytes.
  WinnerCfg.Cache = &Cache;
  PipelineResult Direct = runPipeline(P, WinnerCfg);
  EXPECT_EQ(Cache.stats().MemHits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(ResultCache::serializeResult(Direct),
            ResultCache::serializeResult(Raced));

  // A *losing* arm's key must not have been populated.
  std::vector<PortfolioArm> Arms = resolvedPortfolioArms(C.Portfolio);
  unsigned DirectMisses = 0;
  for (size_t A = 0; A != Arms.size(); ++A) {
    if (A == Out.WinnerArm)
      continue;
    PipelineConfig AC = C;
    AC.Portfolio = PortfolioConfig();
    AC.S = Arms[A].S;
    if (Arms[A].RemapStarts != 0)
      AC.Remap.NumStarts = Arms[A].RemapStarts;
    PipelineResult R;
    const char *Tier = nullptr;
    if (!Cache.lookupTiered(P, AC, R, &Tier))
      ++DirectMisses;
  }
  EXPECT_EQ(DirectMisses, Arms.size() - 1);
}

//===----------------------------------------------------------------------===//
// Concurrent batch integration
//===----------------------------------------------------------------------===//

TEST(CacheBatch, WarmParallelBatchIsBitIdenticalToCold) {
  std::vector<Function> Programs;
  for (uint64_t S = 20; S != 28; ++S)
    Programs.push_back(testProgram(S));
  PipelineConfig C = smallConfig();

  ResultCache Cache;
  BatchOptions BO;
  BO.Jobs = 4;
  BO.Cache = &Cache;
  BatchCompiler Batch(BO);

  std::vector<PipelineResult> Cold = Batch.run(Programs, C);
  EXPECT_EQ(Cache.stats().Misses, Programs.size());
  std::vector<PipelineResult> Warm = Batch.run(Programs, C);
  EXPECT_EQ(Cache.stats().Hits, Programs.size());

  // Warm parallel results must match cold ones entry for entry, and both
  // must match an uncached serial reference.
  BatchCompiler Ref{BatchOptions{}};
  std::vector<PipelineResult> Fresh = Ref.run(Programs, C);
  for (size_t I = 0; I != Programs.size(); ++I) {
    EXPECT_EQ(ResultCache::serializeResult(Warm[I]),
              ResultCache::serializeResult(Cold[I]));
    EXPECT_EQ(printFunction(Warm[I].F), printFunction(Fresh[I].F));
  }
}
