//===- tests/pipeline_test.cpp - End-to-end pipeline tests ----------------===//

#include "core/Encoder.h"
#include "core/Pipeline.h"
#include "interp/Interpreter.h"
#include "workloads/MiBench.h"

#include <gtest/gtest.h>

using namespace dra;

namespace {

PipelineConfig fastConfig(Scheme S) {
  PipelineConfig C;
  C.S = S;
  C.BaselineK = 8;
  C.Enc = lowEndConfig(12);
  C.Remap.NumStarts = 30;
  return C;
}

} // namespace

/// Every scheme must preserve program semantics on every benchmark.
class PipelineSemantics
    : public ::testing::TestWithParam<std::tuple<std::string, Scheme>> {};

TEST_P(PipelineSemantics, FingerprintPreserved) {
  auto [Name, S] = GetParam();
  Function F = miBenchProgram(Name);
  ExecResult Before = interpret(F);
  PipelineResult R = runPipeline(F, fastConfig(S));
  std::string Err;
  ASSERT_TRUE(verifyFunction(R.F, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(R.F)), fingerprint(Before));
  EXPECT_EQ(R.NumInsts, R.F.numInsts());
  EXPECT_EQ(R.SpillInsts, R.F.numSpillInsts());
  EXPECT_EQ(R.SetLastRegs, R.F.numSetLastRegs());
  EXPECT_EQ(R.CodeBytes, 2 * R.NumInsts);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllSchemes, PipelineSemantics,
    ::testing::Combine(
        ::testing::Values("basicmath", "qsort", "dijkstra", "crc32",
                          "stringsearch"),
        ::testing::Values(Scheme::Baseline, Scheme::OSpill, Scheme::Remap,
                          Scheme::Select, Scheme::Coalesce)));

TEST(Pipeline, BaselineUsesDirectEncoding) {
  Function F = miBenchProgram("crc32");
  PipelineResult R = runPipeline(F, fastConfig(Scheme::Baseline));
  EXPECT_FALSE(R.DiffEncoded);
  EXPECT_EQ(R.SetLastRegs, 0u);
  EXPECT_EQ(R.F.NumRegs, 8u);
}

TEST(Pipeline, DifferentialSchemesAddressTwelveRegisters) {
  Function F = miBenchProgram("crc32");
  for (Scheme S : {Scheme::Remap, Scheme::Select, Scheme::Coalesce}) {
    PipelineResult R = runPipeline(F, fastConfig(S));
    EXPECT_TRUE(R.DiffEncoded);
    EXPECT_EQ(R.F.NumRegs, 12u) << schemeName(S);
    // The encoding must be decodable along all paths.
    std::string Err;
    EXPECT_TRUE(verifyDecodable(R.F, lowEndConfig(12), &Err))
        << schemeName(S) << ": " << Err;
  }
}

TEST(Pipeline, MoreRegistersMeanFewerSpills) {
  Function F = miBenchProgram("susan");
  PipelineResult Base = runPipeline(F, fastConfig(Scheme::Baseline));
  PipelineResult Sel = runPipeline(F, fastConfig(Scheme::Select));
  EXPECT_LT(Sel.SpillInsts, Base.SpillInsts);
}

TEST(Pipeline, SelectCostsNoMoreThanRemap) {
  // Approach 2 subsumes approach 1 (remapping runs as its post-pass), so
  // its set_last_reg count must not exceed remapping's.
  Function F = miBenchProgram("basicmath");
  PipelineResult Remap = runPipeline(F, fastConfig(Scheme::Remap));
  PipelineResult Sel = runPipeline(F, fastConfig(Scheme::Select));
  EXPECT_LE(Sel.SetLastRegs, Remap.SetLastRegs);
}

TEST(Pipeline, OSpillSpillsNoMoreThanBaseline) {
  Function F = miBenchProgram("susan");
  PipelineResult Base = runPipeline(F, fastConfig(Scheme::Baseline));
  PipelineResult OS = runPipeline(F, fastConfig(Scheme::OSpill));
  EXPECT_LE(OS.SpillInsts, Base.SpillInsts);
}

TEST(Pipeline, AdaptiveNeverLosesToBaselineEstimate) {
  // With AdaptiveEnable, the result is either the differential scheme (it
  // paid off) or the baseline (flagged as fallback).
  PipelineConfig C = fastConfig(Scheme::Select);
  C.AdaptiveEnable = true;
  Function F = miBenchProgram("crc32");
  PipelineResult R = runPipeline(F, C);
  if (R.AdaptiveFellBack) {
    EXPECT_FALSE(R.DiffEncoded);
    EXPECT_EQ(R.SetLastRegs, 0u);
  } else {
    EXPECT_TRUE(R.DiffEncoded);
  }
}

TEST(Pipeline, SchemeNames) {
  EXPECT_STREQ(schemeName(Scheme::Baseline), "baseline");
  EXPECT_STREQ(schemeName(Scheme::OSpill), "O-spill");
  EXPECT_STREQ(schemeName(Scheme::Remap), "remapping");
  EXPECT_STREQ(schemeName(Scheme::Select), "select");
  EXPECT_STREQ(schemeName(Scheme::Coalesce), "coalesce");
}

TEST(Pipeline, WireSchemeNamesRoundTrip) {
  const std::pair<Scheme, const char *> Wire[] = {
      {Scheme::Baseline, "baseline"}, {Scheme::OSpill, "ospill"},
      {Scheme::Remap, "remap"},       {Scheme::Select, "select"},
      {Scheme::Coalesce, "coalesce"}};
  for (const auto &[S, Name] : Wire) {
    SCOPED_TRACE(Name);
    EXPECT_STREQ(Name, wireSchemeName(S));
    Scheme Parsed = S == Scheme::Baseline ? Scheme::Coalesce
                                          : Scheme::Baseline;
    ASSERT_TRUE(parseSchemeName(Name, Parsed));
    EXPECT_EQ(S, Parsed);
  }
  // Display names, the portfolio's "auto", other case and "" are not
  // machine names.
  for (const char *Bad : {"O-spill", "remapping", "auto", "Coalesce", ""}) {
    SCOPED_TRACE(Bad);
    Scheme Untouched = Scheme::Select;
    EXPECT_FALSE(parseSchemeName(Bad, Untouched));
    EXPECT_EQ(Scheme::Select, Untouched);
  }
}

TEST(Pipeline, StatsPercentagesConsistent) {
  Function F = miBenchProgram("dijkstra");
  PipelineResult R = runPipeline(F, fastConfig(Scheme::Coalesce));
  EXPECT_NEAR(R.spillPercent(),
              100.0 * double(R.SpillInsts) / double(R.NumInsts), 1e-9);
  EXPECT_NEAR(R.setLastPercent(),
              100.0 * double(R.SetLastRegs) / double(R.NumInsts), 1e-9);
}

/// Invariants must hold across the whole encoding-parameter plane, not
/// just the paper's RegN = 12 point.
class PipelineConfigSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::string>> {};

TEST_P(PipelineConfigSweep, SelectPipelineSoundForAnyRegN) {
  auto [RegN, Name] = GetParam();
  Function F = miBenchProgram(Name);
  ExecResult Before = interpret(F);
  PipelineConfig C;
  C.S = Scheme::Select;
  C.BaselineK = 8;
  C.Enc = lowEndConfig(RegN);
  C.Remap.NumStarts = 20;
  PipelineResult R = runPipeline(F, C);
  EXPECT_EQ(R.F.NumRegs, RegN);
  std::string Err;
  ASSERT_TRUE(verifyFunction(R.F, &Err)) << Err;
  ASSERT_TRUE(verifyDecodable(R.F, C.Enc, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(R.F)), fingerprint(Before));
}

INSTANTIATE_TEST_SUITE_P(
    RegNPlane, PipelineConfigSweep,
    ::testing::Combine(::testing::Values(9u, 10u, 12u, 14u, 16u),
                       ::testing::Values("crc32", "stringsearch")));

TEST(Pipeline, DstFirstOrderAlsoDecodable) {
  Function F = miBenchProgram("crc32");
  ExecResult Before = interpret(F);
  PipelineConfig C;
  C.S = Scheme::Select;
  C.Enc = lowEndConfig(12);
  C.Enc.Order = AccessOrder::DstFirst;
  C.Remap.NumStarts = 20;
  PipelineResult R = runPipeline(F, C);
  std::string Err;
  ASSERT_TRUE(verifyDecodable(R.F, C.Enc, &Err)) << Err;
  EXPECT_EQ(fingerprint(interpret(R.F)), fingerprint(Before));
}
