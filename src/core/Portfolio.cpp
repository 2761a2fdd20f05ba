//===- core/Portfolio.cpp - Scheme-portfolio racing + chooser -------------===//

#include "core/Portfolio.h"

#include "core/Features.h"
#include "core/Pipeline.h"
#include "driver/Json.h"
#include "driver/Metrics.h"
#include "driver/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <sstream>

using namespace dra;

const char *dra::portfolioModeName(PortfolioMode M) {
  switch (M) {
  case PortfolioMode::Off:
    return "off";
  case PortfolioMode::Race:
    return "race";
  case PortfolioMode::Choose:
    return "choose";
  }
  return "?";
}

bool dra::parsePortfolioMode(const std::string &Name, PortfolioMode &Out) {
  if (Name == "off")
    Out = PortfolioMode::Off;
  else if (Name == "race")
    Out = PortfolioMode::Race;
  else if (Name == "choose")
    Out = PortfolioMode::Choose;
  else
    return false;
  return true;
}

std::vector<PortfolioArm> dra::defaultPortfolioArms() {
  // The paper's three differential schemes. Coalesce leads so the
  // strongest scheme wins cost ties under the lowest-index rule.
  return {{Scheme::Coalesce, 0}, {Scheme::Select, 0}, {Scheme::Remap, 0}};
}

std::vector<PortfolioArm> dra::resolvedPortfolioArms(const PortfolioConfig &PC) {
  return PC.Arms.empty() ? defaultPortfolioArms() : PC.Arms;
}

uint64_t dra::encodedCost(const PipelineResult &R) {
  uint64_t Spills = std::min<uint64_t>(R.SpillInsts, 0xFFFFFFFFu);
  uint64_t Slr = std::min<uint64_t>(R.SetLastRegs, 0xFFFFFFFFu);
  return (Spills << 32) | Slr;
}

//===----------------------------------------------------------------------===//
// Decision table
//===----------------------------------------------------------------------===//

static bool tableErr(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = "portfolio table: " + Msg;
  return false;
}

DecisionPrediction
DecisionTable::predict(const std::vector<double> &FeatureVector) const {
  DecisionPrediction P;
  if (Nodes.empty())
    return P;
  size_t I = 0;
  // valid() guarantees children strictly follow parents, so the walk
  // terminates in < Nodes.size() steps; the bound guards hand-built
  // tables that skipped validation.
  for (size_t Steps = 0; Steps != Nodes.size(); ++Steps) {
    const DecisionNode &N = Nodes[I];
    if (N.Feature < 0) {
      if (N.Arm < 0 || static_cast<size_t>(N.Arm) >= Arms.size())
        return P;
      P.Arm = N.Arm;
      P.Confidence = N.Confidence;
      P.Samples = N.Samples;
      return P;
    }
    if (static_cast<size_t>(N.Feature) >= FeatureVector.size())
      return P;
    int Next = FeatureVector[N.Feature] <= N.Threshold ? N.Left : N.Right;
    if (Next <= static_cast<int>(I) || static_cast<size_t>(Next) >= Nodes.size())
      return P;
    I = static_cast<size_t>(Next);
  }
  return P;
}

bool DecisionTable::valid(std::string *Err) const {
  if (Features != featureNames())
    return tableErr(Err, "feature schema does not match this build");
  if (Arms.empty())
    return tableErr(Err, "no arms");
  if (Nodes.empty())
    return tableErr(Err, "no nodes");
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const DecisionNode &N = Nodes[I];
    if (N.Feature < 0) {
      if (N.Arm < 0 || static_cast<size_t>(N.Arm) >= Arms.size())
        return tableErr(Err, "leaf arm index out of range");
      if (N.Confidence < 0 || N.Confidence > 1)
        return tableErr(Err, "leaf confidence outside [0, 1]");
    } else {
      if (static_cast<size_t>(N.Feature) >= Features.size())
        return tableErr(Err, "split feature index out of range");
      if (N.Left <= static_cast<int>(I) ||
          static_cast<size_t>(N.Left) >= Nodes.size() ||
          N.Right <= static_cast<int>(I) ||
          static_cast<size_t>(N.Right) >= Nodes.size())
        return tableErr(Err, "child node index must follow its parent");
    }
  }
  return true;
}

uint64_t DecisionTable::fingerprint() const {
  std::string Doc = toJson();
  uint64_t H = 1469598103934665603ull; // FNV-1a 64-bit offset basis
  for (unsigned char Ch : Doc) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  return H;
}

std::string DecisionTable::toJson() const {
  std::ostringstream OS;
  OS << "{\"schema\":\"portfolio-v1\",\"features\":[";
  for (size_t I = 0; I != Features.size(); ++I)
    OS << (I ? "," : "") << '"' << jsonEscape(Features[I]) << '"';
  OS << "],\"arms\":[";
  for (size_t I = 0; I != Arms.size(); ++I) {
    OS << (I ? "," : "") << "{\"scheme\":\"" << wireSchemeName(Arms[I].S)
       << "\",\"remap_starts\":" << Arms[I].RemapStarts << "}";
  }
  OS << "],\"nodes\":[";
  for (size_t I = 0; I != Nodes.size(); ++I) {
    const DecisionNode &N = Nodes[I];
    OS << (I ? "," : "");
    if (N.Feature < 0) {
      OS << "{\"arm\":" << N.Arm << ",\"confidence\":";
      writeJsonNumber(OS, N.Confidence);
      OS << ",\"samples\":" << N.Samples << "}";
    } else {
      OS << "{\"feature\":" << N.Feature << ",\"threshold\":";
      writeJsonNumber(OS, N.Threshold);
      OS << ",\"left\":" << N.Left << ",\"right\":" << N.Right << "}";
    }
  }
  OS << "]}";
  return OS.str();
}

/// Reads an integral JSON number field into \p Out; absent fields leave
/// \p Out untouched and report \p Required.
static bool readInt(const JsonValue &Obj, const char *Name, bool Required,
                    long long Min, long long Max, long long &Out,
                    std::string *Err) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return Required
               ? tableErr(Err, std::string("missing field '") + Name + "'")
               : true;
  if (F->K != JsonValue::Number || F->Num != static_cast<long long>(F->Num))
    return tableErr(Err, std::string("field '") + Name +
                             "' must be an integer");
  long long V = static_cast<long long>(F->Num);
  if (V < Min || V > Max)
    return tableErr(Err, std::string("field '") + Name + "' out of range");
  Out = V;
  return true;
}

bool DecisionTable::fromJson(const std::string &Text, DecisionTable &Out,
                             std::string *Err) {
  Out = DecisionTable();
  JsonValue V;
  if (!parseJson(Text, V, Err))
    return false;
  if (V.K != JsonValue::Object)
    return tableErr(Err, "top level must be an object");
  const JsonValue *Schema = V.field("schema");
  if (!Schema || Schema->K != JsonValue::String ||
      Schema->Str != "portfolio-v1")
    return tableErr(Err, "missing or unknown schema (want portfolio-v1)");

  const JsonValue *Features = V.field("features");
  if (!Features || Features->K != JsonValue::Array)
    return tableErr(Err, "'features' must be an array");
  for (const JsonValue &F : Features->Arr) {
    if (F.K != JsonValue::String)
      return tableErr(Err, "'features' entries must be strings");
    Out.Features.push_back(F.Str);
  }

  const JsonValue *Arms = V.field("arms");
  if (!Arms || Arms->K != JsonValue::Array)
    return tableErr(Err, "'arms' must be an array");
  for (const JsonValue &A : Arms->Arr) {
    if (A.K != JsonValue::Object)
      return tableErr(Err, "'arms' entries must be objects");
    const JsonValue *S = A.field("scheme");
    PortfolioArm Arm;
    if (!S || S->K != JsonValue::String ||
        !parseSchemeName(S->Str, Arm.S))
      return tableErr(Err, "arm 'scheme' must name a known scheme");
    long long Starts = 0;
    if (!readInt(A, "remap_starts", /*Required=*/false, 0, 1 << 20, Starts,
                 Err))
      return false;
    Arm.RemapStarts = static_cast<unsigned>(Starts);
    Out.Arms.push_back(Arm);
  }

  const JsonValue *Nodes = V.field("nodes");
  if (!Nodes || Nodes->K != JsonValue::Array)
    return tableErr(Err, "'nodes' must be an array");
  for (const JsonValue &NV : Nodes->Arr) {
    if (NV.K != JsonValue::Object)
      return tableErr(Err, "'nodes' entries must be objects");
    DecisionNode N;
    if (NV.field("feature")) {
      long long Feature = 0, Left = 0, Right = 0;
      if (!readInt(NV, "feature", true, 0, 1 << 20, Feature, Err) ||
          !readInt(NV, "left", true, 0, 1 << 20, Left, Err) ||
          !readInt(NV, "right", true, 0, 1 << 20, Right, Err))
        return false;
      const JsonValue *T = NV.field("threshold");
      if (!T || T->K != JsonValue::Number)
        return tableErr(Err, "split node needs a numeric 'threshold'");
      N.Feature = static_cast<int>(Feature);
      N.Threshold = T->Num;
      N.Left = static_cast<int>(Left);
      N.Right = static_cast<int>(Right);
    } else {
      long long Arm = 0, Samples = 0;
      if (!readInt(NV, "arm", true, 0, 1 << 20, Arm, Err) ||
          !readInt(NV, "samples", /*Required=*/false, 0, 1ll << 40, Samples,
                   Err))
        return false;
      const JsonValue *Conf = NV.field("confidence");
      if (Conf && Conf->K != JsonValue::Number)
        return tableErr(Err, "leaf 'confidence' must be a number");
      N.Arm = static_cast<int>(Arm);
      N.Confidence = Conf ? Conf->Num : 0;
      N.Samples = static_cast<unsigned>(Samples);
    }
    Out.Nodes.push_back(N);
  }

  return Out.valid(Err);
}

//===----------------------------------------------------------------------===//
// The race
//===----------------------------------------------------------------------===//

/// The concrete single-scheme config arm \p A runs with: \p C with the
/// arm's scheme and restart budget applied and the portfolio, cache,
/// metrics, and trace hooks stripped. Strips are what make the race
/// recursion-free (arms re-enter runPipeline with Mode Off) and
/// side-effect-free (losing arms leave no cache entries or metric
/// samples behind). The cache key hashes none of the stripped pointers,
/// so the winner's config keys identically to a direct request.
static PipelineConfig armConfig(const PipelineConfig &C,
                                const PortfolioArm &A) {
  PipelineConfig AC = C;
  AC.S = A.S;
  if (A.RemapStarts)
    AC.Remap.NumStarts = A.RemapStarts;
  AC.Portfolio = PortfolioConfig();
  AC.Cache = nullptr;
  AC.Metrics = nullptr;
  AC.Trace = nullptr;
  return AC;
}

static void flushChooseMetrics(MetricsRegistry *M, bool Confident) {
  if (!M)
    return;
  M->count(Confident ? "portfolio.chooser_hits" : "portfolio.chooser_races",
           1);
}

PipelineResult dra::runPortfolio(const Function &Src, const PipelineConfig &C,
                                 PipelineConfig *WinnerConfig,
                                 PortfolioOutcome *Outcome) {
  assert(C.Portfolio.Mode != PortfolioMode::Off &&
         "runPortfolio needs an active portfolio mode");
  const std::vector<PortfolioArm> Arms = resolvedPortfolioArms(C.Portfolio);
  MetricsRegistry *M = C.Portfolio.Metrics ? C.Portfolio.Metrics : C.Metrics;

  PortfolioOutcome Out;
  Out.ArmCosts.assign(Arms.size(), UINT64_MAX);

  // Chooser: map the table's predicted arm onto this config's arm list
  // by (scheme, restart-budget) equality; a prediction for an arm we are
  // not racing is unusable and falls back to the race.
  if (C.Portfolio.Mode == PortfolioMode::Choose && C.Portfolio.Table) {
    DecisionPrediction P =
        C.Portfolio.Table->predict(computeFeatures(Src).asVector());
    if (P.Arm >= 0) {
      const PortfolioArm &Predicted = C.Portfolio.Table->Arms[P.Arm];
      for (size_t I = 0; I != Arms.size(); ++I)
        if (Arms[I] == Predicted) {
          Out.PredictedArm = static_cast<int>(I);
          break;
        }
    }
    if (Out.PredictedArm >= 0 && P.Confidence >= C.Portfolio.MinConfidence) {
      Out.ChooserConfident = true;
      unsigned I = static_cast<unsigned>(Out.PredictedArm);
      PipelineConfig AC = armConfig(C, Arms[I]);
      PipelineResult R = runPipeline(Src, AC);
      Out.WinnerArm = I;
      Out.WinnerCost = encodedCost(R);
      Out.ArmCosts[I] = Out.WinnerCost;
      Out.ArmsRun = 1;
      flushChooseMetrics(M, /*Confident=*/true);
      if (WinnerConfig)
        *WinnerConfig = AC;
      if (Outcome)
        *Outcome = Out;
      return R;
    }
  }
  if (C.Portfolio.Mode == PortfolioMode::Choose) {
    Out.ChooserRaced = true;
    flushChooseMetrics(M, /*Confident=*/false);
  }

  // The race. Results land in an index-addressed array; the only shared
  // state is FirstZero, the lowest arm index known to have finished at
  // cost 0 (the global minimum). An arm is skipped only when a
  // lower-indexed arm already holds cost 0 — that arm beats or ties every
  // skipped arm and wins the tie by index, so skipping never changes the
  // committed winner, only how much work runs.
  std::vector<PipelineResult> Results(Arms.size());
  std::vector<char> Ran(Arms.size(), 0);
  std::atomic<unsigned> FirstZero{static_cast<unsigned>(Arms.size())};
  auto RunArm = [&](size_t I) {
    if (FirstZero.load(std::memory_order_acquire) < I)
      return; // cancelled: a lower-indexed arm already hit cost 0
    Results[I] = runPipeline(Src, armConfig(C, Arms[I]));
    Ran[I] = 1;
    if (encodedCost(Results[I]) == 0) {
      unsigned Cur = FirstZero.load(std::memory_order_relaxed);
      while (I < Cur && !FirstZero.compare_exchange_weak(
                            Cur, static_cast<unsigned>(I),
                            std::memory_order_acq_rel))
        ;
    }
  };

  unsigned Jobs = C.Portfolio.Jobs ? C.Portfolio.Jobs
                                   : static_cast<unsigned>(Arms.size());
  Jobs = std::min<unsigned>(Jobs, static_cast<unsigned>(Arms.size()));
  if (Jobs <= 1) {
    for (size_t I = 0; I != Arms.size(); ++I)
      RunArm(I);
  } else {
    // A transient pool per race: pools nest (the race inside a
    // BatchCompiler or server worker task), and a race is a handful of
    // long tasks, so pool setup cost is noise.
    ThreadPool Pool(Jobs);
    Pool.parallelFor(Arms.size(), RunArm);
  }

  // Fixed index-order reduction with strict < — lowest index wins ties.
  bool Any = false;
  unsigned Winner = 0;
  uint64_t Best = UINT64_MAX;
  for (size_t I = 0; I != Arms.size(); ++I) {
    if (!Ran[I]) {
      ++Out.ArmsCancelled;
      continue;
    }
    uint64_t Cost = encodedCost(Results[I]);
    Out.ArmCosts[I] = Cost;
    ++Out.ArmsRun;
    if (!Any || Cost < Best) {
      Any = true;
      Best = Cost;
      Winner = static_cast<unsigned>(I);
    }
  }
  assert(Any && "at least arm 0 always runs");
  Out.WinnerArm = Winner;
  Out.WinnerCost = Best;

  if (M) {
    MetricLabels ModeL{{"mode", portfolioModeName(C.Portfolio.Mode)}};
    M->count("portfolio.races", 1, ModeL);
    M->count("portfolio.arms_run", Out.ArmsRun, ModeL);
    M->count("portfolio.arms_cancelled", Out.ArmsCancelled, ModeL);
    M->count("portfolio.wins", 1,
             MetricLabels{{"scheme", schemeName(Arms[Winner].S)}});
    if (Out.ChooserRaced && Out.PredictedArm >= 0 &&
        static_cast<unsigned>(Out.PredictedArm) != Winner)
      M->count("portfolio.chooser_mispredicts", 1);
  }

  if (WinnerConfig)
    *WinnerConfig = armConfig(C, Arms[Winner]);
  if (Outcome)
    *Outcome = Out;
  return Results[Winner];
}
