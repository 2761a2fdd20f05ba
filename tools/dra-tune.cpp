//===- tools/dra-tune.cpp - Offline portfolio chooser trainer -------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Fits the scheme-portfolio decision table (core/Portfolio.h) from a
// training dump produced by `dra-batch --portfolio-train`. The model is a
// small axis-aligned decision tree over the per-function feature vector
// (core/Features.h), grown greedily: each node keeps the arm with the
// lowest total encoded cost over its samples, and splits only when some
// feature threshold strictly lowers the summed best-arm cost of the two
// children. Everything is deterministic — ties break toward the lowest
// arm index, lowest feature index, lowest threshold — so retraining on
// the same dump reproduces the same table byte for byte.
//
// The output is a portfolio-v1 JSON table for `dra-server
// --portfolio=choose` / `dra-batch --portfolio-table`. `--metrics-out`
// additionally writes the training-set evaluation (dra-metrics-v1:
// portfolio.mispredict_rate gauge + portfolio.train_samples counter) for
// CI gating with dra-stats.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "core/Portfolio.h"
#include "driver/Json.h"
#include "driver/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-tune --train=FILE --out=FILE [options]\n"
    "\n"
    "Fits a portfolio-v1 decision table from a portfolio-train-v1 dump\n"
    "(dra-batch --portfolio-train). The tree is grown greedily on total\n"
    "encoded cost and is fully deterministic: the same dump always\n"
    "produces the same table.\n"
    "\n"
    "options:\n"
    "  --train=FILE       portfolio-train-v1 training dump (required)\n"
    "  --out=FILE         portfolio-v1 decision table to write (required)\n"
    "  --metrics-out=FILE write the training-set evaluation\n"
    "                     (portfolio.mispredict_rate gauge +\n"
    "                     portfolio.train_samples) as dra-metrics-v1;\n"
    "                     gate regressions with dra-stats --fail-on\n"
    "  --max-depth=N      maximum tree depth; 0 = a single leaf\n"
    "                     (default 3)\n"
    "  --min-leaf=N       minimum samples per leaf (default 2)\n"
    "  --help             show this text\n"
    "\n"
    "exit status: 0 on success, 1 when the dump cannot be read or the\n"
    "fitted table fails validation, 2 on a command-line error.\n";

struct Options {
  std::string Train;
  std::string Out;
  std::string MetricsOut;
  unsigned MaxDepth = 3;
  unsigned MinLeaf = 2;
  bool Help = false;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (const char *V = Value("--train=")) {
      O.Train = V;
    } else if (const char *V = Value("--out=")) {
      O.Out = V;
    } else if (const char *V = Value("--metrics-out=")) {
      O.MetricsOut = V;
    } else if (const char *V = Value("--max-depth=")) {
      if (!cli::parseUnsigned("--max-depth", V, O.MaxDepth))
        return false;
    } else if (const char *V = Value("--min-leaf=")) {
      if (!cli::parseUnsigned("--min-leaf", V, O.MinLeaf))
        return false;
      if (O.MinLeaf == 0) {
        std::fprintf(stderr, "error: --min-leaf must be >= 1\n");
        return false;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      O.Help = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   Arg.c_str());
      return false;
    }
  }
  return true;
}

/// One training sample: a feature vector plus the measured encoded cost
/// of every arm on that function.
struct Sample {
  std::string Function;
  std::vector<double> Features;
  std::vector<uint64_t> Costs;
  size_t BestArm = 0; ///< argmin over Costs, lowest index on ties.
};

struct TrainingSet {
  std::vector<std::string> Features;
  std::vector<PortfolioArm> Arms;
  std::vector<Sample> Samples;
};

bool loadErr(const std::string &File, const std::string &Msg,
             std::string *Err) {
  if (Err)
    *Err = File + ": " + Msg;
  return false;
}

/// Reads a portfolio-train-v1 dump. Strict: schema tag, parallel array
/// lengths, and cost/feature arity are all checked so a truncated or
/// hand-edited dump fails loudly instead of training a skewed table.
bool loadTrainingSet(const std::string &File, TrainingSet &TS,
                     std::string *Err) {
  std::ifstream In(File, std::ios::binary);
  if (!In)
    return loadErr(File, "cannot open", Err);
  std::string Text(std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>{});
  JsonValue Doc;
  std::string PErr;
  if (!parseJson(Text, Doc, &PErr))
    return loadErr(File, PErr, Err);
  if (Doc.K != JsonValue::Object)
    return loadErr(File, "top level is not an object", Err);
  const JsonValue *Schema = Doc.field("schema");
  if (!Schema || Schema->K != JsonValue::String ||
      Schema->Str != "portfolio-train-v1")
    return loadErr(File, "missing schema tag \"portfolio-train-v1\"", Err);

  const JsonValue *Feat = Doc.field("features");
  if (!Feat || Feat->K != JsonValue::Array || Feat->Arr.empty())
    return loadErr(File, "missing \"features\" array", Err);
  for (const JsonValue &V : Feat->Arr) {
    if (V.K != JsonValue::String)
      return loadErr(File, "non-string feature name", Err);
    TS.Features.push_back(V.Str);
  }

  const JsonValue *Arms = Doc.field("arms");
  if (!Arms || Arms->K != JsonValue::Array || Arms->Arr.empty())
    return loadErr(File, "missing \"arms\" array", Err);
  for (const JsonValue &V : Arms->Arr) {
    if (V.K != JsonValue::Object)
      return loadErr(File, "arm is not an object", Err);
    const JsonValue *S = V.field("scheme");
    PortfolioArm A;
    if (!S || S->K != JsonValue::String ||
        !parseSchemeName(S->Str, A.S))
      return loadErr(File, "arm has no valid \"scheme\"", Err);
    if (const JsonValue *RS = V.field("remap_starts")) {
      if (RS->K != JsonValue::Number || RS->Num < 0)
        return loadErr(File, "arm \"remap_starts\" is not a number", Err);
      A.RemapStarts = static_cast<unsigned>(RS->Num);
    }
    TS.Arms.push_back(A);
  }

  const JsonValue *Samples = Doc.field("samples");
  if (!Samples || Samples->K != JsonValue::Array)
    return loadErr(File, "missing \"samples\" array", Err);
  for (const JsonValue &V : Samples->Arr) {
    if (V.K != JsonValue::Object)
      return loadErr(File, "sample is not an object", Err);
    Sample S;
    if (const JsonValue *N = V.field("function"))
      if (N->K == JsonValue::String)
        S.Function = N->Str;
    const JsonValue *F = V.field("features");
    if (!F || F->K != JsonValue::Array || F->Arr.size() != TS.Features.size())
      return loadErr(File, "sample \"features\" arity mismatch", Err);
    for (const JsonValue &X : F->Arr) {
      if (X.K != JsonValue::Number)
        return loadErr(File, "non-numeric feature value", Err);
      S.Features.push_back(X.Num);
    }
    const JsonValue *C = V.field("costs");
    if (!C || C->K != JsonValue::Array || C->Arr.size() != TS.Arms.size())
      return loadErr(File, "sample \"costs\" arity mismatch", Err);
    for (const JsonValue &X : C->Arr) {
      if (X.K != JsonValue::Number || X.Num < 0)
        return loadErr(File, "non-numeric cost value", Err);
      S.Costs.push_back(static_cast<uint64_t>(X.Num));
    }
    for (size_t A = 1; A != S.Costs.size(); ++A)
      if (S.Costs[A] < S.Costs[S.BestArm])
        S.BestArm = A;
    TS.Samples.push_back(std::move(S));
  }
  if (TS.Samples.empty())
    return loadErr(File, "no training samples", Err);
  return true;
}

/// Total cost of serving every sample in \p Idx with arm \p Arm.
uint64_t armTotalCost(const TrainingSet &TS, const std::vector<size_t> &Idx,
                      size_t Arm) {
  uint64_t Total = 0;
  for (size_t I : Idx)
    Total += TS.Samples[I].Costs[Arm];
  return Total;
}

/// The leaf decision for \p Idx: the arm with the lowest total cost
/// (lowest index on ties), its total, and the best-arm purity.
struct LeafFit {
  size_t Arm = 0;
  uint64_t TotalCost = 0;
  double Confidence = 0;
};

LeafFit fitLeaf(const TrainingSet &TS, const std::vector<size_t> &Idx) {
  LeafFit L;
  L.TotalCost = armTotalCost(TS, Idx, 0);
  for (size_t A = 1; A != TS.Arms.size(); ++A) {
    uint64_t T = armTotalCost(TS, Idx, A);
    if (T < L.TotalCost) {
      L.TotalCost = T;
      L.Arm = A;
    }
  }
  size_t Agree = 0;
  for (size_t I : Idx)
    if (TS.Samples[I].BestArm == L.Arm)
      ++Agree;
  L.Confidence = Idx.empty() ? 0 : double(Agree) / double(Idx.size());
  return L;
}

/// Grows the tree under Nodes[Node] from the samples in \p Idx.
/// Children are appended after their parent, which is exactly the
/// acyclicity shape DecisionTable::valid() demands.
void growNode(const TrainingSet &TS, const Options &O,
              std::vector<DecisionNode> &Nodes, size_t Node,
              std::vector<size_t> Idx, unsigned Depth) {
  LeafFit Leaf = fitLeaf(TS, Idx);
  auto MakeLeaf = [&] {
    Nodes[Node].Feature = -1;
    Nodes[Node].Arm = static_cast<int>(Leaf.Arm);
    Nodes[Node].Confidence = Leaf.Confidence;
    Nodes[Node].Samples = static_cast<unsigned>(Idx.size());
  };
  if (Depth >= O.MaxDepth || Idx.size() < 2 * size_t(O.MinLeaf) ||
      Leaf.Confidence == 1.0)
    return MakeLeaf();

  // Best split: lowest summed child best-arm cost, strictly better than
  // no split at all. Candidates are the midpoints between consecutive
  // distinct values of each feature.
  int BestFeature = -1;
  double BestThreshold = 0;
  uint64_t BestScore = Leaf.TotalCost;
  std::vector<size_t> BestLeft, BestRight;
  for (size_t F = 0; F != TS.Features.size(); ++F) {
    std::vector<double> Values;
    for (size_t I : Idx)
      Values.push_back(TS.Samples[I].Features[F]);
    std::sort(Values.begin(), Values.end());
    Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
    for (size_t V = 0; V + 1 < Values.size(); ++V) {
      double Threshold = (Values[V] + Values[V + 1]) / 2;
      std::vector<size_t> Left, Right;
      for (size_t I : Idx)
        (TS.Samples[I].Features[F] <= Threshold ? Left : Right).push_back(I);
      if (Left.size() < O.MinLeaf || Right.size() < O.MinLeaf)
        continue;
      uint64_t Score = fitLeaf(TS, Left).TotalCost +
                       fitLeaf(TS, Right).TotalCost;
      if (Score < BestScore) {
        BestScore = Score;
        BestFeature = static_cast<int>(F);
        BestThreshold = Threshold;
        BestLeft = std::move(Left);
        BestRight = std::move(Right);
      }
    }
  }
  if (BestFeature < 0)
    return MakeLeaf();

  Nodes[Node].Feature = BestFeature;
  Nodes[Node].Threshold = BestThreshold;
  size_t L = Nodes.size();
  Nodes.emplace_back();
  Nodes[Node].Left = static_cast<int>(L);
  growNode(TS, O, Nodes, L, std::move(BestLeft), Depth + 1);
  size_t R = Nodes.size();
  Nodes.emplace_back();
  Nodes[Node].Right = static_cast<int>(R);
  growNode(TS, O, Nodes, R, std::move(BestRight), Depth + 1);
}

DecisionTable fitTable(const TrainingSet &TS, const Options &O) {
  DecisionTable T;
  T.Features = TS.Features;
  T.Arms = TS.Arms;
  T.Nodes.emplace_back();
  std::vector<size_t> All(TS.Samples.size());
  for (size_t I = 0; I != All.size(); ++I)
    All[I] = I;
  growNode(TS, O, T.Nodes, 0, std::move(All), 0);
  return T;
}

/// Training-set evaluation: a sample counts as mispredicted when the
/// chosen arm's cost exceeds that sample's best achievable cost (so a
/// prediction that merely ties the optimum is not an error).
struct EvalResult {
  size_t Mispredicts = 0;
  double Rate = 0;
  size_t Leaves = 0;
  unsigned Depth = 0;
};

EvalResult evaluate(const TrainingSet &TS, const DecisionTable &T) {
  EvalResult E;
  for (const Sample &S : TS.Samples) {
    DecisionPrediction P = T.predict(S.Features);
    size_t Arm = P.Arm < 0 ? 0 : size_t(P.Arm);
    if (S.Costs[Arm] > S.Costs[S.BestArm])
      ++E.Mispredicts;
  }
  E.Rate = double(E.Mispredicts) / double(TS.Samples.size());
  std::vector<std::pair<size_t, unsigned>> Stack{{0, 0}};
  while (!Stack.empty()) {
    auto [N, D] = Stack.back();
    Stack.pop_back();
    E.Depth = std::max(E.Depth, D);
    if (T.Nodes[N].Feature < 0) {
      ++E.Leaves;
      continue;
    }
    Stack.push_back({size_t(T.Nodes[N].Left), D + 1});
    Stack.push_back({size_t(T.Nodes[N].Right), D + 1});
  }
  return E;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  if (O.Help) {
    std::fputs(UsageText, stdout);
    return 0;
  }
  if (O.Train.empty() || O.Out.empty()) {
    std::fprintf(stderr, "error: --train and --out are required "
                         "(try --help)\n");
    return 2;
  }

  TrainingSet TS;
  std::string Err;
  if (!loadTrainingSet(O.Train, TS, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  DecisionTable Table = fitTable(TS, O);
  if (!Table.valid(&Err)) {
    std::fprintf(stderr, "error: fitted table is invalid: %s\n", Err.c_str());
    return 1;
  }
  EvalResult E = evaluate(TS, Table);

  std::ofstream Out(O.Out, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", O.Out.c_str());
    return 1;
  }
  Out << Table.toJson();
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "error: write to '%s' failed\n", O.Out.c_str());
    return 1;
  }

  if (!O.MetricsOut.empty()) {
    MetricsRegistry Metrics;
    Metrics.setCount("portfolio.train_samples",
                     static_cast<double>(TS.Samples.size()));
    Metrics.setCount("portfolio.train_mispredicts",
                     static_cast<double>(E.Mispredicts));
    Metrics.gauge("portfolio.mispredict_rate", E.Rate);
    std::string MErr;
    if (!Metrics.writeJsonFile(O.MetricsOut, &MErr)) {
      std::fprintf(stderr, "error: %s\n", MErr.c_str());
      return 1;
    }
  }

  std::printf("dra-tune: %zu sample(s) x %zu arm(s) -> %s\n",
              TS.Samples.size(), TS.Arms.size(), O.Out.c_str());
  std::printf("dra-tune: tree depth %u, %zu leaf(s), mispredict rate "
              "%.1f%% (%zu/%zu)\n",
              E.Depth, E.Leaves, E.Rate * 100, E.Mispredicts,
              TS.Samples.size());
  return 0;
}
