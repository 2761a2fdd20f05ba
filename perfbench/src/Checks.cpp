//===- perfbench/src/Checks.cpp - Output checks and code quality ----------===//

#include "Checks.h"

#include "adt/Rng.h"
#include "core/Pipeline.h"
#include "driver/ResultCache.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "sim/LowEndSim.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

using namespace dra;

namespace perfbench {

namespace {

/// What one key's check found.
struct KeyCheck {
  bool Done = false;
  bool Recompiled = false;
  Quality Q;
  std::string Problem;
};

/// The interpreter's run of one source function.
struct Reference {
  uint64_t Fingerprint = 0;
  uint64_t DynInsts = 0;
  bool Ok = false;
};

void checkKey(const Corpus &C, const RequestKey &K, const std::string &Payload,
              bool Recompile, Reference &Ref, std::once_flag &RefOnce,
              KeyCheck &Out) {
  Out.Done = true;
  std::optional<Function> Src = parseFunction(C.Texts[K.Fn]);
  if (!Src) {
    Out.Problem = "corpus text does not parse";
    return;
  }
  PipelineResult R;
  if (!ResultCache::deserializeResult(Payload, R)) {
    Out.Problem = "response body does not deserialize";
    return;
  }
  std::call_once(RefOnce, [&] {
    ExecResult E = interpret(*Src);
    Ref.Ok = !E.HitStepLimit && E.DynInsts > 0;
    Ref.Fingerprint = fingerprint(E);
    Ref.DynInsts = E.DynInsts;
  });
  const SimResult S = simulate(R.F);
  const std::string Where =
      "function " + std::to_string(K.Fn) + " scheme " + keyScheme(K);
  if (!Ref.Ok || S.HitStepLimit || S.Fingerprint != Ref.Fingerprint)
    Out.Problem = Where + ": simulated fingerprint differs from the "
                          "interpreter's";
  Out.Q.Insts = R.NumInsts;
  Out.Q.Spills = R.SpillInsts;
  Out.Q.Slrs = R.SetLastRegs;
  Out.Q.CodeBytes = R.CodeBytes;
  Out.Q.SrcInsts = Src->numInsts();
  Out.Q.CyclesPerKinstSum =
      Ref.DynInsts ? 1000.0 * double(S.Cycles) / double(Ref.DynInsts) : 0;
  Out.Q.Outputs = 1;
  if (!Recompile)
    return;
  Out.Recompiled = true;
  PipelineConfig Cfg = makeRequest(C, K).toConfig();
  if (K.Auto) {
    Cfg.Portfolio.Mode = PortfolioMode::Race;
    Cfg.Portfolio.Jobs = 1;
  }
  if (ResultCache::serializeResult(runPipeline(*Src, Cfg)) != Payload &&
      Out.Problem.empty())
    Out.Problem = Where + ": response differs from a local compile";
}

} // namespace

CheckReport checkOutputs(const Corpus &C, const std::vector<RequestKey> &Keys,
                         const std::vector<std::string> &Payloads,
                         uint64_t Seed, unsigned SampleCount,
                         unsigned Threads) {
  std::vector<size_t> Present;
  for (size_t K = 0; K != Keys.size(); ++K)
    if (!Payloads[K].empty())
      Present.push_back(K);
  // The recompile sample: the first keys of a seeded shuffle, a third of
  // them scheme=auto when the workload sends any, so races are always
  // compared with a local race.
  std::vector<bool> Recompile(Keys.size(), false);
  {
    std::vector<size_t> Order = Present;
    Rng R = Rng::forTask(Seed, 0xc4ec);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.nextBelow(I)]);
    const bool AnyAuto = std::any_of(Order.begin(), Order.end(),
                                     [&](size_t K) { return Keys[K].Auto; });
    const size_t AutoQuota = AnyAuto ? SampleCount / 3 : 0;
    size_t Auto = 0, Explicit = 0;
    for (size_t K : Order) {
      size_t &Taken = Keys[K].Auto ? Auto : Explicit;
      const size_t Quota =
          Keys[K].Auto ? AutoQuota : SampleCount - AutoQuota;
      if (Taken < Quota) {
        Recompile[K] = true;
        ++Taken;
      }
    }
  }

  std::vector<Reference> Refs(C.Texts.size());
  std::vector<std::once_flag> RefOnce(C.Texts.size());
  std::vector<KeyCheck> Results(Keys.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != std::max(1u, Threads); ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Present.size();) {
        const size_t K = Present[I];
        const unsigned Fn = Keys[K].Fn;
        try {
          checkKey(C, Keys[K], Payloads[K], Recompile[K], Refs[Fn],
                   RefOnce[Fn], Results[K]);
        } catch (const std::exception &E) {
          Results[K].Done = true;
          Results[K].Problem = std::string("check failed: ") + E.what();
        }
      }
    });
  for (std::thread &T : Pool)
    T.join();

  CheckReport Rep;
  for (const KeyCheck &KC : Results) {
    if (!KC.Done)
      continue;
    ++Rep.Simulated;
    Rep.Recompiled += KC.Recompiled;
    Rep.Q.Insts += KC.Q.Insts;
    Rep.Q.Spills += KC.Q.Spills;
    Rep.Q.Slrs += KC.Q.Slrs;
    Rep.Q.CodeBytes += KC.Q.CodeBytes;
    Rep.Q.SrcInsts += KC.Q.SrcInsts;
    Rep.Q.CyclesPerKinstSum += KC.Q.CyclesPerKinstSum;
    Rep.Q.Outputs += KC.Q.Outputs;
    if (!KC.Problem.empty()) {
      ++Rep.Mismatches;
      if (Rep.Problems.size() < 8)
        Rep.Problems.push_back(KC.Problem);
    }
  }
  return Rep;
}

} // namespace perfbench
