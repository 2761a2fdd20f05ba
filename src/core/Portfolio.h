//===- core/Portfolio.h - Scheme-portfolio racing + chooser -----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheme portfolio: race a configurable set of pipeline arms (scheme
/// + optional remap restart budget) over one function and commit the
/// winner by the deterministic `(encoded-cost, arm-index)` reduction rule
/// (the same shape as the remap search's `(cost, start-index)` winner
/// rule), so results are bit-identical at any `Jobs`.
///
/// **Winner rule.** Every arm's result is scored by `encodedCost()`, a
/// packed 64-bit integer over the final static overhead counts
/// (`SpillInsts` in the high half, `SetLastRegs` in the low half). The
/// committed result is the arm with the smallest cost; equal costs go to
/// the lowest arm index. The reduction runs in fixed index order over an
/// index-addressed result array, so scheduling never leaks into the
/// outcome.
///
/// **Cancellation.** The only work-skipping is the zero-cost cutoff: an
/// arm that has not started yet is skipped when a *lower-indexed* arm
/// already finished with cost 0. Cost 0 is globally minimal and the tie
/// break prefers the lower index, so no skipped arm could have won —
/// cancellation can change how much work runs, never what is committed.
/// Arms already running are never torn down (pipeline stages are not
/// interruptible); the shared bound is advisory.
///
/// **Chooser.** In `Choose` mode a trained-offline decision table
/// (portfolio-v1 JSON, fit by `tools/dra-tune` from a
/// `dra-batch --portfolio-train` corpus sweep) maps the function's
/// feature vector (core/Features.h) to a predicted-best arm. Predictions
/// at or above `MinConfidence` compile once with that arm; anything less
/// falls back to the full race, whose committed bytes are identical to
/// `Race` mode by the winner rule above.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_PORTFOLIO_H
#define DRA_CORE_PORTFOLIO_H

#include "core/Scheme.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dra {

class Function;
class MetricsRegistry;
struct PipelineConfig;
struct PipelineResult;

/// How runPipeline treats PipelineConfig::Portfolio.
enum class PortfolioMode : uint8_t {
  Off,    ///< Single-scheme pipeline; the portfolio block is inert.
  Race,   ///< Race every arm, commit the (cost, arm-index) winner.
  Choose, ///< Decision-table prediction; race below MinConfidence.
};

/// "off" / "race" / "choose".
const char *portfolioModeName(PortfolioMode M);
bool parsePortfolioMode(const std::string &Name, PortfolioMode &Out);

/// One racing arm: a scheme plus an optional remap restart budget.
struct PortfolioArm {
  Scheme S = Scheme::Coalesce;
  /// Remap restart budget for this arm; 0 inherits the enclosing
  /// config's Remap.NumStarts.
  unsigned RemapStarts = 0;

  bool operator==(const PortfolioArm &O) const {
    return S == O.S && RemapStarts == O.RemapStarts;
  }
};

//===----------------------------------------------------------------------===//
// Decision table (portfolio-v1)
//===----------------------------------------------------------------------===//

/// One node of the offline-trained decision tree. Interior nodes route
/// `feature[Feature] <= Threshold` to Left, else Right; leaves carry the
/// predicted arm with its training purity and sample count.
struct DecisionNode {
  int Feature = -1;      ///< Split feature index; < 0 marks a leaf.
  double Threshold = 0;  ///< Split threshold (go left when <=).
  int Left = -1;         ///< Child node index (interior nodes).
  int Right = -1;        ///< Child node index (interior nodes).
  int Arm = -1;          ///< Leaf: predicted arm index (into Arms).
  double Confidence = 0; ///< Leaf: training purity in [0, 1].
  unsigned Samples = 0;  ///< Leaf: training samples that landed here.
};

/// Outcome of one table lookup.
struct DecisionPrediction {
  int Arm = -1; ///< Predicted arm index into DecisionTable::Arms; -1 if
                ///< the table is empty/invalid.
  double Confidence = 0;
  unsigned Samples = 0;
};

/// The trained-offline chooser model: an axis-aligned decision tree over
/// the core/Features.h vector, serialized as portfolio-v1 JSON. Fit by
/// tools/dra-tune; loaded by the dra-server and dra-batch
/// --portfolio-table flags.
struct DecisionTable {
  /// Feature schema; must equal featureNames() to be valid.
  std::vector<std::string> Features;
  /// The arm vocabulary predictions index into.
  std::vector<PortfolioArm> Arms;
  /// Tree nodes; Nodes[0] is the root. Children always have larger
  /// indices than their parent (checked by valid()), so the tree is
  /// acyclic by construction.
  std::vector<DecisionNode> Nodes;

  /// Routes \p FeatureVector (featureNames() order) to a leaf.
  DecisionPrediction predict(const std::vector<double> &FeatureVector) const;

  /// Structural validity: non-empty, schema matches featureNames(),
  /// every index in range, children strictly after parents, leaves carry
  /// a valid arm.
  bool valid(std::string *Err = nullptr) const;

  /// FNV-1a over the full serialized content — the cache key component
  /// for choose mode, so swapping tables never replays stale results.
  uint64_t fingerprint() const;

  /// portfolio-v1 JSON document (what dra-tune writes).
  std::string toJson() const;

  /// Parses and validates a portfolio-v1 document.
  static bool fromJson(const std::string &Text, DecisionTable &Out,
                       std::string *Err);
};

//===----------------------------------------------------------------------===//
// Portfolio configuration
//===----------------------------------------------------------------------===//

/// The portfolio block of PipelineConfig.
struct PortfolioConfig {
  PortfolioMode Mode = PortfolioMode::Off;
  /// Racing arms in commitment-priority order; empty selects
  /// defaultPortfolioArms(). Part of the cache key.
  std::vector<PortfolioArm> Arms;
  /// Pool workers for one race: 0 = one worker per arm, 1 = exact serial
  /// semantics. Pure wall-clock knob — results are bit-identical at any
  /// value — and therefore excluded from the cache key.
  /// Each race runs on its own transient pool, so racing nests safely
  /// inside BatchCompiler / server worker tasks.
  unsigned Jobs = 1;
  /// Choose mode: predictions below this confidence fall back to racing.
  double MinConfidence = 0.75;
  /// Choose mode: the trained table (borrowed, caller keeps it alive);
  /// null falls back to racing every function. The table's fingerprint
  /// (not the pointer) joins the cache key.
  const DecisionTable *Table = nullptr;
  /// Optional sink for the portfolio.* counters (races, wins by scheme,
  /// cancelled arms, chooser hits/races/mispredicts). Falls back to
  /// PipelineConfig::Metrics when null. Not part of the cache key.
  MetricsRegistry *Metrics = nullptr;
};

/// The default racing set: the paper's three differential schemes, in
/// cost-priority order (coalesce first — the strongest scheme wins ties).
std::vector<PortfolioArm> defaultPortfolioArms();

/// \p PC's arm list with the empty-means-default rule applied.
std::vector<PortfolioArm> resolvedPortfolioArms(const PortfolioConfig &PC);

/// The deterministic scalar the winner rule minimizes: packed
/// `(SpillInsts << 32) | SetLastRegs`, each half saturated — the overhead
/// the differential encoding could not hide. Code size is deliberately
/// excluded: equal-overhead results differ only in residual moves, and
/// the fixed arm order keeps that choice deterministic.
uint64_t encodedCost(const PipelineResult &R);

/// What one portfolio invocation did (for tests and metrics).
struct PortfolioOutcome {
  unsigned WinnerArm = 0;  ///< Index into the resolved arm list.
  uint64_t WinnerCost = 0; ///< encodedCost of the committed result.
  /// Per-arm costs; UINT64_MAX marks an arm cancelled by the zero-cost
  /// cutoff (or not raced in a confident choose).
  std::vector<uint64_t> ArmCosts;
  unsigned ArmsRun = 0;
  unsigned ArmsCancelled = 0;
  bool ChooserConfident = false; ///< Choose mode compiled one arm.
  bool ChooserRaced = false;     ///< Choose mode fell back to racing.
  int PredictedArm = -1;         ///< Resolved-arm index the table
                                 ///< predicted; -1 = no usable prediction.
};

/// Runs the portfolio for \p C (C.Portfolio.Mode must not be Off) and
/// returns the committed result. Never consults or writes any cache and
/// never flushes pipeline metrics for the losing arms — each arm runs
/// with a cache-less, metrics-less copy of \p C. When \p WinnerConfig is
/// non-null it receives the committed arm's concrete single-scheme config
/// (Mode Off), whose cache key is exactly what a direct request for that
/// scheme would compute. \p Outcome (optional) receives the race record.
PipelineResult runPortfolio(const Function &Src, const PipelineConfig &C,
                            PipelineConfig *WinnerConfig = nullptr,
                            PortfolioOutcome *Outcome = nullptr);

} // namespace dra

#endif // DRA_CORE_PORTFOLIO_H
