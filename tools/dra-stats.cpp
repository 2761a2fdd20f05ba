//===- tools/dra-stats.cpp - Metrics diff / regression gate ---------------===//
//
// Part of the differential-register-allocation reproduction library.
//
// Loads two dra-metrics-v1 JSON files (written by dra-batch
// --metrics-out, the bench binaries' BENCH_*.json, or any
// MetricsRegistry::writeJsonFile call), prints a per-metric diff with
// percentage deltas, and — with --fail-on — exits non-zero when a named
// metric regresses beyond a threshold. Designed as a CI gate: check in a
// baseline snapshot, diff every build against it.
//
//===----------------------------------------------------------------------===//

#include "CliNum.h"

#include "driver/Json.h"
#include "driver/Metrics.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace dra;

namespace {

const char *UsageText =
    "usage: dra-stats [options] <baseline.json> <current.json>\n"
    "       dra-stats --validate <file.json> [file.json ...]\n"
    "       dra-stats --validate-trace <trace.json> [trace.json ...]\n"
    "\n"
    "Compares two dra-metrics-v1 metrics files (see driver/Metrics.h;\n"
    "written by dra-batch --metrics-out and the bench binaries'\n"
    "BENCH_*.json) and prints a per-metric diff with % deltas. Counters\n"
    "and gauges compare their values; histograms compare their sums (the\n"
    "count and p50/p90/p99 shifts are shown in the table).\n"
    "\n"
    "options:\n"
    "  --validate           parse and schema-check the given files instead\n"
    "                       of diffing; exit 1 on the first invalid one\n"
    "  --validate-trace     schema-check Chrome trace-event JSON (as\n"
    "                       written by --trace-out of dra-batch or\n"
    "                       dra-loadgen): a traceEvents array whose events\n"
    "                       carry string name/ph, numeric pid/tid/ts, and\n"
    "                       a non-negative dur on every ph=\"X\" event;\n"
    "                       exit 1 on the first invalid file\n"
    "  --threshold=PCT      only print rows changing by at least PCT\n"
    "                       percent (default 0 = print everything)\n"
    "  --fail-on=M[:PCT]    exit 3 when metric M increases by more than\n"
    "                       PCT percent over the baseline (default 0);\n"
    "                       M is a flat key like `pipeline.spill_insts`\n"
    "                       or `pipeline.spill_insts{scheme=coalesce}`\n"
    "                       and bare names match every labeled series of\n"
    "                       that name; repeatable. Histograms gate on\n"
    "                       their sum by default; append one of\n"
    "                       .p50/.p90/.p95/.p99/.count/.sum/.min/.max to\n"
    "                       gate a summary statistic instead (e.g.\n"
    "                       `server.latency_us{tier=miss}.p99:10` fails\n"
    "                       when the miss-tier p99 grows over 10%%).\n"
    "                       A negative PCT flips\n"
    "                       the gate into a required improvement: the\n"
    "                       check fails unless M *dropped* by more than\n"
    "                       |PCT| percent (e.g. `M:-80` demands current\n"
    "                       be below a fifth of baseline — use it to\n"
    "                       assert an optimization keeps paying off)\n"
    "  --help               show this text\n"
    "\n"
    "exit status: 0 on success, 1 when a file cannot be read or fails\n"
    "validation, 2 on a command-line error (including a --fail-on metric\n"
    "absent from both files), 3 when any --fail-on metric regressed.\n";

struct FailRule {
  std::string Metric;
  double ThresholdPct = 0;
};

struct Options {
  bool Validate = false;
  bool ValidateTrace = false;
  bool Help = false;
  double ThresholdPct = 0;
  std::vector<FailRule> FailOn;
  std::vector<std::string> Files;
};

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    if (Arg == "--validate") {
      O.Validate = true;
    } else if (Arg == "--validate-trace") {
      O.ValidateTrace = true;
    } else if (const char *V = Value("--threshold=")) {
      if (!cli::parseDouble("--threshold", V, O.ThresholdPct))
        return false;
    } else if (const char *V = Value("--fail-on=")) {
      FailRule Rule;
      std::string Spec = V;
      size_t Colon = Spec.rfind(':');
      // A ':' only splits a threshold when what follows parses as a
      // number; metric names themselves never contain ':'.
      if (Colon != std::string::npos &&
          cli::parseDoubleValue(Spec.c_str() + Colon + 1,
                                Rule.ThresholdPct)) {
        Rule.Metric = Spec.substr(0, Colon);
      } else if (Colon != std::string::npos && Colon + 1 != Spec.size()) {
        std::fprintf(stderr,
                     "error: bad threshold '%s' in '--fail-on=%s'\n",
                     Spec.c_str() + Colon + 1, V);
        return false;
      } else {
        Rule.Metric = Spec;
      }
      if (Rule.Metric.empty()) {
        std::fprintf(stderr, "error: empty metric in '--fail-on=%s'\n", V);
        return false;
      }
      O.FailOn.push_back(Rule);
    } else if (Arg == "--help" || Arg == "-h") {
      O.Help = true;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s' (try --help)\n",
                   Arg.c_str());
      return false;
    } else {
      O.Files.push_back(Arg);
    }
  }
  return true;
}

bool loadFile(const std::string &Path, MetricsFileData &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::string Err;
  if (!loadMetricsJson(In, Out, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  return true;
}

/// Schema-checks one Chrome trace-event document: a top-level object with
/// a `traceEvents` array; every event an object with string `name`/`ph`,
/// numeric `pid`/`tid`/`ts`, and — on "X" complete events — a numeric,
/// non-negative `dur`. Counts events per phase into \p XEvents/\p MEvents.
bool validateTraceFile(const std::string &Path, size_t &XEvents,
                       size_t &MEvents) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path.c_str());
    return false;
  }
  std::string Text{std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>{}};
  JsonValue Root;
  std::string Err;
  if (!parseJson(Text, Root, &Err)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Err.c_str());
    return false;
  }
  auto Fail = [&](size_t Index, const char *What) {
    std::fprintf(stderr, "error: %s: traceEvents[%zu]: %s\n", Path.c_str(),
                 Index, What);
    return false;
  };
  if (Root.K != JsonValue::Object) {
    std::fprintf(stderr, "error: %s: top level is not an object\n",
                 Path.c_str());
    return false;
  }
  const JsonValue *Events = Root.field("traceEvents");
  if (!Events || Events->K != JsonValue::Array) {
    std::fprintf(stderr, "error: %s: missing traceEvents array\n",
                 Path.c_str());
    return false;
  }
  XEvents = MEvents = 0;
  for (size_t I = 0; I != Events->Arr.size(); ++I) {
    const JsonValue &E = Events->Arr[I];
    if (E.K != JsonValue::Object)
      return Fail(I, "event is not an object");
    const JsonValue *Name = E.field("name");
    const JsonValue *Ph = E.field("ph");
    if (!Name || Name->K != JsonValue::String)
      return Fail(I, "missing string 'name'");
    if (!Ph || Ph->K != JsonValue::String || Ph->Str.empty())
      return Fail(I, "missing string 'ph'");
    for (const char *Key : {"pid", "tid"}) {
      const JsonValue *V = E.field(Key);
      if (!V || V->K != JsonValue::Number)
        return Fail(I, "missing numeric 'pid'/'tid'");
    }
    if (Ph->Str == "X") {
      const JsonValue *Ts = E.field("ts");
      const JsonValue *Dur = E.field("dur");
      if (!Ts || Ts->K != JsonValue::Number)
        return Fail(I, "complete event missing numeric 'ts'");
      if (!Dur || Dur->K != JsonValue::Number || Dur->Num < 0)
        return Fail(I, "complete event missing non-negative 'dur'");
      ++XEvents;
    } else if (Ph->Str == "M") {
      ++MEvents;
    }
  }
  return true;
}

/// Does flat key \p Key (e.g. "pipeline.spills{scheme=coalesce}") match the
/// user-provided \p Metric? Exact match, or bare-name match of every
/// labeled series of that name.
bool metricMatches(const std::string &Key, const std::string &Metric) {
  if (Key == Metric)
    return true;
  return Key.size() > Metric.size() + 1 &&
         Key.compare(0, Metric.size(), Metric) == 0 &&
         Key[Metric.size()] == '{';
}

double pctDelta(double Base, double Cur) {
  if (Base == 0)
    return Cur == 0 ? 0 : HUGE_VAL;
  return 100.0 * (Cur - Base) / Base;
}

/// Which files a diffed series appears in.
enum class Presence { Both, OnlyBase, OnlyCur };

/// One diff-table line. A series present in only one file is a
/// structural change, not a value change: it is never threshold-
/// suppressed and is labeled "removed"/"added" instead of faking a 0 on
/// the missing side (which made a zero-valued series dropping out of —
/// or appearing in — one file vanish from the diff entirely, and showed
/// a removal as a -100% value drop).
void printRow(const std::string &Key, double Base, double Cur,
              double ThresholdPct, Presence P = Presence::Both) {
  if (P == Presence::OnlyBase) {
    std::printf("  %-58s %14g %14s %s\n", Key.c_str(), Base, "-",
                " removed");
    return;
  }
  if (P == Presence::OnlyCur) {
    std::printf("  %-58s %14s %14g %s\n", Key.c_str(), "-", Cur,
                "   added");
    return;
  }
  double Pct = pctDelta(Base, Cur);
  if (std::fabs(Pct) < ThresholdPct && Base != Cur)
    return;
  if (ThresholdPct > 0 && Base == Cur)
    return;
  char PctBuf[32];
  if (std::isinf(Pct))
    std::snprintf(PctBuf, sizeof PctBuf, "     new");
  else
    std::snprintf(PctBuf, sizeof PctBuf, "%+7.2f%%", Pct);
  std::printf("  %-58s %14g %14g %s\n", Key.c_str(), Base, Cur, PctBuf);
}

/// Diffs one section (counters or gauges) over the union of keys.
void diffSection(const char *Title, const std::map<std::string, double> &B,
                 const std::map<std::string, double> &C,
                 double ThresholdPct) {
  if (B.empty() && C.empty())
    return;
  std::printf("%s:\n", Title);
  auto IB = B.begin();
  auto IC = C.begin();
  while (IB != B.end() || IC != C.end()) {
    if (IC == C.end() || (IB != B.end() && IB->first < IC->first)) {
      printRow(IB->first, IB->second, 0, ThresholdPct, Presence::OnlyBase);
      ++IB;
    } else if (IB == B.end() || IC->first < IB->first) {
      printRow(IC->first, 0, IC->second, ThresholdPct, Presence::OnlyCur);
      ++IC;
    } else {
      printRow(IB->first, IB->second, IC->second, ThresholdPct);
      ++IB;
      ++IC;
    }
  }
}

void diffHistograms(const MetricsFileData &B, const MetricsFileData &C,
                    double ThresholdPct) {
  if (B.Histograms.empty() && C.Histograms.empty())
    return;
  std::printf("histograms (sum | count | p50 -> p50):\n");
  auto Row = [&](const std::string &Key,
                 const MetricsFileData::HistSummary &Base,
                 const MetricsFileData::HistSummary &Cur,
                 Presence P = Presence::Both) {
    // Same structural-change rule as printRow: one-sided histograms are
    // always reported, labeled, and never shown as a -100% sum change.
    if (P == Presence::OnlyBase) {
      std::printf("  %-58s %14g %14s %s  n %g -> -\n", Key.c_str(),
                  Base.Sum, "-", " removed", Base.Count);
      return;
    }
    if (P == Presence::OnlyCur) {
      std::printf("  %-58s %14s %14g %s  n - -> %g\n", Key.c_str(), "-",
                  Cur.Sum, "   added", Cur.Count);
      return;
    }
    double Pct = pctDelta(Base.Sum, Cur.Sum);
    if (ThresholdPct > 0 &&
        (std::fabs(Pct) < ThresholdPct || Base.Sum == Cur.Sum))
      return;
    // An empty histogram has no percentiles: print '-' instead of a
    // misleading 0.
    char BaseP50[32], CurP50[32];
    if (Base.Count > 0)
      std::snprintf(BaseP50, sizeof BaseP50, "%g", Base.P50);
    else
      std::snprintf(BaseP50, sizeof BaseP50, "-");
    if (Cur.Count > 0)
      std::snprintf(CurP50, sizeof CurP50, "%g", Cur.P50);
    else
      std::snprintf(CurP50, sizeof CurP50, "-");
    std::printf("  %-58s %14g %14g %+7.2f%%  n %g -> %g  p50 %s -> %s\n",
                Key.c_str(), Base.Sum, Cur.Sum, std::isinf(Pct) ? 0.0 : Pct,
                Base.Count, Cur.Count, BaseP50, CurP50);
  };
  MetricsFileData::HistSummary Zero;
  auto IB = B.Histograms.begin();
  auto IC = C.Histograms.begin();
  while (IB != B.Histograms.end() || IC != C.Histograms.end()) {
    if (IC == C.Histograms.end() ||
        (IB != B.Histograms.end() && IB->first < IC->first)) {
      Row(IB->first, IB->second, Zero, Presence::OnlyBase);
      ++IB;
    } else if (IB == B.Histograms.end() || IC->first < IB->first) {
      Row(IC->first, Zero, IC->second, Presence::OnlyCur);
      ++IC;
    } else {
      Row(IB->first, IB->second, IC->second);
      ++IB;
      ++IC;
    }
  }
}

/// Collects (key, baseline, current) triples matching \p Metric across the
/// counter, gauge, and histogram (by sum) sections of both files.
struct MatchedValue {
  std::string Key;
  double Base = 0;
  double Cur = 0;
  /// False when the side's value is undefined: a distribution statistic
  /// (.min/.max/.pNN) of a histogram that is empty (count=0) or absent.
  /// .count and .sum are always defined (0 for empty/absent).
  bool BaseOk = true;
  bool CurOk = true;
};

/// The histogram summary statistics addressable as a `.stat` suffix on a
/// --fail-on metric (`server.latency_us.p99`,
/// `loadgen.latency_us{tier=miss}.p95`, ...).
struct HistStatSuffix {
  const char *Name;
  double MetricsFileData::HistSummary::*Field;
};

const HistStatSuffix HistStatSuffixes[] = {
    {"count", &MetricsFileData::HistSummary::Count},
    {"sum", &MetricsFileData::HistSummary::Sum},
    {"min", &MetricsFileData::HistSummary::Min},
    {"max", &MetricsFileData::HistSummary::Max},
    {"p50", &MetricsFileData::HistSummary::P50},
    {"p90", &MetricsFileData::HistSummary::P90},
    {"p95", &MetricsFileData::HistSummary::P95},
    {"p99", &MetricsFileData::HistSummary::P99},
};

/// If \p Metric ends in a recognized `.stat` suffix, strips it into
/// \p BareMetric and returns the addressed summary field; null otherwise.
double MetricsFileData::HistSummary::*
splitHistStat(const std::string &Metric, std::string &BareMetric) {
  for (const HistStatSuffix &S : HistStatSuffixes) {
    std::string Suffix = std::string(".") + S.Name;
    if (Metric.size() > Suffix.size() &&
        Metric.compare(Metric.size() - Suffix.size(), Suffix.size(),
                       Suffix) == 0) {
      BareMetric = Metric.substr(0, Metric.size() - Suffix.size());
      return S.Field;
    }
  }
  return nullptr;
}

std::vector<MatchedValue> collectMatches(const MetricsFileData &B,
                                         const MetricsFileData &C,
                                         const std::string &Metric) {
  std::map<std::string, MatchedValue> ByKey;
  auto Add = [&](const std::string &Key, double V, bool IsBase) {
    MatchedValue &M = ByKey[Key];
    M.Key = Key;
    (IsBase ? M.Base : M.Cur) = V;
  };

  // A percentile/statistic suffix addresses histogram summaries only:
  // `name.p99` gates the p99 of every labeled series of that histogram,
  // `name{k=v}.p99` exactly one.
  std::string BareMetric;
  if (double MetricsFileData::HistSummary::*Field =
          splitHistStat(Metric, BareMetric)) {
    std::string Suffix = Metric.substr(BareMetric.size());
    // Distribution statistics have no value without samples; only the
    // additive .count/.sum suffixes read 0 from an empty histogram.
    bool Dist = Field != &MetricsFileData::HistSummary::Count &&
                Field != &MetricsFileData::HistSummary::Sum;
    auto AddHist = [&](const std::string &Key,
                       const MetricsFileData::HistSummary &V, bool IsBase) {
      MatchedValue &M = ByKey[Key];
      if (M.Key.empty()) {
        M.Key = Key;
        // A side never filled in stays 0; for a distribution statistic
        // that absence is "undefined", not "0".
        M.BaseOk = M.CurOk = !Dist;
      }
      (IsBase ? M.Base : M.Cur) = V.*Field;
      (IsBase ? M.BaseOk : M.CurOk) = !Dist || V.Count > 0;
    };
    for (const auto &[K, V] : B.Histograms)
      if (metricMatches(K, BareMetric))
        AddHist(K + Suffix, V, true);
    for (const auto &[K, V] : C.Histograms)
      if (metricMatches(K, BareMetric))
        AddHist(K + Suffix, V, false);
    std::vector<MatchedValue> Out;
    for (auto &[K, M] : ByKey)
      Out.push_back(M);
    return Out;
  }

  auto AddMatching = [&](const std::string &Key, double V, bool IsBase) {
    if (metricMatches(Key, Metric))
      Add(Key, V, IsBase);
  };
  for (const auto &[K, V] : B.Counters)
    AddMatching(K, V, true);
  for (const auto &[K, V] : C.Counters)
    AddMatching(K, V, false);
  for (const auto &[K, V] : B.Gauges)
    AddMatching(K, V, true);
  for (const auto &[K, V] : C.Gauges)
    AddMatching(K, V, false);
  for (const auto &[K, V] : B.Histograms)
    AddMatching(K, V.Sum, true);
  for (const auto &[K, V] : C.Histograms)
    AddMatching(K, V.Sum, false);
  std::vector<MatchedValue> Out;
  for (auto &[K, M] : ByKey)
    Out.push_back(M);
  return Out;
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

  if (O.ValidateTrace) {
    if (O.Files.empty()) {
      std::fprintf(stderr,
                   "error: --validate-trace needs at least one file\n");
      return 2;
    }
    for (const std::string &File : O.Files) {
      size_t XEvents = 0, MEvents = 0;
      if (!validateTraceFile(File, XEvents, MEvents))
        return 1;
      std::printf("%s: valid chrome-trace (%zu span event(s), %zu "
                  "metadata event(s))\n",
                  File.c_str(), XEvents, MEvents);
    }
    return 0;
  }

  if (O.Validate) {
    if (O.Files.empty()) {
      std::fprintf(stderr, "error: --validate needs at least one file\n");
      return 2;
    }
    for (const std::string &File : O.Files) {
      MetricsFileData Data;
      if (!loadFile(File, Data))
        return 1;
      std::printf("%s: valid %s (%zu counters, %zu gauges, %zu "
                  "histograms)\n",
                  File.c_str(), Data.Schema.c_str(), Data.Counters.size(),
                  Data.Gauges.size(), Data.Histograms.size());
    }
    return 0;
  }

  if (O.Files.size() != 2) {
    std::fprintf(stderr,
                 "error: expected <baseline.json> <current.json> "
                 "(got %zu files; try --help)\n",
                 O.Files.size());
    return 2;
  }

  MetricsFileData Base, Cur;
  if (!loadFile(O.Files[0], Base) || !loadFile(O.Files[1], Cur))
    return 1;

  std::printf("baseline: %s\ncurrent:  %s\n\n", O.Files[0].c_str(),
              O.Files[1].c_str());
  diffSection("counters", Base.Counters, Cur.Counters, O.ThresholdPct);
  diffSection("gauges", Base.Gauges, Cur.Gauges, O.ThresholdPct);
  diffHistograms(Base, Cur, O.ThresholdPct);

  int Exit = 0;
  for (const FailRule &Rule : O.FailOn) {
    std::vector<MatchedValue> Matches =
        collectMatches(Base, Cur, Rule.Metric);
    if (Matches.empty()) {
      std::fprintf(stderr,
                   "error: --fail-on metric '%s' found in neither file\n",
                   Rule.Metric.c_str());
      return 2;
    }
    for (const MatchedValue &M : Matches) {
      if (!M.BaseOk || !M.CurOk) {
        std::fprintf(stderr,
                     "error: --fail-on '%s': %s has no samples in %s "
                     "(count=0); the statistic is undefined\n",
                     Rule.Metric.c_str(), M.Key.c_str(),
                     !M.BaseOk && !M.CurOk ? "either file"
                     : !M.BaseOk          ? "the baseline"
                                          : "the current file");
        return 2;
      }
      double Pct = pctDelta(M.Base, M.Cur);
      if (Rule.ThresholdPct < 0) {
        // Improvement gate: current must sit more than |PCT| percent
        // below baseline. Anything short of that drop — including any
        // increase — fails.
        if (Pct > Rule.ThresholdPct) {
          std::fprintf(stderr,
                       "IMPROVEMENT NOT MET: %s: %g -> %g (%.2f%%, "
                       "needs < %.2f%%)\n",
                       M.Key.c_str(), M.Base, M.Cur,
                       std::isinf(Pct) ? 100.0 : Pct, Rule.ThresholdPct);
          Exit = 3;
        }
        continue;
      }
      bool Regressed = M.Cur > M.Base && Pct > Rule.ThresholdPct;
      if (Regressed) {
        std::fprintf(stderr,
                     "REGRESSION: %s: %g -> %g (+%.2f%% > %.2f%% "
                     "allowed)\n",
                     M.Key.c_str(), M.Base, M.Cur,
                     std::isinf(Pct) ? 100.0 : Pct, Rule.ThresholdPct);
        Exit = 3;
      }
    }
  }
  if (!O.FailOn.empty() && Exit == 0)
    std::printf("\nall %zu --fail-on gate(s) passed\n", O.FailOn.size());
  return Exit;
}
