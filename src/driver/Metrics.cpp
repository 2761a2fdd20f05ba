//===- driver/Metrics.cpp - Labeled metrics registry ----------------------===//

#include "driver/Metrics.h"

#include "adt/Statistics.h"
#include "driver/Json.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

using namespace dra;

uint64_t dra::steadyClockNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string dra::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

void dra::writeJsonNumber(std::ostream &OS, double V) {
  if (!std::isfinite(V)) {
    OS << 0; // JSON has no NaN/inf; metrics never legitimately produce them.
    return;
  }
  // 2^53: the largest range in which every integer is exactly a double.
  constexpr double ExactLimit = 9007199254740992.0;
  if (V == std::rint(V) && std::fabs(V) < ExactLimit) {
    OS << static_cast<long long>(V);
    return;
  }
  // Shortest representation that still round-trips: try increasing
  // precision up to max_digits10 (17), at which round-tripping is
  // guaranteed; most values (e.g. 24.8) already survive at 15 digits and
  // stay readable.
  char Buf[64];
  for (int Precision = 15;; ++Precision) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Precision, V);
    if (std::strtod(Buf, nullptr) == V ||
        Precision >= std::numeric_limits<double>::max_digits10)
      break;
  }
  OS << Buf;
}

//===----------------------------------------------------------------------===//
// MetricLabels
//===----------------------------------------------------------------------===//

void MetricLabels::set(std::string Key, std::string Value) {
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Key,
      [](const auto &E, const std::string &K) { return E.first < K; });
  if (It != Entries.end() && It->first == Key)
    It->second = std::move(Value);
  else
    Entries.insert(It, {std::move(Key), std::move(Value)});
}

std::string MetricLabels::key() const {
  std::string Out;
  for (const auto &[K, V] : Entries) {
    if (!Out.empty())
      Out += ',';
    Out += K;
    Out += '=';
    Out += V;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

const std::vector<double> &MetricsRegistry::defaultBuckets() {
  // Exponential 1-2.5-5 decades; chosen so stage durations in microseconds
  // land in the middle of the range.
  static const std::vector<double> Bounds = {
      1,    2,    5,     10,    25,    50,     100,    250,    500,
      1000, 2500, 5000,  10000, 25000, 50000,  100000, 250000, 500000,
      1000000};
  return Bounds;
}

namespace {

/// The series of \p ByLabel for \p L, created (labels filled, everything
/// else zero) on first use.
template <typename SeriesMap>
typename SeriesMap::mapped_type &seriesIn(SeriesMap &ByLabel,
                                          const MetricLabels &L) {
  std::string Key = L.key();
  auto It = ByLabel.find(Key);
  if (It == ByLabel.end()) {
    It = ByLabel.emplace(std::move(Key), typename SeriesMap::mapped_type{})
             .first;
    It->second.Labels = L;
  }
  return It->second;
}

} // namespace

void MetricsRegistry::count(std::string_view Name, double Delta,
                            const MetricLabels &Labels) {
  std::lock_guard<std::mutex> Lock(Mtx);
  seriesIn(Counters[std::string(Name)].ByLabel, Labels).Value += Delta;
}

void MetricsRegistry::setCount(std::string_view Name, double Value,
                               const MetricLabels &Labels) {
  std::lock_guard<std::mutex> Lock(Mtx);
  seriesIn(Counters[std::string(Name)].ByLabel, Labels).Value = Value;
}

void MetricsRegistry::gauge(std::string_view Name, double Value,
                            const MetricLabels &Labels) {
  std::lock_guard<std::mutex> Lock(Mtx);
  seriesIn(Gauges[std::string(Name)].ByLabel, Labels).Value = Value;
}

void MetricsRegistry::observe(std::string_view Name, double Value,
                              const MetricLabels &Labels) {
  static_assert(MaxRawSamples % 2 == 0, "decimation halves the buffer");
  std::lock_guard<std::mutex> Lock(Mtx);
  HistMetric &M = Histograms[std::string(Name)];
  if (M.UpperBounds.empty())
    M.UpperBounds = defaultBuckets();
  HistSeries &S = seriesIn(M.ByLabel, Labels);
  if (S.Count == 0) {
    S.Min = S.Max = Value;
    S.BucketCounts.assign(M.UpperBounds.size() + 1, 0);
  } else {
    S.Min = std::min(S.Min, Value);
    S.Max = std::max(S.Max, Value);
  }
  S.Sum += Value;
  // First bound >= Value; values above every bound fall in the +inf
  // overflow bucket (a value exactly equal to a bound belongs to that
  // bound's bucket).
  ++S.BucketCounts[std::lower_bound(M.UpperBounds.begin(),
                                    M.UpperBounds.end(), Value) -
                   M.UpperBounds.begin()];
  if (S.Count % S.Stride == 0) {
    if (S.Samples.size() == MaxRawSamples) {
      // Full at observation MaxRawSamples * Stride: keep the multiples of
      // 2 * Stride (every other retained sample). This observation is one
      // of them, since MaxRawSamples is even.
      for (size_t I = 0; I != MaxRawSamples / 2; ++I)
        S.Samples[I] = S.Samples[2 * I];
      S.Samples.resize(MaxRawSamples / 2);
      S.Stride *= 2;
    }
    S.Samples.push_back(Value);
  }
  ++S.Count;
}

void MetricsRegistry::defineBuckets(std::string_view Name,
                                    std::vector<double> UpperBounds) {
  assert(std::is_sorted(UpperBounds.begin(), UpperBounds.end()) &&
         "bucket bounds must ascend");
  std::lock_guard<std::mutex> Lock(Mtx);
  HistMetric &M = Histograms[std::string(Name)];
  if (M.ByLabel.empty())
    M.UpperBounds = std::move(UpperBounds);
}

std::vector<MetricsRegistry::CounterSample> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  std::vector<CounterSample> Out;
  for (const auto &[Name, M] : Counters)
    for (const auto &[Key, S] : M.ByLabel)
      Out.push_back({Name, S.Labels, S.Value});
  return Out;
}

std::vector<MetricsRegistry::CounterSample> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  std::vector<CounterSample> Out;
  for (const auto &[Name, M] : Gauges)
    for (const auto &[Key, S] : M.ByLabel)
      Out.push_back({Name, S.Labels, S.Value});
  return Out;
}

std::vector<MetricsRegistry::HistogramSample>
MetricsRegistry::histograms() const {
  std::vector<HistogramSample> Out;
  std::vector<std::vector<double>> Retained;
  {
    // Copy out under the lock; the sorts run after it is released so a
    // live poll (dra-top) never stalls the threads observing.
    std::lock_guard<std::mutex> Lock(Mtx);
    for (const auto &[Name, M] : Histograms)
      for (const auto &[Key, S] : M.ByLabel) {
        HistogramSample H;
        H.Name = Name;
        H.Labels = S.Labels;
        H.Count = S.Count;
        H.Sum = S.Sum;
        H.Min = S.Min;
        H.Max = S.Max;
        H.UpperBounds = M.UpperBounds;
        H.BucketCounts = S.BucketCounts;
        Out.push_back(std::move(H));
        Retained.push_back(S.Samples);
      }
  }
  for (size_t I = 0; I != Out.size(); ++I) {
    std::vector<double> &Sorted = Retained[I];
    std::sort(Sorted.begin(), Sorted.end());
    Out[I].P50 = percentile(Sorted, 50);
    Out[I].P90 = percentile(Sorted, 90);
    Out[I].P95 = percentile(Sorted, 95);
    Out[I].P99 = percentile(Sorted, 99);
  }
  return Out;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> Lock(Mtx);
  return Counters.empty() && Gauges.empty() && Histograms.empty();
}

namespace {

void writeLabels(std::ostream &OS, const MetricLabels &L) {
  OS << "{";
  bool First = true;
  for (const auto &[K, V] : L.entries()) {
    OS << (First ? "" : ", ") << "\"" << jsonEscape(K) << "\": \""
       << jsonEscape(V) << "\"";
    First = false;
  }
  OS << "}";
}

void writeCounterArray(
    std::ostream &OS, const char *Kind,
    const std::vector<MetricsRegistry::CounterSample> &Samples) {
  OS << "  \"" << Kind << "\": [";
  bool First = true;
  for (const auto &S : Samples) {
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "    {\"name\": \"" << jsonEscape(S.Name) << "\", \"labels\": ";
    writeLabels(OS, S.Labels);
    OS << ", \"value\": ";
    writeJsonNumber(OS, S.Value);
    OS << "}";
  }
  OS << (First ? "]" : "\n  ]");
}

} // namespace

void MetricsRegistry::writeJson(std::ostream &OS) const {
  OS << "{\n  \"schema\": \"" << SchemaVersion << "\",\n";
  writeCounterArray(OS, "counters", counters());
  OS << ",\n";
  writeCounterArray(OS, "gauges", gauges());
  OS << ",\n  \"histograms\": [";
  bool First = true;
  for (const HistogramSample &H : histograms()) {
    OS << (First ? "\n" : ",\n");
    First = false;
    OS << "    {\"name\": \"" << jsonEscape(H.Name) << "\", \"labels\": ";
    writeLabels(OS, H.Labels);
    OS << ", \"count\": " << H.Count << ", \"sum\": ";
    writeJsonNumber(OS, H.Sum);
    OS << ", \"min\": ";
    writeJsonNumber(OS, H.Min);
    OS << ", \"max\": ";
    writeJsonNumber(OS, H.Max);
    OS << ", \"p50\": ";
    writeJsonNumber(OS, H.P50);
    OS << ", \"p90\": ";
    writeJsonNumber(OS, H.P90);
    OS << ", \"p95\": ";
    writeJsonNumber(OS, H.P95);
    OS << ", \"p99\": ";
    writeJsonNumber(OS, H.P99);
    OS << ",\n     \"buckets\": [";
    for (size_t I = 0; I != H.BucketCounts.size(); ++I) {
      OS << (I ? ", " : "") << "{\"le\": ";
      if (I < H.UpperBounds.size())
        writeJsonNumber(OS, H.UpperBounds[I]);
      else
        OS << "\"+inf\"";
      OS << ", \"count\": " << H.BucketCounts[I] << "}";
    }
    OS << "]}";
  }
  OS << (First ? "]" : "\n  ]") << "\n}\n";
}

bool MetricsRegistry::writeJsonFile(const std::string &Path,
                                    std::string *Err) const {
  std::ofstream Out(Path);
  if (!Out) {
    if (Err)
      *Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  writeJson(Out);
  return true;
}

//===----------------------------------------------------------------------===//
// dra-metrics-v1 reader (JSON parsing itself lives in driver/Json.h)
//===----------------------------------------------------------------------===//

namespace {

bool setError(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// Rebuilds the flat `name{k=v,...}` key for one sample object.
bool flatKeyOf(const JsonValue &Sample, std::string &Key, std::string *Err) {
  const JsonValue *Name = Sample.field("name");
  if (!Name || Name->K != JsonValue::String)
    return setError(Err, "sample is missing a string \"name\"");
  const JsonValue *Labels = Sample.field("labels");
  if (!Labels || Labels->K != JsonValue::Object)
    return setError(Err, "sample \"" + Name->Str +
                             "\" is missing a \"labels\" object");
  MetricLabels L;
  for (const auto &[K, V] : Labels->Obj) {
    if (V.K != JsonValue::String)
      return setError(Err, "label \"" + K + "\" of \"" + Name->Str +
                               "\" is not a string");
    L.set(K, V.Str);
  }
  // Unlabeled series flatten to the bare name; labeled ones carry the
  // canonical key so `name` and `name{...}` never collide in dra-stats.
  Key = L.empty() ? Name->Str : Name->Str + "{" + L.key() + "}";
  return true;
}

bool numberField(const JsonValue &Obj, const char *Field, double &Out,
                 std::string *Err) {
  const JsonValue *V = Obj.field(Field);
  if (!V || V->K != JsonValue::Number)
    return setError(Err, std::string("missing numeric field \"") + Field +
                             "\"");
  Out = V->Num;
  return true;
}

} // namespace

bool dra::loadMetricsJson(std::istream &In, MetricsFileData &Out,
                          std::string *Err) {
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();

  JsonValue Root;
  std::string ParseErr;
  if (!parseJson(Text, Root, &ParseErr))
    return setError(Err, "malformed JSON: " + ParseErr);
  if (Root.K != JsonValue::Object)
    return setError(Err, "top-level value is not an object");

  const JsonValue *Schema = Root.field("schema");
  if (!Schema || Schema->K != JsonValue::String)
    return setError(Err, "missing \"schema\" string");
  if (Schema->Str != MetricsRegistry::SchemaVersion)
    return setError(Err, "unsupported schema \"" + Schema->Str +
                             "\" (expected " +
                             std::string(MetricsRegistry::SchemaVersion) +
                             ")");
  Out.Schema = Schema->Str;

  auto LoadScalars = [&](const char *Kind,
                         std::map<std::string, double> &Dest) -> bool {
    const JsonValue *Arr = Root.field(Kind);
    if (!Arr || Arr->K != JsonValue::Array)
      return setError(Err, std::string("missing \"") + Kind + "\" array");
    for (const JsonValue &Sample : Arr->Arr) {
      if (Sample.K != JsonValue::Object)
        return setError(Err, std::string(Kind) + " entry is not an object");
      std::string Key;
      if (!flatKeyOf(Sample, Key, Err))
        return false;
      double Value;
      if (!numberField(Sample, "value", Value, Err))
        return setError(Err, "sample \"" + Key + "\": " +
                                 (Err ? *Err : "bad value"));
      Dest[Key] = Value;
    }
    return true;
  };

  if (!LoadScalars("counters", Out.Counters) ||
      !LoadScalars("gauges", Out.Gauges))
    return false;

  const JsonValue *Hists = Root.field("histograms");
  if (!Hists || Hists->K != JsonValue::Array)
    return setError(Err, "missing \"histograms\" array");
  for (const JsonValue &Sample : Hists->Arr) {
    if (Sample.K != JsonValue::Object)
      return setError(Err, "histogram entry is not an object");
    std::string Key;
    if (!flatKeyOf(Sample, Key, Err))
      return false;
    MetricsFileData::HistSummary H;
    if (!numberField(Sample, "count", H.Count, Err) ||
        !numberField(Sample, "sum", H.Sum, Err) ||
        !numberField(Sample, "min", H.Min, Err) ||
        !numberField(Sample, "max", H.Max, Err) ||
        !numberField(Sample, "p50", H.P50, Err) ||
        !numberField(Sample, "p90", H.P90, Err) ||
        !numberField(Sample, "p99", H.P99, Err))
      return setError(Err, "histogram \"" + Key + "\": " +
                               (Err ? *Err : "bad field"));
    // p95 postdates the v1 schema's first release; files written before
    // it load with P95 = 0 rather than failing validation.
    if (Sample.field("p95") && !numberField(Sample, "p95", H.P95, Err))
      return setError(Err, "histogram \"" + Key + "\": " +
                               (Err ? *Err : "bad field"));
    const JsonValue *Buckets = Sample.field("buckets");
    if (!Buckets || Buckets->K != JsonValue::Array || Buckets->Arr.empty())
      return setError(Err, "histogram \"" + Key +
                               "\" is missing a non-empty \"buckets\" array");
    double BucketTotal = 0;
    for (const JsonValue &B : Buckets->Arr) {
      if (B.K != JsonValue::Object)
        return setError(Err, "histogram \"" + Key + "\": bucket is not an "
                                                    "object");
      double C;
      if (!numberField(B, "count", C, Err))
        return setError(Err, "histogram \"" + Key + "\": bucket without a "
                                                    "count");
      BucketTotal += C;
    }
    if (BucketTotal != H.Count)
      return setError(Err, "histogram \"" + Key +
                               "\": bucket counts do not sum to \"count\"");
    Out.Histograms[Key] = H;
  }
  return true;
}
