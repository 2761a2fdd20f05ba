//===- tests/metrics_test.cpp - Metrics registry tests --------------------===//

#include "driver/Json.h"
#include "driver/Metrics.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

using namespace dra;

namespace {

TEST(MetricLabels, CanonicalOrderAndKey) {
  MetricLabels L{{"scheme", "coalesce"}, {"function", "poly"}};
  ASSERT_EQ(L.entries().size(), 2u);
  EXPECT_EQ(L.entries()[0].first, "function"); // sorted, not insertion order
  EXPECT_EQ(L.key(), "function=poly,scheme=coalesce");

  L.set("scheme", "remap"); // last writer wins
  EXPECT_EQ(L.key(), "function=poly,scheme=remap");
  EXPECT_EQ(MetricLabels{}.key(), "");
}

TEST(MetricsRegistry, CountersAccumulatePerLabelSet) {
  MetricsRegistry Reg;
  EXPECT_TRUE(Reg.empty());
  Reg.count("x", 2, {{"scheme", "baseline"}});
  Reg.count("x", 3, {{"scheme", "baseline"}});
  Reg.count("x", 7, {{"scheme", "remap"}});
  Reg.count("a", 1);
  EXPECT_FALSE(Reg.empty());

  auto Counters = Reg.counters();
  ASSERT_EQ(Counters.size(), 3u);
  // Sorted by (name, label key).
  EXPECT_EQ(Counters[0].Name, "a");
  EXPECT_EQ(Counters[0].Value, 1);
  EXPECT_EQ(Counters[1].Name, "x");
  EXPECT_EQ(Counters[1].Labels.key(), "scheme=baseline");
  EXPECT_EQ(Counters[1].Value, 5);
  EXPECT_EQ(Counters[2].Labels.key(), "scheme=remap");
  EXPECT_EQ(Counters[2].Value, 7);
}

TEST(MetricsRegistry, SetCountIsIdempotentAcrossFlushes) {
  // The non-destructive flush path: a subsystem snapshots its own
  // monotonic totals into the registry repeatedly (the compile server's
  // periodic metrics export); the exported value must track the latest
  // snapshot, not the sum of every flush.
  MetricsRegistry Reg;
  Reg.setCount("server.requests", 10, {{"tier", "hit_mem"}});
  Reg.setCount("server.requests", 10, {{"tier", "hit_mem"}}); // re-flush
  Reg.setCount("server.requests", 25, {{"tier", "hit_mem"}}); // progress
  auto Counters = Reg.counters();
  ASSERT_EQ(Counters.size(), 1u);
  EXPECT_EQ(Counters[0].Value, 25);

  // setCount and count compose: an absolute snapshot replaces whatever
  // deltas accumulated, and later deltas build on top of it.
  Reg.count("server.requests", 5, {{"tier", "hit_mem"}});
  EXPECT_EQ(Reg.counters()[0].Value, 30);
  Reg.setCount("server.requests", 7, {{"tier", "hit_mem"}});
  EXPECT_EQ(Reg.counters()[0].Value, 7);
}

TEST(MetricsRegistry, GaugesLastWriterWins) {
  MetricsRegistry Reg;
  Reg.gauge("g", 1.5);
  Reg.gauge("g", 2.5);
  auto Gauges = Reg.gauges();
  ASSERT_EQ(Gauges.size(), 1u);
  EXPECT_EQ(Gauges[0].Value, 2.5);
}

TEST(MetricsRegistry, ConcurrentCountsAreExact) {
  MetricsRegistry Reg;
  constexpr int Threads = 8, PerThread = 5000;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&Reg] {
      for (int I = 0; I != PerThread; ++I) {
        Reg.count("hits", 1, {{"scheme", "coalesce"}});
        Reg.observe("lat", 1.0);
      }
    });
  for (std::thread &T : Pool)
    T.join();

  auto Counters = Reg.counters();
  ASSERT_EQ(Counters.size(), 1u);
  // Integer-valued doubles add exactly, so the result is deterministic
  // regardless of interleaving.
  EXPECT_EQ(Counters[0].Value, Threads * PerThread);
  auto Hists = Reg.histograms();
  ASSERT_EQ(Hists.size(), 1u);
  EXPECT_EQ(Hists[0].Count, static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(Hists[0].Sum, Threads * PerThread);
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry Reg;
  Reg.defineBuckets("h", {1, 10, 100});
  // A value equal to an upper bound belongs to that bound's bucket
  // (half-open lower side: (prev, bound]).
  Reg.observe("h", 1);    // bucket le=1
  Reg.observe("h", 1.5);  // bucket le=10
  Reg.observe("h", 10);   // bucket le=10
  Reg.observe("h", 100);  // bucket le=100
  Reg.observe("h", 101);  // +inf overflow
  Reg.observe("h", -5);   // below everything -> first bucket

  auto Hists = Reg.histograms();
  ASSERT_EQ(Hists.size(), 1u);
  const auto &H = Hists[0];
  ASSERT_EQ(H.UpperBounds.size(), 3u);
  ASSERT_EQ(H.BucketCounts.size(), 4u);
  EXPECT_EQ(H.BucketCounts[0], 2u); // 1 and -5
  EXPECT_EQ(H.BucketCounts[1], 2u); // 1.5 and 10
  EXPECT_EQ(H.BucketCounts[2], 1u); // 100
  EXPECT_EQ(H.BucketCounts[3], 1u); // 101
  EXPECT_EQ(H.Count, 6u);
  EXPECT_EQ(H.Min, -5);
  EXPECT_EQ(H.Max, 101);
}

TEST(MetricsRegistry, HistogramPercentiles) {
  MetricsRegistry Reg;
  for (int I = 1; I <= 100; ++I)
    Reg.observe("p", I);
  auto Hists = Reg.histograms();
  ASSERT_EQ(Hists.size(), 1u);
  const auto &H = Hists[0];
  // adt/Statistics linear interpolation over 1..100.
  EXPECT_NEAR(H.P50, 50.5, 1e-9);
  EXPECT_NEAR(H.P90, 90.1, 1e-9);
  EXPECT_NEAR(H.P95, 95.05, 1e-9);
  EXPECT_NEAR(H.P99, 99.01, 1e-9);
  EXPECT_EQ(H.Sum, 5050);

  // Single-sample histogram: all percentiles collapse onto the sample.
  MetricsRegistry One;
  One.observe("p", 42);
  const auto H1 = One.histograms().at(0);
  EXPECT_EQ(H1.P50, 42);
  EXPECT_EQ(H1.P99, 42);
  EXPECT_EQ(H1.Min, 42);
  EXPECT_EQ(H1.Max, 42);
}

TEST(MetricsRegistry, HistogramMemoryIsBoundedAndSummaryExact) {
  constexpr size_t N = 10 * MetricsRegistry::MaxRawSamples;
  MetricsRegistry Reg;
  Reg.defineBuckets("ramp", {1000, 10000, 50000});
  for (size_t I = 1; I <= N; ++I)
    Reg.observe("ramp", static_cast<double>(I));
  auto Hists = Reg.histograms();
  ASSERT_EQ(Hists.size(), 1u);
  const auto &H = Hists[0];
  EXPECT_EQ(H.Count, N);
  EXPECT_EQ(H.Sum, double(N) * double(N + 1) / 2);
  EXPECT_EQ(H.Min, 1);
  EXPECT_EQ(H.Max, double(N));
  ASSERT_EQ(H.BucketCounts.size(), 4u);
  EXPECT_EQ(H.BucketCounts[0], 1000u);
  EXPECT_EQ(H.BucketCounts[1], 9000u);
  EXPECT_EQ(H.BucketCounts[2], 40000u);
  EXPECT_EQ(H.BucketCounts[3], N - 50000);
  // Exact interpolated percentile of the ramp 1..N.
  auto Exact = [&](double P) { return 1 + P / 100 * double(N - 1); };
  EXPECT_NEAR(H.P50, Exact(50), 0.01 * Exact(50));
  EXPECT_NEAR(H.P90, Exact(90), 0.01 * Exact(90));
  EXPECT_NEAR(H.P95, Exact(95), 0.01 * Exact(95));
  EXPECT_NEAR(H.P99, Exact(99), 0.01 * Exact(99));

  // Decimation is deterministic: the same (non-monotone) stream into two
  // registries snapshots identically.
  MetricsRegistry A, B;
  uint64_t X = 42;
  for (size_t I = 0; I != N; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    const double V = static_cast<double>((X >> 33) % 100000);
    A.observe("lat", V, {{"tier", "hit_mem"}});
    B.observe("lat", V, {{"tier", "hit_mem"}});
  }
  std::ostringstream JA, JB;
  A.writeJson(JA);
  B.writeJson(JB);
  EXPECT_EQ(JA.str(), JB.str());
}

TEST(JsonEscape, QuotesBackslashesControlChars) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(WriteJsonNumber, LosslessIntegersAndDoubles) {
  auto Str = [](double V) {
    std::ostringstream OS;
    writeJsonNumber(OS, V);
    return OS.str();
  };
  EXPECT_EQ(Str(0), "0");
  EXPECT_EQ(Str(-3), "-3");
  // The satellite bug: default ostream precision printed this as
  // 1.23457e+14. Integral doubles must round-trip exactly.
  EXPECT_EQ(Str(123456789012345.0), "123456789012345");
  EXPECT_EQ(Str(0.5), "0.5");
  EXPECT_EQ(Str(std::nan("")), "0");          // JSON has no NaN
  EXPECT_EQ(Str(HUGE_VAL), "0");              // ... or Infinity
  double Big = std::ldexp(1.0, 60);           // beyond 2^53: not exact
  EXPECT_EQ(std::stod(Str(Big)), Big);        // but still round-trips
}

TEST(MetricsRegistry, JsonGolden) {
  MetricsRegistry Reg;
  Reg.count("batch.fns", 2, {{"scheme", "remap"}});
  Reg.gauge("cost", 1.5);
  Reg.defineBuckets("lat", {10, 20});
  Reg.observe("lat", 5);
  Reg.observe("lat", 25);

  std::ostringstream OS;
  Reg.writeJson(OS);
  EXPECT_EQ(OS.str(),
            "{\n"
            "  \"schema\": \"dra-metrics-v1\",\n"
            "  \"counters\": [\n"
            "    {\"name\": \"batch.fns\", \"labels\": {\"scheme\": "
            "\"remap\"}, \"value\": 2}\n"
            "  ],\n"
            "  \"gauges\": [\n"
            "    {\"name\": \"cost\", \"labels\": {}, \"value\": 1.5}\n"
            "  ],\n"
            "  \"histograms\": [\n"
            "    {\"name\": \"lat\", \"labels\": {}, \"count\": 2, \"sum\": "
            "30, \"min\": 5, \"max\": 25, \"p50\": 15, \"p90\": 23, "
            "\"p95\": 24, \"p99\": 24.8,\n"
            "     \"buckets\": [{\"le\": 10, \"count\": 1}, {\"le\": 20, "
            "\"count\": 0}, {\"le\": \"+inf\", \"count\": 1}]}\n"
            "  ]\n"
            "}\n");
}

TEST(LoadMetricsJson, RoundTripsRegistryOutput) {
  MetricsRegistry Reg;
  Reg.count("c\"tricky\\name", 3, {{"fn", "a b"}});
  Reg.gauge("g", -2.25);
  Reg.observe("h", 7, {{"stage", "alloc"}});

  std::ostringstream OS;
  Reg.writeJson(OS);
  std::istringstream In(OS.str());
  MetricsFileData Data;
  std::string Err;
  ASSERT_TRUE(loadMetricsJson(In, Data, &Err)) << Err;
  EXPECT_EQ(Data.Schema, "dra-metrics-v1");
  ASSERT_EQ(Data.Counters.size(), 1u);
  EXPECT_EQ(Data.Counters.at("c\"tricky\\name{fn=a b}"), 3);
  EXPECT_EQ(Data.Gauges.at("g"), -2.25);
  ASSERT_EQ(Data.Histograms.size(), 1u);
  const auto &H = Data.Histograms.at("h{stage=alloc}");
  EXPECT_EQ(H.Count, 1);
  EXPECT_EQ(H.Sum, 7);
  EXPECT_EQ(H.P50, 7);
  EXPECT_EQ(H.P95, 7);
}

TEST(LoadMetricsJson, AcceptsHistogramsWithoutP95) {
  // Metrics files written before the p95 field existed (the checked-in CI
  // baselines) must keep loading; the missing percentile reads as 0.
  std::istringstream In(
      "{\"schema\": \"dra-metrics-v1\", \"counters\": [], \"gauges\": [],"
      " \"histograms\": [{\"name\": \"h\", \"labels\": {}, \"count\": 1,"
      " \"sum\": 4, \"min\": 4, \"max\": 4, \"p50\": 4, \"p90\": 4,"
      " \"p99\": 4, \"buckets\": [{\"le\": \"+inf\", \"count\": 1}]}]}");
  MetricsFileData Data;
  std::string Err;
  ASSERT_TRUE(loadMetricsJson(In, Data, &Err)) << Err;
  EXPECT_EQ(Data.Histograms.at("h").P99, 4);
  EXPECT_EQ(Data.Histograms.at("h").P95, 0);
}

TEST(LoadMetricsJson, RejectsBadDocuments) {
  auto Load = [](const std::string &Text, std::string *Err = nullptr) {
    std::istringstream In(Text);
    MetricsFileData Data;
    return loadMetricsJson(In, Data, Err);
  };
  std::string Err;
  EXPECT_FALSE(Load("{not json", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(Load("{\"schema\": \"other-v9\", \"counters\": [], "
                    "\"gauges\": [], \"histograms\": []}",
                    &Err));
  // A histogram whose bucket counts do not add up to its count.
  EXPECT_FALSE(Load(
      "{\"schema\": \"dra-metrics-v1\", \"counters\": [], \"gauges\": [],"
      " \"histograms\": [{\"name\": \"h\", \"labels\": {}, \"count\": 5,"
      " \"sum\": 1, \"min\": 0, \"max\": 1, \"p50\": 0, \"p90\": 0,"
      " \"p99\": 0, \"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\":"
      " \"+inf\", \"count\": 1}]}]}",
      &Err));
  // Counter samples must carry a name.
  EXPECT_FALSE(Load(
      "{\"schema\": \"dra-metrics-v1\", \"counters\": [{\"labels\": {},"
      " \"value\": 1}], \"gauges\": [], \"histograms\": []}",
      &Err));
}

TEST(ScopedSpanTest, NullSinkRecordsNothingNonNullNests) {
  { ScopedSpan Off(nullptr, "x"); } // must be a no-op
  std::vector<StageSpan> Spans;
  {
    ScopedSpan Outer(&Spans, "alloc", 0);
    { ScopedSpan Inner(&Spans, "alloc.round", 1); }
  }
  ASSERT_EQ(Spans.size(), 2u);
  // Inner scopes close first.
  EXPECT_STREQ(Spans[0].Stage, "alloc.round");
  EXPECT_EQ(Spans[0].Depth, 1u);
  EXPECT_STREQ(Spans[1].Stage, "alloc");
  EXPECT_EQ(Spans[1].Depth, 0u);
  EXPECT_LE(Spans[1].BeginNs, Spans[0].BeginNs);
  EXPECT_GE(Spans[1].EndNs, Spans[0].EndNs);
}

TEST(MetricsRegistry, SnapshotFlushRacesWithWorkerIncrements) {
  // The server's flushMetrics idiom: an atomic source counter mirrored
  // into the registry with setCount while workers keep incrementing and
  // other counters accumulate via count(). Snapshots taken mid-race must
  // be internally consistent, and two consecutive flushes after
  // quiescence must agree exactly — setCount is idempotent, so nothing is
  // lost or double-counted no matter how the flush interleaved.
  MetricsRegistry Reg;
  std::atomic<uint64_t> Source{0};
  std::atomic<bool> Stop{false};
  constexpr int Workers = 4, PerWorker = 5000;

  std::thread Flusher([&] {
    double LastSeen = 0;
    while (!Stop.load()) {
      Reg.setCount("server.requests", double(Source.load()));
      for (const auto &C : Reg.counters()) // concurrent snapshot
        if (C.Name == "server.requests") {
          EXPECT_GE(C.Value, LastSeen); // mirror never goes backwards
          LastSeen = C.Value;
        }
    }
  });
  std::vector<std::thread> Producers;
  for (int W = 0; W != Workers; ++W)
    Producers.emplace_back([&] {
      for (int I = 0; I != PerWorker; ++I) {
        Source.fetch_add(1);
        Reg.count("worker.ops", 1.0);
      }
    });
  for (std::thread &T : Producers)
    T.join();
  Stop.store(true);
  Flusher.join();

  auto ValueOf = [&](const char *Name) {
    for (const auto &C : Reg.counters())
      if (C.Name == Name)
        return C.Value;
    return -1.0;
  };
  const double Expected = double(Workers) * PerWorker;
  Reg.setCount("server.requests", double(Source.load()));
  EXPECT_EQ(Expected, ValueOf("server.requests"));
  EXPECT_EQ(Expected, ValueOf("worker.ops"));
  Reg.setCount("server.requests", double(Source.load())); // second flush
  EXPECT_EQ(Expected, ValueOf("server.requests")); // unchanged, not doubled
  EXPECT_EQ(Expected, ValueOf("worker.ops"));
}

TEST(ParseJson, ReadsOurFormatsAndRejectsGarbage) {
  JsonValue V;
  std::string Err;
  ASSERT_TRUE(parseJson(
      "{\"a\": [1, 2.5, -3], \"b\": {\"s\": \"x\\n\"}, "
      "\"t\": true, \"n\": null}",
      V, &Err))
      << Err;
  ASSERT_EQ(JsonValue::Object, V.K);
  ASSERT_NE(nullptr, V.field("a"));
  EXPECT_EQ(3u, V.field("a")->Arr.size());
  EXPECT_EQ(2.5, V.field("a")->Arr[1].Num);
  EXPECT_EQ("x\n", V.field("b")->field("s")->Str);
  EXPECT_TRUE(V.field("t")->B);
  EXPECT_EQ(JsonValue::Null, V.field("n")->K);
  EXPECT_EQ(nullptr, V.field("missing"));

  EXPECT_FALSE(parseJson("", V, &Err));
  EXPECT_FALSE(parseJson("{", V, &Err));
  EXPECT_FALSE(parseJson("{} trailing", V, &Err)); // complete doc only
  EXPECT_FALSE(parseJson("{\"a\": }", V, &Err));
  EXPECT_FALSE(parseJson("[1, 2,]", V, &Err));
  EXPECT_FALSE(parseJson("nope", V, &Err));
  EXPECT_FALSE(Err.empty()); // offset diagnostic populated
}

} // namespace
