//===- bench/bench_alloc_core.cpp - Allocator data-layout kernels ---------===//
//
// Microbenchmark for the allocator hot core's flat data layout. It times
// the production classes the allocator runs, on the same workloads every
// run:
//
//  * build: InterferenceGraph::reset, addEdge and degree over every edge
//    of every workload (bit-matrix insert plus degree array);
//  * coalescing query: InterferenceGraph::interferes over random, mostly
//    absent pairs (the George/Briggs adjacency tests);
//  * simplify: the IRC simplify loop over InterferenceGraph::neighbors
//    (CSR rows) with IndexSet worklists, taking the minimum node first
//    exactly as the allocator does;
//  * coalesce probes: production coalesceAndColor (the differential
//    coalescer of Figure 9 and the O-spill arm's move-cost-only one) on a
//    seeded medium function already spilled to K = 12, timed per
//    tentative coalescence probed.
//
// Each kernel folds its result into a checksum (degrees, hit counts, pick
// order, every CoalesceResult counter) that must equal a recorded
// constant, so a change to the graph, the probes, the worklist discipline
// or the coalescer's decisions exits 1 instead of timing different work.
//
// Workloads are interference graphs of ProgramGen functions (real edge
// distributions, built through Liveness + InterferenceGraph) plus one
// larger seeded synthetic graph for scale; the coalesce kernel runs on a
// jpeg-shaped function of 320-360 instructions, drawn as perfbench draws
// its medium functions.
//
// Modes:
//  * default: prints a kernel table and writes BENCH_alloc.json in the
//    working directory;
//  * --perf-out=DIR: writes DIR/alloc_perf.json with the same gauges.
//    CI runs dra-stats --fail-on over the four gauges with this file as
//    the base and tests/data/ci_alloc_perf_baseline.json as the current
//    file: build, simplify and coalesce probes fail below a third of the
//    checked-in baseline (:200), adjacency queries below half (:100).
//
//===----------------------------------------------------------------------===//

#include "SuiteRunner.h"

#include "adt/IndexSet.h"
#include "adt/Rng.h"
#include "analysis/Liveness.h"
#include "core/DiffCoalesce.h"
#include "core/OptimalSpill.h"
#include "regalloc/InterferenceGraph.h"
#include "workloads/MiBench.h"
#include "workloads/ProgramGen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

using namespace dra;

namespace {

/// Kernel checksums at Reps = 40 and K = 8 over the four workloads in
/// main(). Recorded when this bench still ran every kernel a second time
/// on the pre-flat layout (hashed edge sets, std::set worklists) and both
/// layouts agreed on all three.
constexpr uint64_t BuildChecksum = 0x305f1dae4049ddb6ull;
constexpr uint64_t QueryChecksum = 0x08155dd4e9939280ull;
constexpr uint64_t SimplifyChecksum = 0x1430877b62ba84f0ull;
/// Every CoalesceResult counter of the coalesce kernel's two runs (DiffAware
/// on, then off) and the bit patterns of their final adjacency costs.
/// Recorded on the tree that still copied a fresh MergedGraph for every
/// probe and colored it with per-node heap vectors.
constexpr uint64_t CoalesceChecksum = 0xd5abe3fb368199d8ull;

/// One undirected graph as a flat edge list (A < B), node count attached.
struct EdgeList {
  std::string Name;
  uint32_t N = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
};

uint64_t fnv1a(uint64_t H, uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (I * 8)) & 0xff;
    H *= 1099511628211ull;
  }
  return H;
}

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

/// Interference edges of one generated program, via the production build
/// path (Liveness + InterferenceGraph), de-duplicated and normalized.
EdgeList programEdges(const char *Name, uint64_t Seed, unsigned Pressure) {
  ProgramProfile P;
  P.Seed = Seed;
  P.PressureVars = Pressure;
  P.TopStatements = 18;
  P.OuterTrip = 2;
  Function F = generateProgram(Name, P);
  F.recomputeCFG();
  Liveness LV = Liveness::compute(F);
  InterferenceGraph G = InterferenceGraph::build(F, LV);
  EdgeList E;
  E.Name = Name;
  E.N = G.numNodes();
  for (uint32_t A = 0; A != E.N; ++A)
    for (RegId B : G.neighbors(A))
      if (A < B)
        E.Edges.emplace_back(A, B);
  return E;
}

/// Seeded sparse random graph: the scale the per-function graphs cannot
/// reach, with the allocator-typical low average degree.
EdgeList syntheticEdges(uint32_t N, uint32_t AvgDeg, uint64_t Seed) {
  EdgeList E;
  E.Name = "synthetic";
  E.N = N;
  Rng R(Seed);
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  uint64_t Target = static_cast<uint64_t>(N) * AvgDeg / 2;
  while (Seen.size() < Target) {
    uint32_t A = static_cast<uint32_t>(R.nextBelow(N));
    uint32_t B = static_cast<uint32_t>(R.nextBelow(N));
    if (A == B)
      continue;
    if (A > B)
      std::swap(A, B);
    Seen.insert({A, B});
  }
  E.Edges.assign(Seen.begin(), Seen.end());
  return E;
}

/// Loads \p E into \p G through the production insert path.
void loadGraph(InterferenceGraph &G, const EdgeList &E) {
  G.reset(E.N);
  for (auto [A, B] : E.Edges)
    G.addEdge(A, B);
}

/// Kernel 1: graph construction — all edges of every workload inserted
/// into a freshly reset graph. Checksum: degree array.
uint64_t buildKernel(const std::vector<EdgeList> &Work, double &Edges) {
  uint64_t H = 14695981039346656037ull;
  InterferenceGraph G;
  for (const EdgeList &E : Work) {
    loadGraph(G, E);
    Edges += static_cast<double>(E.Edges.size());
    for (RegId Node = 0; Node != E.N; ++Node)
      H = fnv1a(H, G.degree(Node));
  }
  return H;
}

/// Kernel 2: coalescing-style membership probes — the George/Briggs tests
/// are adjacency queries over mostly-absent pairs. Checksum: hit count.
uint64_t queryKernel(const InterferenceGraph &G, uint64_t Seed,
                     uint64_t Probes) {
  const uint32_t N = G.numNodes();
  Rng R(Seed);
  uint64_t Hits = 0;
  for (uint64_t I = 0; I != Probes; ++I) {
    uint32_t A = static_cast<uint32_t>(R.nextBelow(N));
    uint32_t B = static_cast<uint32_t>(R.nextBelow(N));
    if (A != B && G.interferes(A, B))
      ++Hits;
  }
  return Hits;
}

/// Kernel 3: the simplify loop — repeatedly take the minimum node from the
/// low-degree worklist, remove it, decrement its still-present neighbors,
/// and migrate any neighbor whose degree drops below K from the
/// high-degree set. Checksum: pick order, then the leftover spill
/// candidates in ascending order.
uint64_t simplifyKernel(const InterferenceGraph &G, unsigned K,
                        double &Picks) {
  const uint32_t N = G.numNodes();
  std::vector<unsigned> Deg(N);
  for (RegId Node = 0; Node != N; ++Node)
    Deg[Node] = G.degree(Node);
  std::vector<char> Removed(N, 0);
  IndexSet Low(N), High(N);
  for (uint32_t I = 0; I != N; ++I)
    (Deg[I] < K ? Low : High).insert(I);
  uint64_t H = 14695981039346656037ull;
  while (!Low.empty()) {
    uint32_t Node = Low.first();
    Low.erase(Node);
    Removed[Node] = 1;
    H = fnv1a(H, Node);
    ++Picks;
    for (RegId Nb : G.neighbors(Node)) {
      if (Removed[Nb])
        continue;
      if (Deg[Nb]-- == K) {
        High.erase(Nb);
        Low.insert(Nb);
      }
    }
  }
  High.forEach([&](uint32_t Node) { H = fnv1a(H, Node); });
  return H;
}

/// The coalesce kernel's input: a jpeg-shaped medium function spilled to
/// K = 12 by optimalSpill, as the Coalesce scheme does before coalescing.
Function coalesceInput() {
  Rng R(2024);
  Function F =
      generateSizedProgram("coalesce_med", miBenchProfile("jpeg"), R, 320, 360);
  optimalSpill(F, 12);
  return F;
}

/// Kernel 4: production coalesceAndColor on a copy of \p Spilled under
/// both DiffAware settings. Checksum: every CoalesceResult counter and
/// the bit pattern of FinalAdjCost, per setting.
uint64_t coalesceKernel(const Function &Spilled, double &Probes) {
  const EncodingConfig C = lowEndConfig(12);
  uint64_t H = 14695981039346656037ull;
  for (bool DiffAware : {true, false}) {
    Function F = Spilled;
    CoalesceResult R = coalesceAndColor(F, C, DiffAware);
    Probes += static_cast<double>(R.ProbesAttempted);
    uint64_t CostBits;
    std::memcpy(&CostBits, &R.FinalAdjCost, sizeof CostBits);
    for (uint64_t V :
         {uint64_t(R.MovesCoalesced), uint64_t(R.MovesRemaining),
          uint64_t(R.ExtraSpilledRanges), CostBits, uint64_t(R.Steps),
          uint64_t(R.Success), uint64_t(R.OracleCalls),
          uint64_t(R.ProbesAttempted), uint64_t(R.ProbesUncolorable),
          uint64_t(R.SpillRestarts)})
      H = fnv1a(H, V);
  }
  return H;
}

/// One kernel's measurements.
struct KernelPerf {
  double Seconds = 0;
  double Units = 0; // edges inserted / probes / nodes simplified
  double PerSec() const { return Units / Seconds; }
};

struct AllocPerf {
  KernelPerf Build, Query, Simplify, Coalesce;
};

/// Exits the process when a kernel's checksum is not the recorded one.
void checkChecksum(const char *Kernel, uint64_t Got, uint64_t Want) {
  if (Got == Want)
    return;
  std::fprintf(stderr,
               "CHECKSUM MISMATCH: %s kernel: 0x%016llx, expected "
               "0x%016llx\n",
               Kernel, static_cast<unsigned long long>(Got),
               static_cast<unsigned long long>(Want));
  std::exit(1);
}

/// Runs the three graph kernels over \p Work and the coalesce kernel over
/// \p Spilled; exits the process on any checksum mismatch.
AllocPerf measure(const std::vector<EdgeList> &Work, const Function &Spilled,
                  unsigned Reps, unsigned CoalesceReps, unsigned K) {
  AllocPerf P;
  auto T0 = std::chrono::steady_clock::now();
  uint64_t H = 0;
  for (unsigned R = 0; R != Reps; ++R)
    H = buildKernel(Work, P.Build.Units);
  P.Build.Seconds = secondsSince(T0);
  checkChecksum("build", H, BuildChecksum);

  // Prebuild every workload once for the other kernels, with the CSR rows
  // materialized outside the timed loops.
  std::vector<InterferenceGraph> Graphs(Work.size());
  for (size_t I = 0; I != Work.size(); ++I) {
    loadGraph(Graphs[I], Work[I]);
    (void)Graphs[I].neighbors(0); // materializes the CSR rows
  }

  // Query kernel: a fixed probe count per graph.
  const uint64_t ProbesPer = 200000;
  T0 = std::chrono::steady_clock::now();
  H = 0;
  for (unsigned R = 0; R != Reps; ++R)
    for (size_t I = 0; I != Work.size(); ++I) {
      H = fnv1a(H, queryKernel(Graphs[I], 77 + I, ProbesPer));
      P.Query.Units += static_cast<double>(ProbesPer);
    }
  P.Query.Seconds = secondsSince(T0);
  checkChecksum("query", H, QueryChecksum);

  T0 = std::chrono::steady_clock::now();
  H = 0;
  for (unsigned R = 0; R != Reps; ++R)
    for (const InterferenceGraph &G : Graphs)
      H = fnv1a(H, simplifyKernel(G, K, P.Simplify.Units));
  P.Simplify.Seconds = secondsSince(T0);
  checkChecksum("simplify", H, SimplifyChecksum);

  T0 = std::chrono::steady_clock::now();
  for (unsigned R = 0; R != CoalesceReps; ++R)
    H = coalesceKernel(Spilled, P.Coalesce.Units);
  P.Coalesce.Seconds = secondsSince(T0);
  checkChecksum("coalesce", H, CoalesceChecksum);
  return P;
}

bool writeGauges(const std::string &Path, const AllocPerf &P) {
  MetricsRegistry Reg;
  Reg.gauge("alloc.build_edges_per_sec", P.Build.PerSec());
  Reg.gauge("coalesce.adjacency_tests_per_sec", P.Query.PerSec());
  Reg.gauge("alloc.simplify_per_sec", P.Simplify.PerSec());
  Reg.gauge("coalesce.probes_per_sec", P.Coalesce.PerSec());
  std::string Err;
  if (!Reg.writeJsonFile(Path, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", Path.c_str());
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string PerfOut;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--perf-out=", 0) == 0)
      PerfOut = Arg.substr(std::strlen("--perf-out="));
    else {
      std::fprintf(stderr, "usage: bench_alloc_core [--perf-out=DIR]\n");
      return 2;
    }
  }

  std::vector<EdgeList> Work;
  Work.push_back(programEdges("p_light", 11, 10));
  Work.push_back(programEdges("p_mid", 29, 20));
  Work.push_back(programEdges("p_heavy", 47, 32));
  Work.push_back(syntheticEdges(1024, 24, 123));

  double TotalEdges = 0;
  for (const EdgeList &E : Work)
    TotalEdges += static_cast<double>(E.Edges.size());
  const Function Spilled = coalesceInput();
  std::printf("allocator core kernels: %zu graph(s), %.0f edge(s) total, "
              "%zu-instruction coalesce input, checksums verified\n\n",
              Work.size(), TotalEdges, Spilled.numInsts());

  const AllocPerf P =
      measure(Work, Spilled, /*Reps=*/40, /*CoalesceReps=*/3, /*K=*/8);
  std::printf("%-26s %14s\n", "kernel", "per second");
  std::printf("%-26s %14.0f\n", "build (edges)", P.Build.PerSec());
  std::printf("%-26s %14.0f\n", "coalesce query (tests)", P.Query.PerSec());
  std::printf("%-26s %14.0f\n", "simplify (nodes)", P.Simplify.PerSec());
  std::printf("%-26s %14.0f\n", "coalesce (probes)", P.Coalesce.PerSec());

  if (!PerfOut.empty()) {
    namespace fs = std::filesystem;
    std::error_code EC;
    fs::create_directories(PerfOut, EC);
    return writeGauges((fs::path(PerfOut) / "alloc_perf.json").string(), P)
               ? 0
               : 1;
  }
  return writeGauges("BENCH_alloc.json", P) ? 0 : 1;
}
