//===- driver/ResultCache.cpp - Content-addressed result cache ------------===//

#include "driver/ResultCache.h"

#include "driver/Trace.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace dra;

namespace fs = std::filesystem;

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t fnv1a(const char *Data, size_t Len, uint64_t H = FnvOffset) {
  for (size_t I = 0; I != Len; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= FnvPrime;
  }
  return H;
}

/// SplitMix64 finalizer: decorrelates the verify-sampling decision from
/// the shard choice (both are derived from the same key).
uint64_t remix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Streaming FNV-1a over typed fields (every integer is folded in as 8
/// little-endian bytes so the key is layout- and endianness-stable).
class KeyHasher {
public:
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      byte(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u32(uint32_t V) { u64(V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void u8(uint8_t V) { u64(V); }
  void str(const char *S) {
    for (; *S; ++S)
      byte(static_cast<uint8_t>(*S));
    byte(0);
  }
  uint64_t get() const { return H; }

private:
  void byte(uint8_t B) {
    H ^= B;
    H *= FnvPrime;
  }
  uint64_t H = FnvOffset;
};

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

/// Doubles travel as their 64-bit pattern in hex: round trips are exact
/// (the verify pass compares payloads byte-for-byte) and locale-immune.
void putDouble(std::ostream &OS, double V) {
  OS << ' ' << hex16(std::bit_cast<uint64_t>(V));
}

/// Whitespace-separated token reader over a serialized payload. Every
/// accessor is total: malformed input returns false, never throws.
class TokenReader {
public:
  explicit TokenReader(const std::string &S) : In(S) {}

  bool word(std::string &W) { return static_cast<bool>(In >> W); }

  bool expect(const char *Tag) {
    std::string W;
    return word(W) && W == Tag;
  }

  bool u64(uint64_t &V) {
    std::string W;
    if (!word(W) || W.empty())
      return false;
    errno = 0;
    char *End = nullptr;
    unsigned long long X = std::strtoull(W.c_str(), &End, 10);
    if (End != W.c_str() + W.size() || errno == ERANGE || W[0] == '-')
      return false;
    V = X;
    return true;
  }

  bool u32(uint32_t &V) {
    uint64_t X;
    if (!u64(X) || X > 0xffffffffull)
      return false;
    V = static_cast<uint32_t>(X);
    return true;
  }

  bool i64(int64_t &V) {
    std::string W;
    if (!word(W) || W.empty())
      return false;
    errno = 0;
    char *End = nullptr;
    long long X = std::strtoll(W.c_str(), &End, 10);
    if (End != W.c_str() + W.size() || errno == ERANGE)
      return false;
    V = X;
    return true;
  }

  bool boolean(bool &V) {
    uint64_t X;
    if (!u64(X) || X > 1)
      return false;
    V = X != 0;
    return true;
  }

  bool size(size_t &V) {
    uint64_t X;
    if (!u64(X))
      return false;
    V = static_cast<size_t>(X);
    return true;
  }

  bool uns(unsigned &V) {
    uint32_t X;
    if (!u32(X))
      return false;
    V = X;
    return true;
  }

  bool dbl(double &V) {
    std::string W;
    if (!word(W) || W.size() != 16)
      return false;
    errno = 0;
    char *End = nullptr;
    unsigned long long X = std::strtoull(W.c_str(), &End, 16);
    if (End != W.c_str() + 16 || errno == ERANGE)
      return false;
    V = std::bit_cast<double>(static_cast<uint64_t>(X));
    return true;
  }

private:
  std::istringstream In;
};

/// Unique-enough temp-file suffix for the atomic write (concurrent
/// writers of the *same* key write identical content, but their streams
/// must not interleave in one file before the rename).
std::string tmpSuffix() {
  return ".tmp" +
         std::to_string(std::hash<std::thread::id>{}(
                            std::this_thread::get_id()) &
                        0xffffff);
}

} // namespace

ResultCache::ResultCache(const ResultCacheOptions &O)
    : Opts(O), Shards(std::max(1u, O.Shards)) {
  ShardBudget = Opts.MemBudgetBytes / Shards.size();
  VerifyFrac.store(std::clamp(O.VerifyFraction, 0.0, 1.0),
                   std::memory_order_relaxed);
}

void ResultCache::setVerifyFraction(double F) {
  VerifyFrac.store(std::clamp(F, 0.0, 1.0), std::memory_order_relaxed);
}

bool ResultCache::shouldVerify(uint64_t Key) const {
  double F = VerifyFrac.load(std::memory_order_relaxed);
  if (F <= 0)
    return false;
  if (F >= 1)
    return true;
  // 53 uniform bits in [0, 1); deterministic per key, so a given entry is
  // either always or never sampled under a fixed fraction.
  double U = static_cast<double>(remix(Key) >> 11) * 0x1.0p-53;
  return U < F;
}

//===----------------------------------------------------------------------===//
// Key derivation
//===----------------------------------------------------------------------===//

uint64_t ResultCache::cacheKey(const Function &Src, const PipelineConfig &C) {
  KeyHasher H;
  H.str(FormatVersion);

  // Function content. The name is deliberately absent (content
  // addressing); CFG edge lists are derived state and also absent.
  H.u32(Src.NumRegs);
  H.u32(Src.MemWords);
  H.u32(Src.NumSpillSlots);
  H.u64(Src.Blocks.size());
  for (const BasicBlock &B : Src.Blocks) {
    H.u64(B.Insts.size());
    for (const Instruction &I : B.Insts) {
      H.u8(static_cast<uint8_t>(I.Op));
      H.u32(I.Dst);
      H.u32(I.Src1);
      H.u32(I.Src2);
      H.i64(I.Imm);
      H.u32(I.Target0);
      H.u32(I.Target1);
      H.u32(I.Aux);
    }
  }

  // Every config knob that steers the pipeline. Metrics/Cache pointers
  // never affect the result by construction.
  H.u8(static_cast<uint8_t>(C.S));
  H.u32(C.BaselineK);
  H.u32(C.Enc.RegN);
  H.u32(C.Enc.DiffN);
  H.u32(C.Enc.DiffW);
  H.u8(static_cast<uint8_t>(C.Enc.Order));
  H.u64(C.Enc.SpecialRegs.size());
  for (RegId R : C.Enc.SpecialRegs)
    H.u32(R);
  H.u8(C.AdaptiveEnable);
  H.u32(C.Remap.ExhaustiveLimit);
  H.u32(C.Remap.NumStarts);
  H.u64(C.Remap.Seed);
  H.u64(C.Remap.PinnedRegs.size());
  for (RegId R : C.Remap.PinnedRegs)
    H.u32(R);

  // Portfolio block. Jobs is excluded: the race is bit-identical at any
  // worker count. The arm list hashes in *resolved* form so an explicit
  // default-arm list and an empty one key identically. (Appending the mode tag shifts every key vs. older
  // builds; stale disk entries simply never hit, which is always safe.)
  H.u8(static_cast<uint8_t>(C.Portfolio.Mode));
  if (C.Portfolio.Mode != PortfolioMode::Off) {
    const std::vector<PortfolioArm> Arms =
        resolvedPortfolioArms(C.Portfolio);
    H.u64(Arms.size());
    for (const PortfolioArm &A : Arms) {
      H.u8(static_cast<uint8_t>(A.S));
      H.u32(A.RemapStarts);
    }
    if (C.Portfolio.Mode == PortfolioMode::Choose) {
      // Choose-mode results depend on the table's predictions, so its
      // content fingerprint (not the pointer) joins the key; a missing
      // table degenerates to racing and hashes as 0.
      uint64_t ConfBits;
      static_assert(sizeof(ConfBits) == sizeof(C.Portfolio.MinConfidence));
      std::memcpy(&ConfBits, &C.Portfolio.MinConfidence, sizeof(ConfBits));
      H.u64(ConfBits);
      H.u64(C.Portfolio.Table ? C.Portfolio.Table->fingerprint() : 0);
    }
  }
  return H.get();
}

//===----------------------------------------------------------------------===//
// Result (de)serialization
//===----------------------------------------------------------------------===//

std::string ResultCache::serializeResult(const PipelineResult &R) {
  std::ostringstream OS;
  OS << "DRARES1";
  OS << "\nflags " << (R.DiffEncoded ? 1 : 0) << ' '
     << (R.AdaptiveFellBack ? 1 : 0);

  OS << "\nalloc " << (R.Alloc.Success ? 1 : 0) << ' ' << R.Alloc.Iterations
     << ' ' << R.Alloc.SpilledRanges << ' ' << R.Alloc.SpillLoads << ' '
     << R.Alloc.SpillStores << ' ' << R.Alloc.MovesRemoved << ' '
     << R.Alloc.MovesRemaining << ' ' << R.Alloc.SimplifySteps << ' '
     << R.Alloc.CoalesceBriggs << ' ' << R.Alloc.CoalesceGeorge << ' '
     << R.Alloc.CoalesceConstrained << ' ' << R.Alloc.CoalesceDeferred
     << ' ' << R.Alloc.FreezeSteps << ' ' << R.Alloc.SpillSelects;

  OS << "\nospill " << R.OSpill.SpilledRanges << ' ' << R.OSpill.Rounds
     << ' ' << (R.OSpill.ILPOptimal ? 1 : 0) << ' '
     << R.OSpill.ILPConstraints << ' ' << R.OSpill.ILPVariables;

  OS << "\ncoalesce " << R.Coalesce.MovesCoalesced << ' '
     << R.Coalesce.MovesRemaining << ' ' << R.Coalesce.ExtraSpilledRanges;
  putDouble(OS, R.Coalesce.FinalAdjCost);
  OS << ' ' << R.Coalesce.Steps << ' ' << (R.Coalesce.Success ? 1 : 0)
     << ' ' << R.Coalesce.OracleCalls << ' ' << R.Coalesce.ProbesAttempted
     << ' ' << R.Coalesce.ProbesUncolorable << ' '
     << R.Coalesce.SpillRestarts;

  OS << "\nremap";
  putDouble(OS, R.Remap.CostBefore);
  putDouble(OS, R.Remap.CostAfter);
  OS << ' ' << (R.Remap.Exhaustive ? 1 : 0) << ' ' << R.Remap.StartsRun
     << ' ' << R.Remap.SwapsEvaluated << ' ' << R.Remap.SwapsApplied << ' '
     << R.Remap.StartsCutOff << ' ' << R.Remap.DeltaArcsVisited << ' '
     << R.Remap.DeltaRecostSavings << ' ' << R.Remap.Perm.size();
  for (RegId P : R.Remap.Perm)
    OS << ' ' << P;

  OS << "\nrecolor";
  putDouble(OS, R.Recolor.CostBefore);
  putDouble(OS, R.Recolor.CostAfter);
  OS << ' ' << R.Recolor.Sweeps << ' ' << R.Recolor.Changes << ' '
     << R.Recolor.Clusters << ' ' << R.Recolor.CandidateEvals;

  OS << "\nenc " << R.Enc.SetLastJoin << ' ' << R.Enc.SetLastRange << ' '
     << R.Enc.NumInsts << ' ' << R.Enc.FieldBits << ' ' << R.Enc.NumFields;

  OS << "\ncounts " << R.NumInsts << ' ' << R.SpillInsts << ' '
     << R.SetLastRegs << ' ' << R.CodeBytes;

  OS << "\nfunc " << R.F.NumRegs << ' ' << R.F.MemWords << ' '
     << R.F.NumSpillSlots << ' ' << R.F.Blocks.size();
  for (const BasicBlock &B : R.F.Blocks) {
    OS << "\nblock " << B.Insts.size();
    for (const Instruction &I : B.Insts)
      OS << "\ni " << static_cast<unsigned>(I.Op) << ' ' << I.Dst << ' '
         << I.Src1 << ' ' << I.Src2 << ' ' << I.Imm << ' ' << I.Target0
         << ' ' << I.Target1 << ' ' << I.Aux;
  }
  OS << "\nend\n";
  return OS.str();
}

bool ResultCache::deserializeResult(const std::string &Payload,
                                    PipelineResult &Out) {
  TokenReader T(Payload);
  PipelineResult R;
  if (!T.expect("DRARES1"))
    return false;
  if (!T.expect("flags") || !T.boolean(R.DiffEncoded) ||
      !T.boolean(R.AdaptiveFellBack))
    return false;

  if (!T.expect("alloc") || !T.boolean(R.Alloc.Success) ||
      !T.uns(R.Alloc.Iterations) || !T.size(R.Alloc.SpilledRanges) ||
      !T.size(R.Alloc.SpillLoads) || !T.size(R.Alloc.SpillStores) ||
      !T.size(R.Alloc.MovesRemoved) || !T.size(R.Alloc.MovesRemaining) ||
      !T.size(R.Alloc.SimplifySteps) || !T.size(R.Alloc.CoalesceBriggs) ||
      !T.size(R.Alloc.CoalesceGeorge) ||
      !T.size(R.Alloc.CoalesceConstrained) ||
      !T.size(R.Alloc.CoalesceDeferred) || !T.size(R.Alloc.FreezeSteps) ||
      !T.size(R.Alloc.SpillSelects))
    return false;

  if (!T.expect("ospill") || !T.size(R.OSpill.SpilledRanges) ||
      !T.uns(R.OSpill.Rounds) || !T.boolean(R.OSpill.ILPOptimal) ||
      !T.size(R.OSpill.ILPConstraints) || !T.size(R.OSpill.ILPVariables))
    return false;

  if (!T.expect("coalesce") || !T.size(R.Coalesce.MovesCoalesced) ||
      !T.size(R.Coalesce.MovesRemaining) ||
      !T.size(R.Coalesce.ExtraSpilledRanges) ||
      !T.dbl(R.Coalesce.FinalAdjCost) || !T.uns(R.Coalesce.Steps) ||
      !T.boolean(R.Coalesce.Success) || !T.size(R.Coalesce.OracleCalls) ||
      !T.size(R.Coalesce.ProbesAttempted) ||
      !T.size(R.Coalesce.ProbesUncolorable) ||
      !T.uns(R.Coalesce.SpillRestarts))
    return false;

  size_t PermSize = 0;
  if (!T.expect("remap") || !T.dbl(R.Remap.CostBefore) ||
      !T.dbl(R.Remap.CostAfter) || !T.boolean(R.Remap.Exhaustive) ||
      !T.uns(R.Remap.StartsRun) || !T.size(R.Remap.SwapsEvaluated) ||
      !T.size(R.Remap.SwapsApplied) || !T.uns(R.Remap.StartsCutOff) ||
      !T.size(R.Remap.DeltaArcsVisited) ||
      !T.size(R.Remap.DeltaRecostSavings) || !T.size(PermSize))
    return false;
  // Growth is capped by parse success, not by the announced count, so a
  // corrupted count cannot drive a huge allocation.
  for (size_t I = 0; I != PermSize; ++I) {
    RegId P;
    if (!T.u32(P))
      return false;
    R.Remap.Perm.push_back(P);
  }

  if (!T.expect("recolor") || !T.dbl(R.Recolor.CostBefore) ||
      !T.dbl(R.Recolor.CostAfter) || !T.uns(R.Recolor.Sweeps) ||
      !T.size(R.Recolor.Changes) || !T.size(R.Recolor.Clusters) ||
      !T.size(R.Recolor.CandidateEvals))
    return false;

  if (!T.expect("enc") || !T.size(R.Enc.SetLastJoin) ||
      !T.size(R.Enc.SetLastRange) || !T.size(R.Enc.NumInsts) ||
      !T.size(R.Enc.FieldBits) || !T.size(R.Enc.NumFields))
    return false;

  if (!T.expect("counts") || !T.size(R.NumInsts) || !T.size(R.SpillInsts) ||
      !T.size(R.SetLastRegs) || !T.size(R.CodeBytes))
    return false;

  size_t NumBlocks = 0;
  if (!T.expect("func") || !T.u32(R.F.NumRegs) || !T.u32(R.F.MemWords) ||
      !T.u32(R.F.NumSpillSlots) || !T.size(NumBlocks))
    return false;
  for (size_t B = 0; B != NumBlocks; ++B) {
    size_t NumInsts = 0;
    if (!T.expect("block") || !T.size(NumInsts))
      return false;
    R.F.Blocks.emplace_back();
    BasicBlock &Blk = R.F.Blocks.back();
    for (size_t I = 0; I != NumInsts; ++I) {
      Instruction Ins;
      uint32_t Op = 0;
      if (!T.expect("i") || !T.u32(Op) ||
          Op > static_cast<uint32_t>(Opcode::SetLastReg) || !T.u32(Ins.Dst) ||
          !T.u32(Ins.Src1) || !T.u32(Ins.Src2) || !T.i64(Ins.Imm) ||
          !T.u32(Ins.Target0) || !T.u32(Ins.Target1) || !T.u32(Ins.Aux))
        return false;
      Ins.Op = static_cast<Opcode>(Op);
      if ((Ins.Target0 != NoBlock && Ins.Target0 >= NumBlocks) ||
          (Ins.Target1 != NoBlock && Ins.Target1 >= NumBlocks))
        return false;
      Blk.Insts.push_back(Ins);
    }
  }
  if (!T.expect("end"))
    return false;
  R.F.recomputeCFG();
  Out = std::move(R);
  return true;
}

//===----------------------------------------------------------------------===//
// Memory tier
//===----------------------------------------------------------------------===//

namespace {
/// Fixed per-entry bookkeeping estimate (list node + map slot).
constexpr size_t EntryOverhead = 64;
} // namespace

bool ResultCache::memLookup(uint64_t Key, std::string &Payload) {
  Shard &S = Shards[remix(Key) % Shards.size()];
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Index.find(Key);
  if (It == S.Index.end())
    return false;
  S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
  Payload = It->second->Payload;
  return true;
}

void ResultCache::memInsert(uint64_t Key, const std::string &Payload) {
  if (Opts.MemBudgetBytes == 0)
    return;
  size_t Cost = Payload.size() + EntryOverhead;
  if (Cost > ShardBudget)
    return; // Larger than a whole shard: caching it would only thrash.
  Shard &S = Shards[remix(Key) % Shards.size()];
  std::lock_guard<std::mutex> Lock(S.M);
  auto It = S.Index.find(Key);
  if (It != S.Index.end()) {
    S.Lru.splice(S.Lru.begin(), S.Lru, It->second);
    return; // Same key implies the same payload; just refresh recency.
  }
  S.Lru.push_front(Entry{Key, Payload});
  S.Index[Key] = S.Lru.begin();
  S.Bytes += Cost;
  Bytes.fetch_add(Cost, std::memory_order_relaxed);
  while (S.Bytes > ShardBudget && S.Lru.size() > 1) {
    const Entry &Victim = S.Lru.back();
    size_t VictimCost = Victim.Payload.size() + EntryOverhead;
    S.Index.erase(Victim.Key);
    S.Lru.pop_back();
    S.Bytes -= VictimCost;
    Bytes.fetch_sub(VictimCost, std::memory_order_relaxed);
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Disk tier
//===----------------------------------------------------------------------===//

std::string ResultCache::entryPath(const std::string &Dir, uint64_t Key) {
  return Dir + "/" + hex16(Key) + ".drac";
}

void ResultCache::quarantine(const std::string &Path) {
  std::error_code Ec;
  fs::path Src(Path);
  fs::path QDir = Src.parent_path() / "quarantine";
  fs::create_directories(QDir, Ec);
  fs::rename(Src, QDir / Src.filename(), Ec);
  if (Ec)
    fs::remove(Src, Ec); // Last resort: never re-read a bad entry.
}

bool ResultCache::diskLookup(uint64_t Key, std::string &Payload) {
  if (Opts.DiskDir.empty())
    return false;
  std::string Path = entryPath(Opts.DiskDir, Key);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false; // Absent: a plain miss, not a load error.
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Data = Buf.str();

  // Header: four '\n'-terminated lines (version, key, payload length,
  // payload checksum), then exactly the announced payload bytes. Any
  // deviation — truncation, corruption, a version bump — quarantines the
  // file and reads as a miss.
  auto Reject = [&] {
    quarantine(Path);
    LoadErrors.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  size_t Pos = 0;
  auto Line = [&](std::string &Out) {
    size_t Nl = Data.find('\n', Pos);
    if (Nl == std::string::npos)
      return false;
    Out = Data.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  };
  std::string Version, KeyLine, LenLine, SumLine;
  if (!Line(Version) || !Line(KeyLine) || !Line(LenLine) || !Line(SumLine))
    return Reject();
  if (Version != FormatVersion)
    return Reject();
  if (KeyLine != "key " + hex16(Key))
    return Reject();
  if (LenLine.rfind("len ", 0) != 0)
    return Reject();
  errno = 0;
  char *End = nullptr;
  unsigned long long Len = std::strtoull(LenLine.c_str() + 4, &End, 10);
  if (End != LenLine.c_str() + LenLine.size() || errno == ERANGE)
    return Reject();
  if (Data.size() - Pos != Len)
    return Reject();
  if (SumLine != "sum " + hex16(fnv1a(Data.data() + Pos, Len)))
    return Reject();
  Payload.assign(Data, Pos, Len);
  // A valid checksum does not make the payload decodable (a planted entry,
  // or a result-layout change without a version bump). Decode before the
  // caller promotes it: memory-tier bytes are served without a decode.
  PipelineResult Decoded;
  if (!deserializeResult(Payload, Decoded))
    return Reject();
  return true;
}

void ResultCache::diskStore(uint64_t Key, const std::string &Payload) {
  std::error_code Ec;
  fs::create_directories(Opts.DiskDir, Ec);
  std::string Path = entryPath(Opts.DiskDir, Key);
  std::string Tmp = Path + tmpSuffix();
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return; // Best-effort tier: an unwritable directory is not an error.
    Out << FormatVersion << '\n'
        << "key " << hex16(Key) << '\n'
        << "len " << Payload.size() << '\n'
        << "sum " << hex16(fnv1a(Payload.data(), Payload.size())) << '\n'
        << Payload;
    if (!Out.flush()) {
      Out.close();
      fs::remove(Tmp, Ec);
      return;
    }
  }
  fs::rename(Tmp, Path, Ec);
  if (Ec)
    fs::remove(Tmp, Ec);
}

//===----------------------------------------------------------------------===//
// PipelineCache interface
//===----------------------------------------------------------------------===//

ResultCache::Probe ResultCache::probeKey(uint64_t Key, std::string &Payload,
                                         TraceContext *Trace) {
  uint64_t Begin = (Metrics || Trace) ? steadyClockNs() : 0;

  // Request-scoped trace: one span per probe, named by its outcome, so a
  // traced request shows *which* tier answered (or that nothing did).
  auto TraceProbe = [&](const char *Name) {
    if (Trace)
      Trace->record(Name, Begin, steadyClockNs(), /*Depth=*/2);
  };

  bool FromDisk = false;
  if (!memLookup(Key, Payload)) {
    if (!diskLookup(Key, Payload)) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      TraceProbe("cache.miss");
      return Probe::Miss;
    }
    FromDisk = true;
    memInsert(Key, Payload); // Promote so the next hit is lock-cheap.
  }

  if (shouldVerify(Key)) {
    // Hijack the hit: the caller recompiles, and store() compares the
    // fresh payload against this one.
    {
      std::lock_guard<std::mutex> Lock(PendingM);
      PendingVerify[Key] = std::move(Payload);
    }
    VerifyRecompiles.fetch_add(1, std::memory_order_relaxed);
    Misses.fetch_add(1, std::memory_order_relaxed);
    TraceProbe("cache.verify_miss");
    return Probe::Sampled;
  }

  TraceProbe(FromDisk ? "cache.hit_disk" : "cache.hit_mem");
  (FromDisk ? DiskHits : MemHits).fetch_add(1, std::memory_order_relaxed);
  if (Metrics)
    Metrics->observe(
        "cache.hit_us",
        static_cast<double>(steadyClockNs() - Begin) / 1000.0,
        {{"tier", FromDisk ? "disk" : "mem"}});
  return FromDisk ? Probe::HitDisk : Probe::HitMem;
}

bool ResultCache::lookupPayload(const Function &Src, const PipelineConfig &C,
                                std::string &Payload, const char **Tier) {
  const Probe P = probeKey(cacheKey(Src, C), Payload, C.Trace);
  if (P != Probe::HitMem && P != Probe::HitDisk)
    return false;
  *Tier = P == Probe::HitMem ? "mem" : "disk";
  return true;
}

bool ResultCache::lookupTiered(const Function &Src, const PipelineConfig &C,
                               PipelineResult &Out, const char **Tier) {
  std::string Payload;
  const char *HitTier = nullptr;
  // The decode fails only if a caller stored an undecodable result.
  if (!lookupPayload(Src, C, Payload, &HitTier) ||
      !deserializeResult(Payload, Out))
    return false;
  Out.F.Name = Src.Name;
  *Tier = HitTier;
  return true;
}

void ResultCache::store(const Function &Src, const PipelineConfig &C,
                        const PipelineResult &R) {
  ScopedTraceSpan Span(C.Trace, "cache.store", /*Depth=*/2);
  uint64_t Key = cacheKey(Src, C);
  std::string Payload = serializeResult(R);

  std::string Expected;
  bool HadPending = false;
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    auto It = PendingVerify.find(Key);
    if (It != PendingVerify.end()) {
      Expected = std::move(It->second);
      PendingVerify.erase(It);
      HadPending = true;
    }
  }
  if (HadPending && Expected != Payload)
    VerifyMismatches.fetch_add(1, std::memory_order_relaxed);

  Stores.fetch_add(1, std::memory_order_relaxed);
  memInsert(Key, Payload);
  if (!Opts.DiskDir.empty())
    diskStore(Key, Payload);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats S;
  S.MemHits = MemHits.load(std::memory_order_relaxed);
  S.DiskHits = DiskHits.load(std::memory_order_relaxed);
  S.Hits = S.MemHits + S.DiskHits;
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Stores = Stores.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.LoadErrors = LoadErrors.load(std::memory_order_relaxed);
  S.VerifyRecompiles = VerifyRecompiles.load(std::memory_order_relaxed);
  S.VerifyMismatches = VerifyMismatches.load(std::memory_order_relaxed);
  S.Bytes = Bytes.load(std::memory_order_relaxed);
  return S;
}

void ResultCache::flushMetrics(MetricsRegistry &M) const {
  ResultCacheStats S = stats();
  // Every series is created even at zero: regression gates
  // (dra-stats --fail-on=cache.verify_mismatches) treat an absent metric
  // as a usage error, and a clean run must read as "present and zero".
  // Absolute snapshots (setCount), not deltas: the server flushes a live
  // cache on a timer, and repeated flushes must read as the latest totals.
  M.setCount("cache.hits", static_cast<double>(S.Hits));
  M.setCount("cache.hits_mem", static_cast<double>(S.MemHits));
  M.setCount("cache.hits_disk", static_cast<double>(S.DiskHits));
  M.setCount("cache.misses", static_cast<double>(S.Misses));
  M.setCount("cache.stores", static_cast<double>(S.Stores));
  M.setCount("cache.evictions", static_cast<double>(S.Evictions));
  M.setCount("cache.load_errors", static_cast<double>(S.LoadErrors));
  M.setCount("cache.verify_recompiles",
             static_cast<double>(S.VerifyRecompiles));
  M.setCount("cache.verify_mismatches",
             static_cast<double>(S.VerifyMismatches));
  M.gauge("cache.bytes", static_cast<double>(S.Bytes));
}
