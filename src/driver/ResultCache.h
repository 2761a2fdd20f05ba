//===- driver/ResultCache.h - Content-addressed result cache ----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed compilation cache behind core's PipelineCache
/// interface. The key is a 64-bit FNV-1a fingerprint of everything that
/// determines a pipeline run bit-for-bit:
///
///   (cache-format version, canonicalized function IR, scheme,
///    EncodingConfig, RemapOptions, coalesce/ILP/adaptive knobs, the
///    portfolio block minus its worker count)
///
/// The function *name* is excluded (content addressing: two identical
/// bodies share one entry) and so is `PortfolioConfig::Jobs` — a race is
/// bit-identical at any worker count, so worker count must not fragment
/// the key space. Metrics/cache pointers never enter the key by
/// construction.
///
/// Two tiers:
///
///  * **Memory** — N-way sharded LRU of serialized results. One mutex per
///    shard, byte-budgeted (the budget is split evenly across shards),
///    designed for concurrent BatchCompiler workers: a lookup touches
///    exactly one shard lock.
///  * **Disk** (optional, `DiskDir`) — one `dra-cache-v1` file per entry,
///    named by the key, with a header carrying the key, the payload length
///    and an FNV checksum. Corrupt, truncated, version-mismatched or
///    undecodable entries are never errors: they count as misses, bump
///    `cache.load_errors` and are quarantined into `DiskDir/quarantine/`
///    so a recurring bad entry cannot be re-read forever.
///
/// `VerifyFraction` turns a deterministic sample of hits into forced
/// recompiles whose serialized result is compared byte-for-byte against
/// the cached payload ("cached == fresh" is a hard invariant, not a
/// hope); divergence bumps `cache.verify_mismatches`.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_DRIVER_RESULTCACHE_H
#define DRA_DRIVER_RESULTCACHE_H

#include "core/Pipeline.h"
#include "driver/Metrics.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dra {

struct ResultCacheOptions {
  /// Memory-tier byte budget across all shards (payload bytes plus a
  /// fixed per-entry overhead estimate). 0 disables the memory tier.
  size_t MemBudgetBytes = 64u << 20;
  /// Memory-tier shard count (clamped to >= 1). More shards = less lock
  /// contention between BatchCompiler workers.
  unsigned Shards = 16;
  /// Directory of the persistent tier; empty = memory only. Created on
  /// demand (including the quarantine subdirectory).
  std::string DiskDir;
  /// Fraction of hits (deterministically sampled by key) recompiled and
  /// compared byte-for-byte against the cached payload. 0 = never,
  /// 1 = every hit.
  double VerifyFraction = 0;
};

/// Monotonic event counters, snapshot via ResultCache::stats().
struct ResultCacheStats {
  uint64_t Hits = 0;       ///< MemHits + DiskHits.
  uint64_t MemHits = 0;
  uint64_t DiskHits = 0;   ///< Served from disk (and promoted to memory).
  uint64_t Misses = 0;     ///< Includes verify-forced recompiles.
  uint64_t Stores = 0;
  uint64_t Evictions = 0;  ///< Memory-tier LRU evictions.
  uint64_t LoadErrors = 0; ///< Disk entries rejected and quarantined.
  uint64_t VerifyRecompiles = 0;
  uint64_t VerifyMismatches = 0;
  uint64_t Bytes = 0;      ///< Current memory-tier footprint.
};

class ResultCache : public PipelineCache {
public:
  /// On-disk entry header magic; bumping it invalidates every store.
  static constexpr const char *FormatVersion = "dra-cache-v1";

  explicit ResultCache(const ResultCacheOptions &O = {});

  /// What one probe found.
  enum class Probe : uint8_t {
    Miss,    ///< In neither tier.
    HitMem,  ///< Answered by the memory tier.
    HitDisk, ///< Answered by the disk tier (and promoted to memory).
    Sampled, ///< A hit that verify sampling hijacked: the payload is
             ///< stashed for store() to compare, and the caller must
             ///< recompile and store.
  };

  /// The one probe of both tiers for \p Key: memory tier, disk tier (an
  /// entry is decoded before it is promoted, so the memory tier holds only
  /// store()'s serializations and disk entries that decode), the verify
  /// hijack, the counters, `cache.hit_us` and the \p Trace probe span.
  /// Miss and Sampled each count one cache.misses; Sampled also counts a
  /// verify recompile. On HitMem/HitDisk \p Payload holds the stored
  /// bytes — exactly serializeResult of the result — and the compile
  /// server answers with them as they are; otherwise it is unspecified.
  Probe probeKey(uint64_t Key, std::string &Payload,
                 TraceContext *Trace = nullptr);

  /// probeKey(cacheKey(\p Src, \p C), ..., C.Trace) as a yes/no: on a hit
  /// \p Tier is set to "mem" or "disk"; a Sampled hit reads as a miss and
  /// leaves \p Tier untouched.
  bool lookupPayload(const Function &Src, const PipelineConfig &C,
                     std::string &Payload, const char **Tier);

  /// lookupPayload plus deserializeResult, with the function name of
  /// \p Src re-attached (content addressing strips it).
  bool lookupTiered(const Function &Src, const PipelineConfig &C,
                    PipelineResult &Out, const char **Tier) override;
  void store(const Function &Src, const PipelineConfig &C,
             const PipelineResult &R) override;

  ResultCacheStats stats() const;

  /// When non-null, every hit records a `cache.hit_us` histogram sample
  /// labeled {tier: mem|disk} at event time.
  void setMetrics(MetricsRegistry *M) { Metrics = M; }

  /// Replaces the verify sampling fraction (clamped to [0, 1]).
  void setVerifyFraction(double F);

  /// Flushes the counters above into \p M as cache.* counter series plus
  /// the cache.bytes gauge. Every series is emitted even at zero so
  /// `dra-stats --fail-on=cache.verify_mismatches` always finds the
  /// metric. Snapshots absolute totals (MetricsRegistry::setCount), so
  /// calling it repeatedly — the server's periodic live export — never
  /// double-counts.
  void flushMetrics(MetricsRegistry &M) const;

  /// The content-addressed fingerprint (see file comment for what is in
  /// and out of the key).
  static uint64_t cacheKey(const Function &Src, const PipelineConfig &C);

  /// Serializes everything lookupTiered() must reproduce: every stage-report
  /// counter, the final counts, and the full machine-code function —
  /// excluding the function name (re-attached from the lookup source) and
  /// the wall-clock Spans. The encoding is a whitespace-separated token
  /// stream; doubles travel as hex bit patterns so round trips and the
  /// verify byte-comparison are exact.
  static std::string serializeResult(const PipelineResult &R);

  /// Inverse of serializeResult. False (and \p Out unspecified) on any
  /// malformed input; never throws, never crashes on garbage.
  static bool deserializeResult(const std::string &Payload,
                                PipelineResult &Out);

  /// The disk-tier path of \p Key under \p Dir (exposed for tests that
  /// corrupt entries in place).
  static std::string entryPath(const std::string &Dir, uint64_t Key);

private:
  struct Entry {
    uint64_t Key = 0;
    std::string Payload;
  };
  struct Shard {
    std::mutex M;
    /// LRU order: front = most recent. The map points into the list.
    std::list<Entry> Lru;
    std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
    size_t Bytes = 0;
  };

  bool memLookup(uint64_t Key, std::string &Payload);
  void memInsert(uint64_t Key, const std::string &Payload);
  bool diskLookup(uint64_t Key, std::string &Payload);
  void diskStore(uint64_t Key, const std::string &Payload);
  void quarantine(const std::string &Path);
  bool shouldVerify(uint64_t Key) const;

  ResultCacheOptions Opts;
  size_t ShardBudget = 0;
  std::vector<Shard> Shards;
  MetricsRegistry *Metrics = nullptr;
  std::atomic<double> VerifyFrac{0};

  /// Payloads of hits hijacked for verification, keyed by fingerprint:
  /// probeKey() stashes the payload and reports Sampled; the recompile's
  /// store() compares against it.
  std::mutex PendingM;
  std::unordered_map<uint64_t, std::string> PendingVerify;

  mutable std::atomic<uint64_t> MemHits{0}, DiskHits{0}, Misses{0},
      Stores{0}, Evictions{0}, LoadErrors{0}, VerifyRecompiles{0},
      VerifyMismatches{0}, Bytes{0};
};

} // namespace dra

#endif // DRA_DRIVER_RESULTCACHE_H
