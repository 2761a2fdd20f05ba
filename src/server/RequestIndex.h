//===- server/RequestIndex.h - Request bytes -> cache key index -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile server's index from a request's bytes to its ResultCache
/// key. A warm hit otherwise spends nearly all of its time rebuilding a
/// key the server has already built once: parse the body, verify it,
/// hash the parsed function. The index lets a request whose exact bytes
/// were answered before skip all three and go straight to the cache
/// probe by key.
///
/// The index key is a SipHash-1-3-128 digest, keyed per index from
/// std::random_device, over the wire fields that decide the compile
/// (scheme or `auto`, baselinek, regn, diffn, diffw, remapstarts; never
/// traceid) followed by the body bytes. Server-constant configuration
/// (portfolio mode and table) stays out: the index lives and dies with
/// one CompileServer. Because the digest is keyed, no client can
/// precompute two requests that collide in it.
///
/// The table has a fixed capacity, allocated once, at the first insert,
/// and is 4-way set-associative: a digest may sit in any of the 4 slots
/// of its set, and an insert into a full set replaces one of them. There
/// is no per-entry allocation and no knob. (Direct-mapped, the few hundred
/// bodies of a warm service already collide: on perfbench `serve-hot`
/// about 2.5 % of requests fell back to a parse.) What enters and when is
/// the server's rule (server/Server.h); this class only stores and finds.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_SERVER_REQUESTINDEX_H
#define DRA_SERVER_REQUESTINDEX_H

#include "adt/SipHash.h"
#include "server/Protocol.h"

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace dra {

class RequestIndex {
public:
  /// 4096 slots of a 16 B digest and an 8 B key: 96 KiB, ample for the
  /// few hundred distinct bodies a warm service sees.
  static constexpr size_t Capacity = 4096;

  RequestIndex();

  /// The keyed digest of \p Req's compile-deciding fields and body.
  Hash128 digest(const CompileRequest &Req) const;

  /// The cache key stored for \p D, if any.
  bool lookup(const Hash128 &D, uint64_t &Key) const;

  /// Stores (\p D, \p Key): over \p D's old entry if there is one, else
  /// in a free slot of its set, else over another entry of the set.
  void insert(const Hash128 &D, uint64_t Key);

  /// Occupied slots; never more than Capacity.
  size_t size() const;

private:
  struct Slot {
    Hash128 Digest;
    uint64_t Key = 0;
  };

  static constexpr size_t Ways = 4;
  /// The first slot of \p D's set.
  static size_t setOf(const Hash128 &D) {
    return D.Lo % (Capacity / Ways) * Ways;
  }

  uint64_t K0 = 0, K1 = 0; ///< The digest key, fixed at construction.
  mutable std::mutex M;
  std::unique_ptr<Slot[]> Slots; ///< Capacity slots once used; M guards.
  std::bitset<Capacity> Used;    ///< Which slots hold an entry; M guards.
};

} // namespace dra

#endif // DRA_SERVER_REQUESTINDEX_H
