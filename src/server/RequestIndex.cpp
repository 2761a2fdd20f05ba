//===- server/RequestIndex.cpp - Request bytes -> cache key index ---------===//

#include "server/RequestIndex.h"

#include <random>

using namespace dra;

RequestIndex::RequestIndex() {
  std::random_device Rd;
  auto Word = [&Rd] { return (uint64_t(Rd()) << 32) | Rd(); };
  K0 = Word();
  K1 = Word();
}

Hash128 RequestIndex::digest(const CompileRequest &Req) const {
  // Fixed-width fields ahead of the body, so no two (fields, body) pairs
  // feed the same byte string. Host byte order is fine: the digest never
  // leaves the process.
  const uint32_t Fields[] = {Req.Auto ? ~0u : uint32_t(Req.S),
                             Req.BaselineK,
                             Req.RegN,
                             Req.DiffN,
                             Req.DiffW,
                             Req.RemapStarts};
  SipHash13 H(K0, K1, /*Wide=*/true);
  H.update(Fields, sizeof Fields);
  H.update(Req.Body.data(), Req.Body.size());
  return H.finish128();
}

bool RequestIndex::lookup(const Hash128 &D, uint64_t &Key) const {
  const size_t Set = setOf(D);
  std::lock_guard<std::mutex> Lock(M);
  for (size_t I = Set; I != Set + Ways; ++I)
    if (Used[I] && Slots[I].Digest == D) {
      Key = Slots[I].Key;
      return true;
    }
  return false;
}

void RequestIndex::insert(const Hash128 &D, uint64_t Key) {
  const size_t Set = setOf(D);
  std::lock_guard<std::mutex> Lock(M);
  if (!Slots) // on first use: an idle or cacheless server never pays it
    Slots = std::make_unique<Slot[]>(Capacity);
  // The slot already holding D, else a free one, else a way picked by
  // D's other half: a full set loses a pseudo-random entry.
  size_t Target = Capacity;
  for (size_t I = Set; I != Set + Ways; ++I) {
    if (Used[I] && Slots[I].Digest == D) {
      Target = I;
      break;
    }
    if (!Used[I] && Target == Capacity)
      Target = I;
  }
  if (Target == Capacity)
    Target = Set + D.Hi % Ways;
  Slots[Target] = Slot{D, Key};
  Used[Target] = true;
}

size_t RequestIndex::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Used.count();
}
