//===- perfbench/src/Corpus.h - Seeded benchmark inputs ---------*- C++ -*-===//
//
// The benchmark's inputs: a seeded draw of generateProgram functions over
// the ten miBenchProfile shapes, and the request keys built from them.
// Everything here is a pure function of its arguments, so one seed always
// yields the same functions, requests and fingerprint.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CORPUS_H
#define PERFBENCH_CORPUS_H

#include "core/Scheme.h"
#include "server/Protocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Instruction-count bands of the two function sizes. About three small
/// functions are drawn for each medium one.
constexpr unsigned SmallMinInsts = 60, SmallMaxInsts = 80;
constexpr unsigned MediumMinInsts = 320, MediumMaxInsts = 360;

/// The functions, as the text a request carries.
struct Corpus {
  std::vector<std::string> Texts; ///< printFunction of each function.
  std::vector<bool> Medium;
};

/// Draws \p Count functions from stream \p Stream of \p Seed. Slot I is
/// medium when I % 4 == 3; small and medium slots each cycle through the
/// ten profiles, so every corpus has the same profile and size mix.
Corpus makeCorpus(uint64_t Seed, uint64_t Stream, unsigned Count);

/// One request key: a corpus function under one scheme, or `scheme=auto`.
struct RequestKey {
  unsigned Fn = 0;
  bool Auto = false;
  dra::Scheme S = dra::Scheme::Baseline;
};

constexpr dra::Scheme AllSchemes[] = {dra::Scheme::Baseline,
                                      dra::Scheme::OSpill, dra::Scheme::Remap,
                                      dra::Scheme::Select,
                                      dra::Scheme::Coalesce};

/// The wire request for \p K, with the wire defaults for every knob.
dra::CompileRequest makeRequest(const Corpus &C, const RequestKey &K);

/// "auto" or the wire scheme name.
const char *keyScheme(const RequestKey &K);

/// FNV-1a over \p Data, continuing from \p H.
uint64_t fnv1a(const std::string &Data,
               uint64_t H = 0xcbf29ce484222325ull);

/// Fingerprint of a corpus and a request-key sequence over it.
uint64_t inputFingerprint(const Corpus &C, const std::vector<RequestKey> &Seq);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_H
