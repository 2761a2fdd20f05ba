//===- perfbench/src/Corpus.cpp - Seeded benchmark inputs -----------------===//

#include "Corpus.h"

#include "adt/Rng.h"
#include "workloads/MiBench.h"
#include "workloads/ProgramGen.h"

#include <algorithm>
#include <stdexcept>

using namespace dra;

namespace perfbench {

namespace {

/// Draws generator seeds until one, grown one top-level statement at a
/// time, lands inside the size band. Programs grow by whole statements and
/// a longer statement list extends a shorter one, so the first count that
/// reaches the lower bound decides the draw.
Function drawFunction(Rng &R, const std::string &Profile, bool Medium,
                      const std::string &Name) {
  const unsigned Lo = Medium ? MediumMinInsts : SmallMinInsts;
  const unsigned Hi = Medium ? MediumMaxInsts : SmallMaxInsts;
  for (unsigned Try = 0; Try != 100000; ++Try) {
    ProgramProfile P = miBenchProfile(Profile);
    const unsigned MaxTop = 3 * P.TopStatements;
    P.Seed = R.next();
    // Small functions get short loop and branch bodies; otherwise a single
    // loop statement already overshoots their band.
    if (!Medium)
      P.BodyStatements = std::max(2u, P.BodyStatements / 2);
    for (unsigned Top = 1; Top <= MaxTop; ++Top) {
      P.TopStatements = Top;
      Function F = generateProgram(Name, P);
      const size_t N = F.numInsts();
      if (N < Lo)
        continue;
      if (N <= Hi)
        return F;
      break;
    }
  }
  throw std::runtime_error("no " + Profile + " function fits the size band");
}

} // namespace

Corpus makeCorpus(uint64_t Seed, uint64_t Stream, unsigned Count) {
  const std::vector<std::string> Profiles = miBenchNames();
  Rng R = Rng::forTask(Seed, Stream);
  Corpus C;
  unsigned NumSmall = 0, NumMedium = 0;
  for (unsigned I = 0; I != Count; ++I) {
    const bool Medium = I % 4 == 3;
    const std::string &Profile =
        Profiles[(Medium ? NumMedium++ : NumSmall++) % Profiles.size()];
    const std::string Name = "f" + std::to_string(I) + "_" + Profile;
    C.Texts.push_back(printFunction(drawFunction(R, Profile, Medium, Name)));
    C.Medium.push_back(Medium);
  }
  return C;
}

CompileRequest makeRequest(const Corpus &C, const RequestKey &K) {
  CompileRequest Req;
  Req.S = K.S;
  Req.Auto = K.Auto;
  Req.Body = C.Texts[K.Fn];
  return Req;
}

const char *keyScheme(const RequestKey &K) {
  return K.Auto ? "auto" : wireSchemeName(K.S);
}

uint64_t fnv1a(const std::string &Data, uint64_t H) {
  for (unsigned char Ch : Data) {
    H ^= Ch;
    H *= 0x100000001b3ull;
  }
  return H;
}

uint64_t inputFingerprint(const Corpus &C,
                          const std::vector<RequestKey> &Seq) {
  uint64_t H = fnv1a("perfbench-inputs-v1\n");
  for (size_t I = 0; I != C.Texts.size(); ++I)
    H = fnv1a(C.Texts[I] + (C.Medium[I] ? "M\n" : "S\n"), H);
  for (const RequestKey &K : Seq)
    H = fnv1a(std::to_string(K.Fn) + ":" + keyScheme(K) + "\n", H);
  return H;
}

} // namespace perfbench
