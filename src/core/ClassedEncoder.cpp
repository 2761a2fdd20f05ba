//===- core/ClassedEncoder.cpp - Multi-class differential encoding --------===//

#include "core/ClassedEncoder.h"

#include <cassert>

using namespace dra;

unsigned ClassedConfig::totalRegs() const {
  unsigned Total = 0;
  for (const RegClass &Cls : Classes)
    Total += static_cast<unsigned>(Cls.Members.size());
  return Total;
}

unsigned ClassedConfig::classOf(RegId R) const {
  for (unsigned Idx = 0; Idx != Classes.size(); ++Idx)
    for (RegId M : Classes[Idx].Members)
      if (M == R)
        return Idx;
  assert(false && "register not in any class");
  return 0;
}

unsigned ClassedConfig::localIndex(RegId R) const {
  unsigned Cls = classOf(R);
  for (unsigned I = 0; I != Classes[Cls].Members.size(); ++I)
    if (Classes[Cls].Members[I] == R)
      return I;
  assert(false && "register not in its class");
  return 0;
}

bool ClassedConfig::valid(unsigned NumRegs) const {
  std::vector<int> Owner(NumRegs, -1);
  for (unsigned Idx = 0; Idx != Classes.size(); ++Idx) {
    const RegClass &Cls = Classes[Idx];
    if (Cls.Members.empty() || Cls.DiffN == 0 || Cls.DiffW == 0)
      return false;
    if (Cls.DiffN > (1u << Cls.DiffW))
      return false;
    if (Cls.DiffN > Cls.Members.size())
      return false;
    for (RegId M : Cls.Members) {
      if (M >= NumRegs || Owner[M] != -1)
        return false;
      Owner[M] = static_cast<int>(Idx);
    }
  }
  for (int O : Owner)
    if (O == -1)
      return false;
  return true;
}

namespace {

/// \p C as a partition for the encoder engine.
RegPartition partitionOf(const ClassedConfig &C) {
  std::vector<RegPartition::Class> Classes;
  for (const RegClass &Cls : C.Classes)
    Classes.push_back({Cls.Members, {}, Cls.DiffN, Cls.DiffW});
  return RegPartition(std::move(Classes), C.Order);
}

} // namespace

ClassedEncodedFunction
dra::encodeClassedFunction(const Function &F, const ClassedConfig &C) {
  assert(C.valid(F.NumRegs) && "invalid class partition for this function");
  ClassedEncodedFunction Out;
  EncodedFunction E = encodeFunction(F, partitionOf(C), &Out.Stats.PerClass);
  Out.Annotated = std::move(E.Annotated);
  Out.Codes = std::move(E.Codes);
  return Out;
}

Function dra::decodeClassedFunction(const ClassedEncodedFunction &E,
                                    const ClassedConfig &C) {
  Function Out = E.Annotated;
  [[maybe_unused]] bool Ok = decodeRegisters(Out, E.Codes, partitionOf(C));
  assert(Ok && "malformed encoded function");
  return Out;
}

bool dra::verifyClassedDecodable(const Function &Annotated,
                                 const ClassedConfig &C, std::string *Err) {
  return verifyDecodable(Annotated, partitionOf(C), Err);
}
