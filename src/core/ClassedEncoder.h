//===- core/ClassedEncoder.h - Multi-class differential encoding -*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 9.1: when registers form multiple classes (integer, floating
/// point, ...), "the access sequence only contains registers belonging to
/// the same register class" and "during decoding, we need a separate
/// last_reg register for each class". This module states such a partition
/// (ClassedConfig) and runs the encoder engine of core/Encoder.h on it:
/// every register belongs to exactly one class, each class numbers its
/// members locally (differences are computed modulo the class size), and
/// the decoder keeps one last_reg per class. A set_last_reg's class is
/// implied by its value, so no new instruction bits are needed. The
/// one-class partition of r0..RegN-1 encodes exactly like encodeFunction.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_CLASSEDENCODER_H
#define DRA_CORE_CLASSEDENCODER_H

#include "core/Encoder.h"
#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <string>
#include <vector>

namespace dra {

/// One register class: its member registers (class-local number = index in
/// Members) and its field-encoding parameters.
struct RegClass {
  std::string Name;
  /// Machine register numbers belonging to this class, in class-local
  /// numbering order.
  std::vector<RegId> Members;
  /// Distinct differences encodable in this class's register fields.
  unsigned DiffN = 8;
  /// Field width in bits.
  unsigned DiffW = 3;
};

/// A partition of the machine registers into classes.
struct ClassedConfig {
  std::vector<RegClass> Classes;
  AccessOrder Order = AccessOrder::SrcFirst;

  /// Total registers across classes.
  unsigned totalRegs() const;
  /// Class index of register \p R (asserts when unassigned).
  unsigned classOf(RegId R) const;
  /// Class-local index of register \p R.
  unsigned localIndex(RegId R) const;
  /// True if every register below \p NumRegs belongs to exactly one class
  /// and every class's codes fit its field width.
  bool valid(unsigned NumRegs) const;
};

/// Per-class encode statistics.
struct ClassedEncodeStats {
  std::vector<EncodeStats> PerClass;
  size_t setLastTotal() const {
    size_t Total = 0;
    for (const EncodeStats &S : PerClass)
      Total += S.setLastTotal();
    return Total;
  }
};

/// Result of classed encoding: annotated function plus per-field codes
/// (same layout as EncodedFunction::Codes).
struct ClassedEncodedFunction {
  Function Annotated;
  CodeTable Codes;
  ClassedEncodeStats Stats;
};

/// Encodes \p F under the class partition \p C. Every register operand of
/// F must belong to some class. At a block head, every class whose entry
/// state is not a single value gets a set_last_reg, whether or not the
/// block accesses it.
ClassedEncodedFunction encodeClassedFunction(const Function &F,
                                             const ClassedConfig &C);

/// Decodes back to absolute register numbers (the inverse of
/// encodeClassedFunction; set_last_reg instructions stay in place).
Function decodeClassedFunction(const ClassedEncodedFunction &E,
                               const ClassedConfig &C);

/// Checks that every class's decode state is uniquely determined at every
/// field of that class along all CFG paths.
bool verifyClassedDecodable(const Function &Annotated,
                            const ClassedConfig &C,
                            std::string *Err = nullptr);

} // namespace dra

#endif // DRA_CORE_CLASSEDENCODER_H
