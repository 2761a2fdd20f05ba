//===- core/Encoder.h - Differential encoding and decoding ------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential register encoder and decoder (Sections 2 and 2.3).
///
/// Encoding walks the function in layout order keeping the `last_reg`
/// decode state. Each register field is emitted as the modular difference
/// from the previous access (Equation (1)); special registers use reserved
/// direct codes. Two situations require a `set_last_reg` pseudo
/// instruction:
///
///  * difference out of range (Section 2.2.1) — patched with the delayed
///    form `set_last_reg(value, delay)` placed before the instruction, so
///    the field can then encode difference 0;
///  * multi-path inconsistency (Section 2.2.2) — when the predecessors of
///    a block disagree on `last_reg`, a `set_last_reg(value)` is placed at
///    the block head.
///
/// Decoding is the exact inverse; `decodeFunction` reconstructs every
/// register number (Equation (2)) from the codes alone and is used by the
/// round-trip property tests. `verifyDecodable` independently checks, by
/// dataflow over all CFG paths, that the decode state is uniquely
/// determined at every field.
///
/// One engine implements all of it for any partition of the registers
/// into classes, each with its own last_reg (Section 9.1; `RegPartition`).
/// The `EncodingConfig` entry points are its one-class case, the
/// `ClassedConfig` ones (core/ClassedEncoder.h) its multi-class case, and
/// the binary decoder (core/BinaryEmitter.h) calls its decoder.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_ENCODER_H
#define DRA_CORE_ENCODER_H

#include "core/EncodingConfig.h"
#include "ir/Function.h"

#include <optional>
#include <string>
#include <vector>

namespace dra {

/// Static accounting of one encoding run.
struct EncodeStats {
  /// set_last_reg instructions inserted at block heads (join repair).
  size_t SetLastJoin = 0;
  /// set_last_reg instructions inserted for out-of-range differences.
  size_t SetLastRange = 0;
  /// Total instructions in the annotated function (including slr).
  size_t NumInsts = 0;
  /// Register-field bits emitted (NumFields * DiffW).
  size_t FieldBits = 0;
  /// Register fields encoded.
  size_t NumFields = 0;

  size_t setLastTotal() const { return SetLastJoin + SetLastRange; }
};

/// Codes[Block][InstIdx][FieldPos] = the DiffW-bit code of that field,
/// fields numbered in the configured access order. SetLastReg
/// instructions have an empty field list.
using CodeTable = std::vector<std::vector<std::vector<uint8_t>>>;

/// The result of encoding: the function with set_last_reg instructions
/// inserted, plus the per-field difference codes.
struct EncodedFunction {
  /// Input function plus inserted set_last_reg pseudo instructions. Its
  /// register operands are untouched (the codes below are the encoded
  /// form); interpreting it must produce the input's result.
  Function Annotated;
  CodeTable Codes;
  EncodeStats Stats;
};

/// A partition of the machine registers into classes, flattened once into
/// lookup tables for the encoder engine. Every register of the partition
/// belongs to one class and has a class-local number; differences are
/// taken modulo the class size, and each class keeps its own last_reg,
/// which a set_last_reg reaches through its value's class (Section 9.1).
/// A class may reserve the direct codes DiffN, DiffN+1, ... for special
/// registers among its members (Section 9.2): they neither consume
/// difference codes nor move last_reg.
class RegPartition {
public:
  /// One register class.
  struct Class {
    /// Members by class-local number.
    std::vector<RegId> Members;
    /// Special members, by reserved code minus DiffN.
    std::vector<RegId> Specials;
    /// Distinct differences a field of this class can encode.
    unsigned DiffN = 0;
    /// Field width in bits.
    unsigned DiffW = 0;
  };

  /// The one-class partition of \p C: registers 0..RegN-1 keep their
  /// numbers as class-local numbers, and C.SpecialRegs get their codes.
  explicit RegPartition(const EncodingConfig &C);
  /// A partition into \p Classes, whose fields are accessed in \p Order.
  RegPartition(std::vector<Class> Classes, AccessOrder Order);

  AccessOrder order() const { return Order; }
  unsigned numClasses() const { return static_cast<unsigned>(Classes.size()); }
  const Class &cls(unsigned C) const { return Classes[C]; }
  /// One past the highest register number any class lists.
  unsigned numRegs() const { return static_cast<unsigned>(Regs.size()); }
  /// True if \p R belongs to a class. \p R may be any value, so callers
  /// can query unvalidated operands.
  bool contains(RegId R) const {
    return R < Regs.size() && Regs[R].Class != NoClass;
  }
  /// Class of member \p R.
  unsigned classOf(RegId R) const { return Regs[R].Class; }
  /// Class-local number of member \p R.
  unsigned localOf(RegId R) const { return Regs[R].Local; }
  /// True if member \p R is special.
  bool isSpecial(RegId R) const { return Regs[R].Code != NotSpecial; }
  /// Reserved direct code of special member \p R.
  unsigned specialCode(RegId R) const { return Regs[R].Code; }

private:
  static constexpr unsigned NoClass = ~0u;
  static constexpr unsigned NotSpecial = ~0u;
  struct RegInfo {
    unsigned Class = NoClass;
    unsigned Local = 0;
    unsigned Code = NotSpecial;
  };
  std::vector<Class> Classes;
  std::vector<RegInfo> Regs;
  AccessOrder Order;
};

/// The encoder engine: encodes \p F (every register operand a member of
/// \p P) under \p P. A block-head set_last_reg repairs every class whose
/// entry state is not a single value; it is aimed at the class's first
/// access in the block, or else at its member 0. The returned Stats sum
/// over classes; \p PerClass, if non-null, receives each class's share
/// (NumInsts is the whole function's in each).
EncodedFunction encodeFunction(const Function &F, const RegPartition &P,
                               std::vector<EncodeStats> *PerClass = nullptr);

/// The decoder engine: overwrites every register field of \p A, an
/// annotated function, with the register its code in \p Codes decodes to
/// under \p P. A block's entry state comes from the decoded exits of its
/// reachable predecessors and from its own set_last_regs, never from the
/// registers in \p A. Those only say which class a field belongs to,
/// which a real ISA's opcode would; with one class they are not read
/// at all. A class whose entry state is still not a single value decodes
/// from its member 0. Returns false, with a diagnostic in \p Err (if
/// non-null), when \p Codes does not match \p A's fields or holds a code
/// no decode state explains (a reserved code with no special register, a
/// set_last_reg value outside \p P); \p A is then partly decoded.
bool decodeRegisters(Function &A, const CodeTable &Codes,
                     const RegPartition &P, std::string *Err = nullptr);

/// The verifier engine: checks that the decode state of every class of
/// \p P is uniquely determined at every field of \p Annotated along every
/// CFG path, and that every difference is in range.
bool verifyDecodable(const Function &Annotated, const RegPartition &P,
                     std::string *Err = nullptr);

/// Encodes \p F (all register operands must be < C.RegN). \p C must be
/// valid().
EncodedFunction encodeFunction(const Function &F, const EncodingConfig &C);

/// Decodes \p E back into a function with absolute register numbers,
/// keeping the set_last_reg instructions in place (so the result can be
/// compared against E.Annotated field by field). The registers come from
/// E.Codes alone; \p E must be well-formed (decodeRegisters reports what
/// is not).
Function decodeFunction(const EncodedFunction &E, const EncodingConfig &C);

/// Checks that the decode state (`last_reg`) of \p Annotated is uniquely
/// determined at every register field along every CFG path. Returns true
/// on success; otherwise false with a diagnostic in \p Err (if non-null).
bool verifyDecodable(const Function &Annotated, const EncodingConfig &C,
                     std::string *Err = nullptr);

/// Returns a copy of \p F with every SetLastReg instruction removed.
Function stripSetLastReg(const Function &F);

/// The decode-state dataflow the encoder/decoder use: for each block, the
/// unique last_reg value at its entry, or std::nullopt when predecessors
/// disagree (the encoder then inserts a head set_last_reg) or the block is
/// unreachable. Exposed so access-order passes (core/OperandSwap.h) can
/// evaluate block-leading transitions exactly like the encoder will.
std::vector<std::optional<RegId>>
decodeEntryStates(const Function &F, const EncodingConfig &C);

/// Code-size model of the low-end target: every instruction (including
/// set_last_reg, which occupies a fetch/decode slot) is \p BytesPerInst
/// bytes.
size_t codeSizeBytes(const Function &F, unsigned BytesPerInst = 2);

} // namespace dra

#endif // DRA_CORE_ENCODER_H
