//===- core/BinaryEmitter.h - Bit-exact instruction emission ----*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-exact machine-code emission for the reproduction ISA, making the
/// paper's encoding-space argument concrete: with direct encoding, every
/// register field needs RegW = ceil(log2 NumRegs) bits; with differential
/// encoding the same code addresses RegN registers through DiffW-bit
/// fields (DiffW < RegW), at the price of the set_last_reg words the
/// encoder inserted.
///
/// The format is self-describing enough to decode back (the round-trip
/// tests rely on it):
///
///   header:  numBlocks:16  numRegs:16  memWords:16  spillSlots:16
///   block:   numInsts:16   then that many instructions
///   inst:    opcode:5  regfields (W bits each, canonical order)
///            + per-opcode payload (immediates as zigzag varints,
///              branch targets as 16-bit block indices,
///              set_last_reg as value:8 delay:4)
///
/// Direct mode stores absolute register numbers in the fields; the
/// differential mode stores the encoder's difference codes, and decoding
/// recovers the absolute numbers from them with the encoder's own decoder
/// (decodeRegisters), exactly like the modified hardware would.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_BINARYEMITTER_H
#define DRA_CORE_BINARYEMITTER_H

#include "core/Encoder.h"
#include "ir/Function.h"

#include <optional>
#include <string>
#include <vector>

namespace dra {

/// An emitted function plus size accounting.
struct BinaryModule {
  std::vector<uint8_t> Bytes;
  /// Meaningful bits (before final byte padding).
  size_t BitCount = 0;
  /// Bits spent on register fields alone.
  size_t RegFieldBits = 0;
  /// Register-field width used.
  unsigned FieldWidth = 0;
};

/// Emits \p F with absolute register numbers in
/// ceil(log2 F.NumRegs)-bit fields (direct encoding).
BinaryModule emitDirect(const Function &F);

/// Emits an encoded function: difference codes in DiffW-bit fields.
BinaryModule emitDifferential(const EncodedFunction &E,
                              const EncodingConfig &C);

/// Decodes a direct-mode module back to a Function. Returns std::nullopt
/// (with a diagnostic) on malformed input.
std::optional<Function> decodeDirect(const BinaryModule &M,
                                     std::string *Err = nullptr);

/// Decodes a differential-mode module back to the (Annotated, Codes) pair,
/// with every register field of Annotated already decoded from the codes.
/// Returns std::nullopt (with a diagnostic) on malformed input, including
/// codes no decode state explains.
std::optional<EncodedFunction>
decodeDifferential(const BinaryModule &M, const EncodingConfig &C,
                   std::string *Err = nullptr);

} // namespace dra

#endif // DRA_CORE_BINARYEMITTER_H
