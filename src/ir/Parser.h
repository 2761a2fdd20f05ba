//===- ir/Parser.h - Textual IR parser ---------------------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parser for the textual form produced by printFunction(), so functions
/// round-trip through text. Used by the golden tests and by the dra-batch
/// command-line tool, which accepts hand-written programs in this syntax:
///
///   func name regs=4 mem=16 spills=0
///   bb0:
///     movi r0, 10
///     movi r1, 0
///     jmp bb1
///   bb1:
///     add r1, r1, r0
///     addi r0, r0, -1
///     br r0, bb1, bb2
///   bb2:
///     ret r1
///
//===----------------------------------------------------------------------===//

#ifndef DRA_IR_PARSER_H
#define DRA_IR_PARSER_H

#include "ir/Function.h"

#include <optional>
#include <string>

namespace dra {

/// Parses one function from \p Text. On success returns the function; on
/// failure returns std::nullopt and, if \p Err is non-null, a diagnostic
/// naming the offending line.
std::optional<Function> parseFunction(const std::string &Text,
                                      std::string *Err = nullptr);

} // namespace dra

#endif // DRA_IR_PARSER_H
