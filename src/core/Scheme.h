//===- core/Scheme.h - Pipeline scheme identifiers --------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five pipeline schemes of the paper's evaluation and their two
/// spellings, split out of Pipeline.h so lightweight layers (the portfolio
/// arm descriptions, the chooser's decision table, the wire protocol) can
/// name a scheme without pulling in the whole pipeline facade.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_CORE_SCHEME_H
#define DRA_CORE_SCHEME_H

#include <cstdint>
#include <string>

namespace dra {

/// Which pipeline to run.
enum class Scheme : uint8_t { Baseline, OSpill, Remap, Select, Coalesce };

/// Returns the paper's name for \p S ("O-spill", "remapping", ...): the
/// display name of tables and metric labels.
const char *schemeName(Scheme S);

/// The machine name of \p S: "baseline", "ospill", "remap", "select" or
/// "coalesce". The one spelling of every tool's `--scheme=`, the wire
/// protocol's `scheme=`, the portfolio-v1 and portfolio-train-v1 JSON
/// `scheme` fields and a repro file's `# scheme:` line.
const char *wireSchemeName(Scheme S);

/// Inverse of wireSchemeName: false for any other string, display names
/// included.
bool parseSchemeName(const std::string &Name, Scheme &Out);

} // namespace dra

#endif // DRA_CORE_SCHEME_H
