//===- adt/Statistics.h - Small descriptive statistics ----------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Percentiles for summarizing measurements: the metrics registry's
/// histogram summaries and dra-loadgen's latency report.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ADT_STATISTICS_H
#define DRA_ADT_STATISTICS_H

#include <vector>

namespace dra {

/// Linear-interpolated percentile \p P in [0, 100]; 0 for an empty input.
double percentile(std::vector<double> Values, double P);

} // namespace dra

#endif // DRA_ADT_STATISTICS_H
