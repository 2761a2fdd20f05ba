//===- adt/Statistics.cpp - Small descriptive statistics ------------------===//

#include "adt/Statistics.h"

#include <algorithm>
#include <cassert>

using namespace dra;

double dra::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  assert(P >= 0 && P <= 100 && "percentile out of range");
  std::sort(Values.begin(), Values.end());
  double Rank = P / 100.0 * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Values[Lo] * (1 - Frac) + Values[Hi] * Frac;
}
