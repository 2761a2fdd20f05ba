//===- adt/Rng.cpp - Deterministic random number generation --------------===//

#include "adt/Rng.h"

using namespace dra;

static uint64_t splitMix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ull;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

uint64_t Rng::taskSeed(uint64_t BaseSeed, uint64_t TaskIndex) {
  // Two SplitMix64 steps over the combined words: adjacent task indices
  // land in unrelated regions of the seed space, so per-task streams do
  // not correlate the way BaseSeed + TaskIndex would.
  uint64_t X = BaseSeed ^ (TaskIndex * 0x9e3779b97f4a7c15ull);
  splitMix64(X);
  return splitMix64(X);
}

void Rng::reseed(uint64_t Seed) {
  uint64_t S = Seed;
  for (uint64_t &Word : State)
    Word = splitMix64(S);
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  assert(Bound != 0 && "bound must be positive");
  // Rejection sampling over the largest multiple of Bound.
  uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t Raw = next();
    if (Raw >= Threshold)
      return Raw % Bound;
  }
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  return Lo + static_cast<int64_t>(
                  nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
}

bool Rng::withChance(uint64_t Num, uint64_t Den) {
  assert(Den != 0 && "zero denominator");
  return nextBelow(Den) < Num;
}

double Rng::nextDouble() {
  // 53 high bits give a uniform double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}
