//===- adt/Rng.h - Deterministic random number generation -------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fully deterministic pseudo-random number generator used by the
/// workload generators and the randomized property tests. We deliberately do
/// not use std::mt19937 so that the bit streams (and therefore the generated
/// benchmark programs) are identical across standard library
/// implementations.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ADT_RNG_H
#define DRA_ADT_RNG_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dra {

/// SplitMix64-seeded xoshiro256** generator.
///
/// The generator is value-semantic and cheap to copy, which the workload
/// generators use to fork independent deterministic sub-streams.
///
/// Thread-safety audit (parallel driver, src/driver/): an Rng instance
/// holds only its own 256-bit state — there is no global or static stream
/// anywhere in the library — so the rule for parallel code is simply that
/// each task constructs its own generator. `taskSeed`/`forTask` derive a
/// decorrelated per-task seed from (base seed, task index) so the result
/// depends on the task's identity, never on which worker ran it or in
/// what order.
class Rng {
public:
  explicit Rng(uint64_t Seed) { reseed(Seed); }

  /// Mixes \p BaseSeed and \p TaskIndex into an independent stream seed.
  /// Pure function of its arguments: parallel and serial schedules that
  /// agree on task indices agree on every stream.
  static uint64_t taskSeed(uint64_t BaseSeed, uint64_t TaskIndex);

  /// Convenience: a generator seeded with taskSeed(BaseSeed, TaskIndex).
  static Rng forTask(uint64_t BaseSeed, uint64_t TaskIndex) {
    return Rng(taskSeed(BaseSeed, TaskIndex));
  }

  /// Re-initializes the state from \p Seed via SplitMix64.
  void reseed(uint64_t Seed);

  /// Returns the next raw 64-bit value.
  uint64_t next();

  /// Returns a uniformly distributed value in [0, Bound). \p Bound must be
  /// nonzero. Uses rejection sampling so the distribution is exactly
  /// uniform.
  uint64_t nextBelow(uint64_t Bound);

  /// Returns a uniformly distributed value in [Lo, Hi] (inclusive).
  int64_t nextInRange(int64_t Lo, int64_t Hi);

  /// Returns true with probability \p Num / \p Den.
  bool withChance(uint64_t Num, uint64_t Den);

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble();

  /// Picks a uniformly random element of \p Items. The vector must be
  /// non-empty.
  template <typename T> const T &pick(const std::vector<T> &Items) {
    assert(!Items.empty() && "cannot pick from an empty vector");
    return Items[nextBelow(Items.size())];
  }

  /// Shuffles \p Items in place (Fisher-Yates).
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[nextBelow(I)]);
  }

private:
  uint64_t State[4];
};

} // namespace dra

#endif // DRA_ADT_RNG_H
