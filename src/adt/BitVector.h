//===- adt/BitVector.h - Dense bit vector ------------------------*- C++ -*-===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-universe dense bit set used by the dataflow analyses (liveness)
/// and the interference graph. Word-parallel set algebra keeps the
/// per-iteration cost of the liveness fixpoint low.
///
//===----------------------------------------------------------------------===//

#ifndef DRA_ADT_BITVECTOR_H
#define DRA_ADT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dra {

/// Dense bit vector over the universe [0, size()).
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(size_t NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  size_t size() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks the universe; new bits take \p Value.
  void resize(size_t NewSize, bool Value = false);

  bool test(size_t Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (Words[Idx / 64] >> (Idx % 64)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / 64] |= uint64_t(1) << (Idx % 64);
  }

  void reset(size_t Idx) {
    assert(Idx < NumBits && "bit index out of range");
    Words[Idx / 64] &= ~(uint64_t(1) << (Idx % 64));
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Number of set bits.
  size_t count() const;

  /// Returns true if no bit is set.
  bool none() const;

  bool operator==(const BitVector &Other) const {
    return NumBits == Other.NumBits && Words == Other.Words;
  }

  /// Index of the first set bit at or after \p From, or npos.
  size_t findNext(size_t From) const;

  static constexpr size_t npos = ~size_t(0);

  /// Calls \p Fn for every set bit index, ascending.
  template <typename FnT> void forEach(FnT Fn) const {
    for (size_t I = findNext(0); I != npos; I = findNext(I + 1))
      Fn(I);
  }

  /// Collects the set bits into a vector (ascending).
  std::vector<uint32_t> toVector() const;

  /// Raw packed-word access for word-parallel algorithms (liveness
  /// fixpoint). Writers must keep the padding bits past size() zero.
  uint64_t *words() { return Words.data(); }
  const uint64_t *words() const { return Words.data(); }
  size_t numWords() const { return Words.size(); }

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;

  void clearPaddingBits();
};

} // namespace dra

#endif // DRA_ADT_BITVECTOR_H
