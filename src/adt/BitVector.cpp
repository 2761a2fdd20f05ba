//===- adt/BitVector.cpp - Dense bit vector -------------------------------===//

#include "adt/BitVector.h"

#include <bit>

using namespace dra;

void BitVector::resize(size_t NewSize, bool Value) {
  size_t OldSize = NumBits;
  NumBits = NewSize;
  Words.resize((NewSize + 63) / 64, Value ? ~uint64_t(0) : 0);
  if (Value && NewSize > OldSize && OldSize % 64 != 0) {
    // Bits [OldSize, end-of-word) of the previously-last word must be set.
    Words[OldSize / 64] |= ~uint64_t(0) << (OldSize % 64);
  }
  clearPaddingBits();
}

void BitVector::clearPaddingBits() {
  if (NumBits % 64 != 0 && !Words.empty())
    Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
}

size_t BitVector::count() const {
  size_t Total = 0;
  for (uint64_t W : Words)
    Total += static_cast<size_t>(std::popcount(W));
  return Total;
}

bool BitVector::none() const {
  for (uint64_t W : Words)
    if (W != 0)
      return false;
  return true;
}

size_t BitVector::findNext(size_t From) const {
  if (From >= NumBits)
    return npos;
  size_t WordIdx = From / 64;
  uint64_t Word = Words[WordIdx] & (~uint64_t(0) << (From % 64));
  for (;;) {
    if (Word != 0) {
      size_t Idx = WordIdx * 64 +
                   static_cast<size_t>(std::countr_zero(Word));
      return Idx < NumBits ? Idx : npos;
    }
    if (++WordIdx == Words.size())
      return npos;
    Word = Words[WordIdx];
  }
}

std::vector<uint32_t> BitVector::toVector() const {
  std::vector<uint32_t> Result;
  forEach([&](size_t I) { Result.push_back(static_cast<uint32_t>(I)); });
  return Result;
}
