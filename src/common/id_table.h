#ifndef GANSWER_COMMON_ID_TABLE_H_
#define GANSWER_COMMON_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ganswer {

/// \brief Open-addressing hash table of u32 ids whose keys live elsewhere.
///
/// The owner keeps its keys in flat arrays (a text arena, a key blob) and
/// stores only ids here; a probe compares a candidate key through the
/// caller's predicate. Storing no keys means nothing dangles when the
/// owner's arrays grow, and a table for n ids is one allocation of a
/// power-of-two slot array, at most half full, probed linearly. Each slot
/// also keeps the high 32 bits of its key's hash, so a probe calls the
/// predicate (and reads the owner's arrays) almost only for the key it is
/// after: a miss costs about one cache line, not one per slot passed.
class IdTable {
 public:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Empties the table and sizes it for \p n ids: the smallest power of
  /// two, at least 16, with n at most half of it.
  void Reset(size_t n) {
    slots_.assign(std::max<size_t>(16, std::bit_ceil(2 * n)), kEmptySlot);
  }

  /// True while \p n ids keep the table at most half full.
  bool Fits(size_t n) const { return 2 * n <= slots_.size(); }

  /// Walks the probe sequence of \p hash: returns the first id for which
  /// \p equal holds, with *slot at it, or kEmpty with *slot at the empty
  /// slot where that key would go. The table must have been Reset.
  template <typename Equal>
  uint32_t Probe(uint64_t hash, Equal equal, size_t* slot) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t tag = hash >> 32;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const uint32_t id = static_cast<uint32_t>(slots_[i]);
      if (id == kEmpty || ((slots_[i] >> 32) == tag && equal(id))) {
        *slot = i;
        return id;
      }
    }
  }

  /// The id for which \p equal holds, or kEmpty; an un-Reset table finds
  /// nothing.
  template <typename Equal>
  uint32_t Find(uint64_t hash, Equal equal) const {
    if (slots_.empty()) return kEmpty;
    size_t slot = 0;
    return Probe(hash, equal, &slot);
  }

  /// Stores \p id, whose key hashes to \p hash, at \p slot, the empty
  /// slot that Probe returned for that hash.
  void Set(size_t slot, uint64_t hash, uint32_t id) {
    slots_[slot] = (hash >> 32) << 32 | id;
  }

 private:
  static constexpr uint64_t kEmptySlot = kEmpty;

  // Per slot: the key's hash in the high half, the id in the low half.
  std::vector<uint64_t> slots_;
};

}  // namespace ganswer

#endif  // GANSWER_COMMON_ID_TABLE_H_
