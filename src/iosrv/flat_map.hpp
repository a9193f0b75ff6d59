// iosrv/flat_map.hpp — open-addressing hash table for the servers'
// per-block state.
//
// Every server request looks a block up in the cache policy's map, the
// writeback pool's dirty set and the read-ahead tables; a node-based
// std::unordered_map pays an allocation per entry and a pointer chase
// per lookup.  FlatMap keeps its entries in one slot array instead:
//
//   * linear probing over a power-of-two slot count, so the home slot is
//     `hash & mask` and a probe run is a forward scan that wraps at the
//     end of the array;
//   * backward-shift erase: the members after an erased entry in its
//     probe run slide back into the hole when their home slot allows, so
//     there are no tombstones and a lookup ends at the first empty slot;
//   * storage is allocated on the first insert (a table that is never
//     filled costs nothing) and doubles when more than half the slots
//     would be used; clear() keeps it.
//
// Entries MOVE: an erase shifts later members of a probe run, and an
// insert may rehash the whole table.  No pointer returned by find() may
// be held across an insert, an erase, or a co_await that lets other
// code run either.  Iteration order is slot order, which
// depends on the hash; callers that need a deterministic order sort.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

namespace iosrv {

/// `K` and `V` must be default-constructible and movable; `Hash` is a
/// stateless hash functor whose low bits are well mixed.
template <class K, class V, class Hash>
class FlatMap {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Slot count: 0 before the first insert, then a power of two.
  std::size_t capacity() const noexcept { return slots_ ? mask_ + 1 : 0; }

  /// The value stored under `k`, or nullptr.
  V* find(const K& k) noexcept {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[probe(k)];
    return s.used ? &s.value : nullptr;
  }
  const V* find(const K& k) const noexcept {
    return const_cast<FlatMap*>(this)->find(k);
  }
  bool contains(const K& k) const noexcept { return find(k) != nullptr; }

  /// Store `v` under `k` unless `k` is present (then nothing changes).
  /// Returns whether it inserted.
  bool insert(const K& k, V v = V{}) {
    if (slots_) {
      const std::size_t i = probe(k);
      if (slots_[i].used) return false;
      if (2 * (size_ + 1) <= mask_ + 1) {
        fill(i, k, std::move(v));
        return true;
      }
      rehash(2 * (mask_ + 1));
    } else {
      rehash(kFirstSlots);
    }
    fill(probe(k), k, std::move(v));
    return true;
  }

  /// Remove `k`; returns whether it was present.
  bool erase(const K& k) {
    if (size_ == 0) return false;
    std::size_t hole = probe(k);
    if (!slots_[hole].used) return false;
    // A member at `j` may fill the hole when its home slot is not in the
    // cyclic range (hole, j]: its probe run from home then still reaches
    // it without crossing an empty slot.
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Remove every entry; the slot array stays allocated for reuse.
  void clear() noexcept {
    if (size_ == 0) return;
    for (std::size_t i = 0; i <= mask_; ++i) slots_[i] = Slot{};
    size_ = 0;
  }

  /// Call `f(key, value)` once for each entry, in slot order.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (slots_[i].used) f(slots_[i].key, slots_[i].value);
    }
  }

 private:
  struct Slot {
    K key{};
    [[no_unique_address]] V value{};
    bool used = false;
  };
  static constexpr std::size_t kFirstSlots = 8;

  std::size_t home(const K& k) const noexcept { return Hash{}(k) & mask_; }
  std::size_t next(std::size_t i) const noexcept { return (i + 1) & mask_; }

  /// The slot holding `k`, or the empty slot that ends its probe run.
  /// The table must be allocated.
  std::size_t probe(const K& k) const noexcept {
    std::size_t i = home(k);
    while (slots_[i].used && !(slots_[i].key == k)) i = next(i);
    return i;
  }

  void fill(std::size_t i, const K& k, V v) {
    slots_[i].key = k;
    slots_[i].value = std::move(v);
    slots_[i].used = true;
    ++size_;
  }

  void rehash(std::size_t slots) {
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const std::size_t old_slots = old ? mask_ + 1 : 0;
    slots_ = std::make_unique<Slot[]>(slots);
    mask_ = slots - 1;
    for (std::size_t i = 0; i < old_slots; ++i) {
      if (old[i].used) slots_[probe(old[i].key)] = std::move(old[i]);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// The value type of a key-only table.
struct NoValue {};

/// A FlatMap that stores keys only.
template <class K, class Hash>
using FlatSet = FlatMap<K, NoValue, Hash>;

}  // namespace iosrv
