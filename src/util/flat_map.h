// An open-addressed u64 -> u32 hash map for hot interning and dedup
// tables: one cache line per probe instead of the node allocations of
// `unordered_map`, and a u64 key set on top of it.  The flat propagation
// core interns AS paths and community sets in the map (sim/flat_engine.h);
// core::PathIndex keeps its (prefix, path) dedup and adjacency sets, and
// asrel::GaoInference its AS adjacency, in the set.
//
// Stored as laid out: keys() and values() expose the slot arrays and
// adopt() takes them back after checking them, so io/artifact_codec
// writes and reads these tables without a probe per key.  Slot positions
// follow mix64 and the growth policy (64 slots, doubled past 3/4 load), so
// a stored layout is only as stable as those two
// (tests/util/flat_map_test.cc pins both).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace bgpolicy::util {

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Linear probing over a power-of-two capacity, grown at 3/4 load.  Keys
/// must never equal kEmptyKey (the empty-slot marker); callers whose keys
/// can take that value track it beside the map.  `clear()` keeps capacity.
/// The probes are defined here so the fixpoint's interning inlines them.
class FlatMap64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  /// Slot i maps keys[i] to values[i]; kEmptyKey marks a free slot.
  struct Slots {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> values;
  };

  /// Takes stored slots back: throws std::invalid_argument unless they are
  /// a map this class could hold — a power-of-two slot count (or none),
  /// equal key and value counts, at most 3/4 load, and every key in the
  /// slot its probe finds (so no key twice).
  [[nodiscard]] static FlatMap64 adopt(Slots slots);

  void clear();
  /// Room for `keys` keys without growing.
  void reserve(std::size_t keys);
  /// Replaces the content with `other`'s, in the slot count a map grown
  /// from empty to `other.size()` keys would have.  A map cleared and
  /// refilled keeps the slots of its largest content, so a plain copy of
  /// it (a warm state copied out of a long-lived scratch) would carry them
  /// all.
  void assign_compact(const FlatMap64& other);

  [[nodiscard]] std::uint32_t* find(std::uint64_t key) {
    if (keys_.empty()) return nullptr;
    const std::size_t slot = slot_of(key);
    return keys_[slot] == key ? &values_[slot] : nullptr;
  }
  [[nodiscard]] const std::uint32_t* find(std::uint64_t key) const {
    return const_cast<FlatMap64*>(this)->find(key);
  }

  /// `key` must be absent.
  void insert(std::uint64_t key, std::uint32_t value) {
    reserve_one();
    const std::size_t slot = slot_of(key);
    keys_[slot] = key;
    values_[slot] = value;
    ++size_;
  }

  /// Inserts `key` -> `value` unless `key` is present, in one probe;
  /// returns the mapped value and whether it was inserted.
  std::pair<std::uint32_t*, bool> try_insert(std::uint64_t key,
                                             std::uint32_t value) {
    reserve_one();
    const std::size_t slot = slot_of(key);
    if (keys_[slot] == key) return {&values_[slot], false};
    keys_[slot] = key;
    values_[slot] = value;
    ++size_;
    return {&values_[slot], true};
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::uint64_t> keys() const { return keys_; }
  [[nodiscard]] std::span<const std::uint32_t> values() const {
    return values_;
  }
  [[nodiscard]] std::size_t bytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           values_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t slot = mix64(key) & mask;
    while (keys_[slot] != kEmptyKey && keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  /// Grows when one more key would pass the load bound.
  void reserve_one() {
    if (keys_.empty() || (size_ + 1) * 4 > keys_.size() * 3) grow();
  }
  void grow();
  /// Re-slots every key into `capacity` slots.
  void rehash(std::size_t capacity);
  /// Slots every key of `keys` (kEmptyKey entries skipped) with its value;
  /// the slots must be empty and have room for them.
  void place(std::span<const std::uint64_t> keys,
             std::span<const std::uint32_t> values);

  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> values_;
  std::size_t size_ = 0;
};

/// A set of u64 keys on FlatMap64 that takes every key: the one the map
/// cannot hold, its empty marker, is kept in a flag beside it.  A packed
/// AS pair `(a << 32) | b` takes that value when a = b = 4294967295.
class FlatSet64 {
 public:
  /// Takes a stored set back (FlatMap64::adopt checks `keys`; the values
  /// are all 0).
  [[nodiscard]] static FlatSet64 adopt(std::vector<std::uint64_t> keys,
                                       bool has_empty_key);

  /// True when `key` was not yet in the set.
  bool insert(std::uint64_t key) {
    if (key == FlatMap64::kEmptyKey) {
      const bool inserted = !has_empty_key_;
      has_empty_key_ = true;
      return inserted;
    }
    return map_.try_insert(key, 0).second;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (key == FlatMap64::kEmptyKey) return has_empty_key_;
    return map_.find(key) != nullptr;
  }
  [[nodiscard]] std::size_t size() const {
    return map_.size() + (has_empty_key_ ? 1 : 0);
  }
  /// The slot keys, for storing the set as laid out; the empty marker's
  /// membership is has_empty_key().
  [[nodiscard]] std::span<const std::uint64_t> keys() const {
    return map_.keys();
  }
  [[nodiscard]] bool has_empty_key() const { return has_empty_key_; }

 private:
  FlatMap64 map_;
  bool has_empty_key_ = false;
};

}  // namespace bgpolicy::util
