#include "util/flat_map.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace bgpolicy::util {

void FlatMap64::clear() {
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

FlatMap64 FlatMap64::adopt(Slots slots) {
  const std::size_t capacity = slots.keys.size();
  if (slots.values.size() != capacity ||
      (capacity != 0 && !std::has_single_bit(capacity))) {
    throw std::invalid_argument("FlatMap64: bad slot count");
  }
  FlatMap64 map;
  map.keys_ = std::move(slots.keys);
  map.values_ = std::move(slots.values);
  for (std::size_t i = 0; i < capacity; ++i) {
    if (map.keys_[i] != kEmptyKey) ++map.size_;
  }
  // Past 3/4 load a probe for an absent key could find no free slot.
  if (map.size_ * 4 > capacity * 3) {
    throw std::invalid_argument("FlatMap64: slots over the load bound");
  }
  for (std::size_t i = 0; i < capacity; ++i) {
    if (map.keys_[i] != kEmptyKey && map.slot_of(map.keys_[i]) != i) {
      throw std::invalid_argument("FlatMap64: key out of its probe slot");
    }
  }
  return map;
}

namespace {

/// The slot count growth reaches from `from` slots (64 when empty) to hold
/// `keys` keys within the 3/4 load bound.
std::size_t grown_capacity(std::size_t from, std::size_t keys) {
  std::size_t capacity = from == 0 ? 64 : from;
  while (keys * 4 > capacity * 3) capacity *= 2;
  return capacity;
}

}  // namespace

void FlatMap64::reserve(std::size_t keys) {
  const std::size_t capacity = grown_capacity(keys_.size(), keys);
  if (capacity != keys_.size()) rehash(capacity);
}

void FlatMap64::assign_compact(const FlatMap64& other) {
  const std::size_t capacity = grown_capacity(0, other.size_);
  if (other.keys_.size() <= capacity) {
    *this = other;
    return;
  }
  keys_.assign(capacity, kEmptyKey);
  values_.assign(capacity, 0);
  place(other.keys_, other.values_);
  size_ = other.size_;
}

void FlatMap64::grow() {
  rehash(keys_.empty() ? 64 : keys_.size() * 2);
}

void FlatMap64::rehash(std::size_t capacity) {
  const std::vector<std::uint64_t> old_keys = std::move(keys_);
  const std::vector<std::uint32_t> old_values = std::move(values_);
  keys_.assign(capacity, kEmptyKey);
  values_.assign(capacity, 0);
  place(old_keys, old_values);
}

void FlatMap64::place(std::span<const std::uint64_t> keys,
                      std::span<const std::uint32_t> values) {
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == kEmptyKey) continue;
    const std::size_t slot = slot_of(keys[i]);
    keys_[slot] = keys[i];
    values_[slot] = values[i];
  }
}

FlatSet64 FlatSet64::adopt(std::vector<std::uint64_t> keys,
                           bool has_empty_key) {
  FlatSet64 set;
  const std::size_t capacity = keys.size();
  set.map_ = FlatMap64::adopt(
      {std::move(keys), std::vector<std::uint32_t>(capacity, 0)});
  set.has_empty_key_ = has_empty_key;
  return set;
}

}  // namespace bgpolicy::util
