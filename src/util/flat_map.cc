#include "util/flat_map.h"

#include <algorithm>

namespace bgpolicy::util {

void FlatMap64::clear() {
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

void FlatMap64::grow() {
  std::vector<std::uint64_t> old_keys = std::move(keys_);
  std::vector<std::uint32_t> old_values = std::move(values_);
  const std::size_t capacity = old_keys.empty() ? 64 : old_keys.size() * 2;
  keys_.assign(capacity, kEmptyKey);
  values_.assign(capacity, 0);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] == kEmptyKey) continue;
    const std::size_t slot = slot_of(old_keys[i]);
    keys_[slot] = old_keys[i];
    values_[slot] = old_values[i];
  }
}

}  // namespace bgpolicy::util
