#include "bgp/table.h"

#include <algorithm>

#include "util/flat_map.h"

namespace bgpolicy::bgp {

void BgpTable::add(Route route) {
  const auto [entry, inserted] = entries_.try_emplace(route.prefix);
  if (inserted) order_.push_back(route.prefix);
  auto& routes = entry->second;
  const auto it = std::find_if(routes.begin(), routes.end(),
                               [&](const Route& existing) {
                                 return existing.learned_from ==
                                        route.learned_from;
                               });
  if (it != routes.end()) {
    *it = std::move(route);
  } else {
    routes.push_back(std::move(route));
    ++route_count_;
  }
}

void BgpTable::add_batch(std::vector<Route> routes) {
  // Neighbor -> slot indexes of the prefixes too large to scan.  A prefix
  // gets one the first time a run could take it past the limit, seeded
  // from the slots it holds then; every later run of it uses the index.
  std::unordered_map<Prefix, util::FlatMap64> large;
  for (std::size_t begin = 0, end = 0; begin < routes.size(); begin = end) {
    const Prefix prefix = routes[begin].prefix;
    end = begin + 1;
    while (end < routes.size() && routes[end].prefix == prefix) ++end;

    const auto [entry, fresh] = entries_.try_emplace(prefix);
    if (fresh) order_.push_back(prefix);
    std::vector<Route>& slots = entry->second;
    // Grow geometrically: a prefix that keeps coming back in short runs
    // must not reallocate its slots on every run.
    const std::size_t bound = slots.size() + (end - begin);
    if (slots.capacity() < bound) {
      slots.reserve(std::max(bound, 2 * slots.capacity()));
    }
    util::FlatMap64* index = nullptr;
    if (const auto it = large.find(prefix); it != large.end()) {
      index = &it->second;
    } else if (bound > kBatchScanLimit) {
      index = &large[prefix];
      for (std::size_t i = 0; i < slots.size(); ++i) {
        index->insert(slots[i].learned_from.value(),
                      static_cast<std::uint32_t>(i));
      }
    }

    for (std::size_t r = begin; r < end; ++r) {
      Route& route = routes[r];
      std::size_t slot = 0;
      if (index != nullptr) {
        const auto [mapped, inserted] =
            index->try_insert(route.learned_from.value(),
                              static_cast<std::uint32_t>(slots.size()));
        slot = *mapped;
      } else {
        while (slot < slots.size() &&
               slots[slot].learned_from != route.learned_from) {
          ++slot;
        }
      }
      if (slot == slots.size()) {
        slots.push_back(std::move(route));
        ++route_count_;
      } else {
        slots[slot] = std::move(route);
      }
    }
  }
}

void BgpTable::withdraw(const Prefix& prefix, util::AsNumber neighbor) {
  const auto entry = entries_.find(prefix);
  if (entry == entries_.end()) return;
  auto& routes = entry->second;
  const auto it = std::find_if(routes.begin(), routes.end(),
                               [&](const Route& existing) {
                                 return existing.learned_from == neighbor;
                               });
  if (it == routes.end()) return;
  routes.erase(it);
  --route_count_;
  if (routes.empty()) {
    entries_.erase(entry);
    order_.erase(std::find(order_.begin(), order_.end(), prefix));
  }
}

std::span<const Route> BgpTable::routes(const Prefix& prefix) const {
  const auto it = entries_.find(prefix);
  if (it == entries_.end()) return {};
  return it->second;
}

const Route* BgpTable::best(const Prefix& prefix) const {
  const auto it = entries_.find(prefix);
  if (it == entries_.end()) return nullptr;
  const auto index = select_best(it->second);
  return index ? &it->second[*index] : nullptr;
}

bool BgpTable::contains(const Prefix& prefix) const {
  return entries_.contains(prefix);
}

void BgpTable::for_each(
    const std::function<void(const Prefix&, std::span<const Route>)>& fn)
    const {
  for (const Prefix& prefix : order_) fn(prefix, entries_.at(prefix));
}

void BgpTable::for_each_best(
    const std::function<void(const Route&)>& fn) const {
  for (const Prefix& prefix : order_) {
    const auto& routes = entries_.at(prefix);
    const auto index = select_best(routes);
    if (index) fn(routes[*index]);
  }
}

void BgpTable::drain(const std::function<void(Route&&)>& fn) {
  for (const Prefix& prefix : order_) {
    for (Route& route : entries_.at(prefix)) fn(std::move(route));
  }
  entries_.clear();
  order_.clear();
  route_count_ = 0;
}

}  // namespace bgpolicy::bgp
