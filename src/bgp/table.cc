#include "bgp/table.h"

#include <algorithm>

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
  if (routes.empty()) return;
  // Per-prefix neighbor -> slot index, seeded lazily from any routes the
  // table already held for the prefix, so replacement semantics match add().
  std::unordered_map<Prefix, std::unordered_map<util::AsNumber, std::size_t>>
      index;
  index.reserve(routes.size());
  for (Route& route : routes) {
    auto& neighbors = index[route.prefix];
    const auto [entry, fresh] = entries_.try_emplace(route.prefix);
    if (fresh) order_.push_back(route.prefix);
    auto& slots = entry->second;
    if (neighbors.empty() && !slots.empty()) {
      neighbors.reserve(slots.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        neighbors.emplace(slots[i].learned_from, i);
      }
    }
    const auto [it, inserted] =
        neighbors.try_emplace(route.learned_from, slots.size());
    if (inserted) {
      slots.push_back(std::move(route));
      ++route_count_;
    } else {
      slots[it->second] = std::move(route);
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
