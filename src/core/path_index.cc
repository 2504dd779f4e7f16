#include "core/path_index.h"

#include <limits>
#include <stdexcept>

namespace bgpolicy::core {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

/// The (prefix, path) dedup key of the path `front` (when set) followed by
/// `hops`.
std::uint64_t entry_key(const bgp::Prefix& prefix,
                        std::optional<util::AsNumber> front,
                        std::span<const util::AsNumber> hops) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (front) h = mix(h, front->value());
  for (const auto as : hops) h = mix(h, as.value());
  return mix(mix(h, prefix.network()), prefix.length());
}

std::uint64_t pack_pair(util::AsNumber a, util::AsNumber b) {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

std::uint64_t prefix_key(const bgp::Prefix& prefix) {
  return (static_cast<std::uint64_t>(prefix.network()) << 8) | prefix.length();
}

}  // namespace

void PathIndex::IdLists::link(std::uint64_t key, std::uint32_t id) {
  const auto [newest, inserted] = last.try_insert(key, id);
  if (inserted) {
    next.push_back(id);  // a ring of one
    return;
  }
  const std::uint32_t oldest = next[*newest];
  next.push_back(oldest);
  next[*newest] = id;
  *newest = id;
}

std::vector<std::span<const util::AsNumber>> PathIndex::IdLists::paths(
    const PathIndex& index, std::uint64_t key) const {
  std::vector<std::span<const util::AsNumber>> out;
  const std::uint32_t* newest = last.find(key);
  if (newest == nullptr) return out;
  std::uint32_t id = *newest;
  do {
    id = next[id];
    out.push_back(index.path_at(id));
  } while (id != *newest);
  return out;
}

void PathIndex::install(const bgp::Prefix& prefix,
                        std::optional<util::AsNumber> front,
                        std::span<const util::AsNumber> hops) {
  if (!front && hops.empty()) return;
  if (seen_stale_) {
    for (std::size_t i = 0; i < path_count(); ++i) {
      seen_.insert(entry_key(prefixes_[i], std::nullopt, path_at(i)));
    }
    seen_stale_ = false;
  }
  if (!seen_.insert(entry_key(prefix, front, hops))) return;

  const std::size_t begin = hops_.size();
  if (front) hops_.push_back(*front);
  hops_.insert(hops_.end(), hops.begin(), hops.end());
  append_entry(prefix, begin);
}

void PathIndex::append_stored(const bgp::Prefix& prefix,
                              std::span<const util::AsNumber> path) {
  if (path.empty()) return;
  const std::size_t begin = hops_.size();
  hops_.insert(hops_.end(), path.begin(), path.end());
  append_entry(prefix, begin);
  seen_stale_ = true;
}

void PathIndex::append_entry(const bgp::Prefix& prefix, std::size_t begin) {
  if (prefixes_.size() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("PathIndex: more paths than 32-bit ids");
  }
  const auto id = static_cast<std::uint32_t>(prefixes_.size());
  offsets_.push_back(hops_.size());
  prefixes_.push_back(prefix);
  by_origin_.link(hops_.back().value(), id);
  by_prefix_.link(prefix_key(prefix), id);
  for (std::size_t i = begin; i + 1 < hops_.size(); ++i) {
    adjacency_.insert(pack_pair(hops_[i], hops_[i + 1]));
  }
}

void PathIndex::reserve(std::size_t paths, std::size_t hops) {
  hops_.reserve(hops_.size() + hops);
  offsets_.reserve(offsets_.size() + paths);
  prefixes_.reserve(prefixes_.size() + paths);
  by_origin_.next.reserve(by_origin_.next.size() + paths);
  by_prefix_.next.reserve(by_prefix_.next.size() + paths);
}

void PathIndex::add_path(const bgp::Prefix& prefix,
                         std::span<const util::AsNumber> path) {
  install(prefix, std::nullopt, path);
}

void PathIndex::add_table(const bgp::BgpTable& table) {
  const TableSource source{&table, std::nullopt};
  add_tables(std::span<const TableSource>(&source, 1));
}

void PathIndex::add_tables(std::span<const TableSource> tables) {
  for (const TableSource& source : tables) {
    if (source.table == nullptr) continue;
    source.table->for_each([&](const bgp::Prefix& prefix,
                               std::span<const bgp::Route> routes) {
      for (const bgp::Route& route : routes) {
        install(prefix, source.prepend, route.path.hops());
      }
    });
  }
}

std::vector<std::span<const util::AsNumber>> PathIndex::paths_from_origin(
    util::AsNumber origin) const {
  return by_origin_.paths(*this, origin.value());
}

std::vector<std::span<const util::AsNumber>> PathIndex::paths_for_prefix(
    const bgp::Prefix& prefix) const {
  return by_prefix_.paths(*this, prefix_key(prefix));
}

bool PathIndex::has_adjacency(util::AsNumber left, util::AsNumber right) const {
  return adjacency_.contains(pack_pair(left, right));
}

}  // namespace bgpolicy::core
