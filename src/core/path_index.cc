#include "core/path_index.h"

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

}  // namespace

void PathIndex::install(const bgp::Prefix& prefix,
                        std::optional<util::AsNumber> front,
                        std::span<const util::AsNumber> hops) {
  if (!front && hops.empty()) return;
  if (!seen_.insert(entry_key(prefix, front, hops))) return;

  const std::size_t id = prefixes_.size();
  const std::size_t begin = hops_.size();
  if (front) hops_.push_back(*front);
  hops_.insert(hops_.end(), hops.begin(), hops.end());
  offsets_.push_back(hops_.size());
  prefixes_.push_back(prefix);

  by_origin_[hops_.back()].push_back(id);
  by_prefix_[prefix].push_back(id);
  for (std::size_t i = begin; i + 1 < hops_.size(); ++i) {
    adjacency_.insert(pack_pair(hops_[i], hops_[i + 1]));
  }
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
  std::vector<std::span<const util::AsNumber>> out;
  const auto it = by_origin_.find(origin);
  if (it == by_origin_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t id : it->second) out.push_back(path_at(id));
  return out;
}

std::vector<std::span<const util::AsNumber>> PathIndex::paths_for_prefix(
    const bgp::Prefix& prefix) const {
  std::vector<std::span<const util::AsNumber>> out;
  const auto it = by_prefix_.find(prefix);
  if (it == by_prefix_.end()) return out;
  out.reserve(it->second.size());
  for (const std::size_t id : it->second) out.push_back(path_at(id));
  return out;
}

bool PathIndex::has_adjacency(util::AsNumber left, util::AsNumber right) const {
  return adjacency_.contains(pack_pair(left, right));
}

}  // namespace bgpolicy::core
