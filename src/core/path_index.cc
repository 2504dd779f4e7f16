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
  next.push_back(id);
  link_run(key, id, id + 1);
}

void PathIndex::IdLists::link_run(std::uint64_t key, std::uint32_t first,
                                  std::uint32_t end) {
  for (std::uint32_t id = first; id + 1 < end; ++id) next[id] = id + 1;
  const std::uint32_t run_newest = end - 1;
  const auto [newest, inserted] = last.try_insert(key, run_newest);
  if (inserted) {
    next[run_newest] = first;  // a ring of the run
    return;
  }
  // Splice the run in between the key's newest id and its oldest.
  const std::uint32_t oldest = next[*newest];
  next[*newest] = first;
  next[run_newest] = oldest;
  *newest = run_newest;
}

PathIndex PathIndex::adopt(std::vector<util::AsNumber> hops,
                           std::vector<std::uint32_t> offsets,
                           std::vector<bgp::Prefix> prefixes,
                           util::FlatSet64 adjacency) {
  const std::size_t n = prefixes.size();
  if (offsets.size() != n + 1 || offsets.front() != 0 ||
      offsets.back() != hops.size() ||
      n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("PathIndex: offsets do not span the hops");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (offsets[i + 1] <= offsets[i]) {
      throw std::invalid_argument("PathIndex: an entry without hops");
    }
  }
  PathIndex index;
  index.hops_ = std::move(hops);
  index.offsets_ = std::move(offsets);
  index.prefixes_ = std::move(prefixes);
  index.adjacency_ = std::move(adjacency);

  // Re-link each list a run of same-key ids at a time.
  const auto relink = [&](IdLists& lists, auto&& key_of) {
    lists.next.resize(n);
    for (std::uint32_t first = 0, end = 0; first < n; first = end) {
      const std::uint64_t key = key_of(first);
      end = first + 1;
      while (end < n && key_of(end) == key) ++end;
      lists.link_run(key, first, end);
    }
  };
  relink(index.by_prefix_,
         [&](std::uint32_t id) { return prefix_key(index.prefixes_[id]); });
  relink(index.by_origin_, [&](std::uint32_t id) {
    return std::uint64_t{index.hops_[index.offsets_[id + 1] - 1].value()};
  });
  return index;
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
  if (seen_.size() != path_count()) {
    for (std::size_t i = 0; i < path_count(); ++i) {
      seen_.insert(entry_key(prefixes_[i], std::nullopt, path_at(i)));
    }
  }
  if (!seen_.insert(entry_key(prefix, front, hops))) return;

  const std::size_t begin = hops_.size();
  if (front) hops_.push_back(*front);
  hops_.insert(hops_.end(), hops.begin(), hops.end());
  append_entry(prefix, begin);
}

void PathIndex::append_entry(const bgp::Prefix& prefix, std::size_t begin) {
  if (prefixes_.size() >= std::numeric_limits<std::uint32_t>::max() ||
      hops_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("PathIndex: past 32-bit ids or offsets");
  }
  const auto id = static_cast<std::uint32_t>(prefixes_.size());
  offsets_.push_back(static_cast<std::uint32_t>(hops_.size()));
  prefixes_.push_back(prefix);
  by_origin_.link(hops_.back().value(), id);
  by_prefix_.link(prefix_key(prefix), id);
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
    for (const bgp::TableEntry entry : *source.table) {
      for (const bgp::RouteView route : entry) {
        install(entry.prefix(), source.prepend, route.path().hops());
      }
    }
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
