#include "bgp/table.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

namespace bgpolicy::bgp {

namespace {

constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

std::uint64_t prefix_key(const Prefix& prefix) {
  return (static_cast<std::uint64_t>(prefix.network()) << 8) | prefix.length();
}

/// Writes `items` as row `row`'s slice of `arena`: over the slice the row
/// has (`replace`), or as the slice of a row just opened at that position.
/// The rows behind it move by the change in length.
template <typename T>
void write_slice(std::vector<std::uint32_t>& offsets, std::vector<T>& arena,
                 std::size_t row, std::span<const T> items, bool replace) {
  const std::uint32_t begin = offsets[row];
  if (!replace) {
    offsets.insert(offsets.begin() + static_cast<std::ptrdiff_t>(row) + 1,
                   begin);
  }
  const std::size_t old_length = offsets[row + 1] - begin;
  const auto at = arena.begin() + begin;
  if (items.size() == old_length) {
    std::copy(items.begin(), items.end(), at);
    return;
  }
  if (arena.size() - old_length + items.size() > kMaxOffset) {
    throw std::length_error("BgpTable: arena past 32-bit offsets");
  }
  arena.erase(at, at + static_cast<std::ptrdiff_t>(old_length));
  arena.insert(arena.begin() + begin, items.begin(), items.end());
  // Modulo 2^32, so a shrinking slice subtracts.
  const auto delta = static_cast<std::uint32_t>(items.size() - old_length);
  for (std::size_t i = row + 1; i < offsets.size(); ++i) offsets[i] += delta;
}

[[noreturn]] void reject(const char* what) {
  throw std::invalid_argument(std::string("BgpTable: ") + what);
}

/// Offsets of `size` items: from 0, never falling, to `size`; each slice
/// at least `min_length` and at most `max_length` long.
void check_offsets(std::span<const std::uint32_t> offsets, std::size_t size,
                   std::size_t min_length, std::size_t max_length) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != size) {
    reject("offsets do not span their column");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1] ||
        offsets[i] - offsets[i - 1] < min_length ||
        offsets[i] - offsets[i - 1] > max_length) {
      reject("bad offsets");
    }
  }
}

}  // namespace

DecisionInputs RouteView::decision_inputs() const {
  DecisionInputs inputs;
  inputs.local_pref = local_pref();
  inputs.path_length = path().length();
  inputs.origin = origin();
  inputs.next_hop = path().next_hop_as();
  inputs.med = med();
  inputs.router_id = learned_from().value();
  return inputs;
}

Route RouteView::to_route() const {
  Route route;
  route.prefix = prefix();
  const HopSpan hops = path();
  route.path = AsPath(std::vector<AsNumber>(hops.begin(), hops.end()));
  route.learned_from = learned_from();
  route.local_pref = local_pref();
  route.med = med();
  route.origin = origin();
  route.router_id = learned_from().value();
  route.communities.assign(communities().begin(), communities().end());
  return route;
}

RouteView TableEntry::best() const {
  std::uint32_t best = begin_;
  DecisionInputs best_inputs =
      RouteView(table_, entry_, best).decision_inputs();
  for (std::uint32_t row = begin_ + 1; row < end_; ++row) {
    DecisionInputs inputs = RouteView(table_, entry_, row).decision_inputs();
    if (compare(inputs, best_inputs).preference < 0) {
      best = row;
      best_inputs = std::move(inputs);
    }
  }
  return RouteView(table_, entry_, best);
}

BgpTable BgpTable::adopt(util::AsNumber owner, Columns columns) {
  const Columns& c = columns;
  const std::size_t entries = c.prefixes.size();
  const std::size_t rows = c.learned_from.size();
  if (c.row_offsets.size() != entries + 1 || c.local_pref.size() != rows ||
      c.med.size() != rows || c.origin.size() != rows ||
      c.hop_offsets.size() != rows + 1 ||
      c.community_offsets.size() != rows + 1) {
    reject("column sizes disagree");
  }
  check_offsets(c.row_offsets, rows, 1, kMaxOffset);
  check_offsets(c.hop_offsets, c.hops.size(), 0, kMaxRowList);
  check_offsets(c.community_offsets, c.communities.size(), 0, kMaxRowList);
  for (const Origin origin : c.origin) {
    if (origin > Origin::kIncomplete) reject("bad origin");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::uint32_t i = c.community_offsets[r] + 1;
         i < c.community_offsets[r + 1]; ++i) {
      if (c.communities[i] <= c.communities[i - 1]) {
        reject("communities not sorted and distinct");
      }
    }
  }

  BgpTable table(owner);
  table.index_.reserve(entries);
  for (std::size_t e = 0; e < entries; ++e) {
    if (!table.index_
             .try_insert(prefix_key(c.prefixes[e]),
                         static_cast<std::uint32_t>(e))
             .second) {
      reject("prefix stored twice");
    }
  }
  table.columns_ = std::move(columns);
  return table;
}

void BgpTable::add(Route route) {
  std::vector<Community>& communities = route.communities;
  if (std::adjacent_find(communities.begin(), communities.end(),
                         std::greater_equal<>()) != communities.end()) {
    std::sort(communities.begin(), communities.end());
    communities.erase(std::unique(communities.begin(), communities.end()),
                      communities.end());
  }
  put_row(route.prefix,
          {route.learned_from, route.local_pref, route.med, route.origin},
          route.path.hops(), communities);
}

void BgpTable::append(const BgpTable& later) {
  for (const TableEntry entry : later) {
    for (const RouteView row : entry) {
      const CommunitySpan communities = row.communities();
      put_row(entry.prefix(),
              {row.learned_from(), row.local_pref(), row.med(), row.origin()},
              row.path().hops(),
              std::span<const Community>(communities.begin(),
                                         communities.end()));
    }
  }
}

void BgpTable::put_row(const Prefix& prefix, const RowFields& fields,
                       std::span<const AsNumber> hops,
                       std::span<const Community> communities) {
  if (hops.size() > kMaxRowList || communities.size() > kMaxRowList) {
    throw std::length_error("BgpTable: row past 65,535 hops or communities");
  }
  Columns& c = columns_;
  std::uint32_t entry = 0;
  if (!c.prefixes.empty() && c.prefixes.back() == prefix) {
    entry = static_cast<std::uint32_t>(c.prefixes.size() - 1);
  } else {
    if (c.prefixes.size() >= kMaxOffset) {
      throw std::length_error("BgpTable: prefixes past 32-bit ids");
    }
    const auto [slot, fresh] = index_.try_insert(
        prefix_key(prefix), static_cast<std::uint32_t>(c.prefixes.size()));
    if (fresh) {
      c.prefixes.push_back(prefix);
      c.row_offsets.push_back(c.row_offsets.back());
    }
    entry = *slot;
  }

  // Implicit withdraw: the neighbor's row, if it has one, keeps its slot.
  std::uint32_t row = c.row_offsets[entry + 1];
  const auto slots = std::span<const AsNumber>(c.learned_from)
                         .subspan(c.row_offsets[entry],
                                  row - c.row_offsets[entry]);
  const auto same = std::find(slots.begin(), slots.end(), fields.learned_from);
  const bool replace = same != slots.end();
  if (replace) {
    row = c.row_offsets[entry] +
          static_cast<std::uint32_t>(same - slots.begin());
    c.local_pref[row] = fields.local_pref;
    c.med[row] = fields.med;
    c.origin[row] = fields.origin;
  } else {
    if (c.learned_from.size() >= kMaxOffset) {
      throw std::length_error("BgpTable: rows past 32-bit offsets");
    }
    const auto at = static_cast<std::ptrdiff_t>(row);
    c.learned_from.insert(c.learned_from.begin() + at, fields.learned_from);
    c.local_pref.insert(c.local_pref.begin() + at, fields.local_pref);
    c.med.insert(c.med.begin() + at, fields.med);
    c.origin.insert(c.origin.begin() + at, fields.origin);
    for (std::size_t e = entry + 1; e < c.row_offsets.size(); ++e) {
      ++c.row_offsets[e];
    }
  }
  write_slice(c.hop_offsets, c.hops, row, hops, replace);
  write_slice(c.community_offsets, c.communities, row, communities, replace);
}

TableEntry BgpTable::routes(const Prefix& prefix) const {
  const std::uint32_t* entry = index_.find(prefix_key(prefix));
  if (entry == nullptr) return TableEntry(this, 0, 0, 0);
  return entry_at(*entry);
}

std::optional<RouteView> BgpTable::best(const Prefix& prefix) const {
  const TableEntry entry = routes(prefix);
  if (entry.empty()) return std::nullopt;
  return entry.best();
}

bool BgpTable::contains(const Prefix& prefix) const {
  return index_.find(prefix_key(prefix)) != nullptr;
}

}  // namespace bgpolicy::bgp
