// A BGP routing table as seen from one vantage point — the unit of input
// for every inference algorithm in the paper ("routing table from the
// viewpoint of AS u", Fig. 4).
//
// Two flavors share this type:
//  * collector tables (Oregon RouteViews style): one route per collector
//    peer per prefix, AS-path only attributes trustworthy;
//  * looking-glass tables: the Adj-RIB-In of a single AS, local-pref and
//    communities visible.
//
// Storage is a set of append-only columns.  Each prefix owns one range of
// rows, prefixes in first-insertion order and rows in slot order; a row
// holds the fixed attributes a recorded table keeps (learned_from,
// local_pref, med, origin), and its AS-path hops and communities are
// slices of two per-table arenas.  Prefix lookup goes through a
// util::FlatMap64.  Reads return views (RouteView, TableEntry) into the
// columns, so reading a table allocates nothing, and io/binary_table
// stores the columns as they are laid out.
//
// A row keeps no router id, eBGP flag or IGP metric: a recorded row is
// learned over eBGP from the router of its neighbor AS, so a view reports
// router id = learned_from, eBGP and IGP metric 0 to the decision process.
// The recorder checks that its rows already satisfy this
// (sim/simulation.cc).
//
// add() keeps BGP implicit-withdraw semantics: a row from a neighbor that
// already has one for the prefix replaces it in its slot.  Recording needs
// this while one prefix can be recorded more than once (duplicate
// originations, multi-origin prefixes).  Appending the rows of the newest
// prefix costs a scan of that prefix's rows; a prefix that reappears
// later is spliced in place, which moves the rows behind it.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <vector>

#include "bgp/decision.h"
#include "bgp/prefix.h"
#include "bgp/route.h"
#include "util/flat_map.h"
#include "util/ids.h"

namespace bgpolicy::bgp {

class BgpTable;

/// One row of a table, read in place.  Valid until the table changes.
class RouteView {
 public:
  [[nodiscard]] const Prefix& prefix() const;
  [[nodiscard]] HopSpan path() const;
  [[nodiscard]] CommunitySpan communities() const;
  [[nodiscard]] AsNumber learned_from() const;
  [[nodiscard]] std::uint32_t local_pref() const;
  [[nodiscard]] std::uint32_t med() const;
  [[nodiscard]] Origin origin() const;

  /// Origin AS of the prefix: last path hop, or the learner for
  /// self-originated rows.
  [[nodiscard]] AsNumber origin_as() const {
    const std::optional<AsNumber> last = path().origin_as();
    return last ? *last : learned_from();
  }

  /// The decision process's inputs; router id = learned_from, eBGP, IGP
  /// metric 0 (see the file comment).
  [[nodiscard]] DecisionInputs decision_inputs() const;
  /// The row as a value route, with the same defaults.
  [[nodiscard]] Route to_route() const;

 private:
  friend class TableEntry;
  RouteView(const BgpTable* table, std::uint32_t entry, std::uint32_t row)
      : table_(table), entry_(entry), row_(row) {}

  const BgpTable* table_;
  std::uint32_t entry_;
  std::uint32_t row_;
};

/// One prefix's rows, in slot order.  Empty when the table lacks the
/// prefix (BgpTable::routes); prefix() needs a non-empty entry.
class TableEntry {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RouteView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RouteView;

    iterator() = default;
    RouteView operator*() const { return RouteView(table_, entry_, row_); }
    iterator& operator++() {
      ++row_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++row_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.row_ == b.row_;
    }

   private:
    friend class TableEntry;
    iterator(const BgpTable* table, std::uint32_t entry, std::uint32_t row)
        : table_(table), entry_(entry), row_(row) {}
    const BgpTable* table_ = nullptr;
    std::uint32_t entry_ = 0;
    std::uint32_t row_ = 0;
  };

  [[nodiscard]] const Prefix& prefix() const;
  [[nodiscard]] std::size_t size() const { return end_ - begin_; }
  [[nodiscard]] bool empty() const { return begin_ == end_; }
  [[nodiscard]] RouteView operator[](std::size_t i) const {
    return RouteView(table_, entry_, begin_ + static_cast<std::uint32_t>(i));
  }
  [[nodiscard]] iterator begin() const {
    return iterator(table_, entry_, begin_);
  }
  [[nodiscard]] iterator end() const { return iterator(table_, entry_, end_); }

  /// The best row per the decision process (select_best over the views:
  /// the earliest row wins exact ties).  The entry must not be empty.
  [[nodiscard]] RouteView best() const;

 private:
  friend class BgpTable;
  TableEntry(const BgpTable* table, std::uint32_t entry, std::uint32_t begin,
             std::uint32_t end)
      : table_(table), entry_(entry), begin_(begin), end_(end) {}

  const BgpTable* table_;
  std::uint32_t entry_;
  std::uint32_t begin_;
  std::uint32_t end_;
};

class BgpTable {
 public:
  /// The columns, exactly as io/binary_table stores them.  Entry e's rows
  /// are [row_offsets[e], row_offsets[e + 1]); row r's hops are
  /// hops[hop_offsets[r], hop_offsets[r + 1]) and its communities likewise.
  struct Columns {
    std::vector<Prefix> prefixes;
    std::vector<std::uint32_t> row_offsets{0};
    std::vector<AsNumber> learned_from;
    std::vector<std::uint32_t> local_pref;
    std::vector<std::uint32_t> med;
    std::vector<Origin> origin;
    std::vector<std::uint32_t> hop_offsets{0};
    std::vector<AsNumber> hops;
    std::vector<std::uint32_t> community_offsets{0};
    std::vector<Community> communities;
  };

  /// Most hops, and most communities, one row can hold (the stored row
  /// keeps each count in 16 bits).
  static constexpr std::size_t kMaxRowList = 0xFFFF;

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = TableEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = TableEntry;

    iterator() = default;
    TableEntry operator*() const { return table_->entry_at(entry_); }
    iterator& operator++() {
      ++entry_;
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++entry_;
      return before;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.entry_ == b.entry_;
    }

   private:
    friend class BgpTable;
    iterator(const BgpTable* table, std::uint32_t entry)
        : table_(table), entry_(entry) {}
    const BgpTable* table_ = nullptr;
    std::uint32_t entry_ = 0;
  };

  BgpTable() = default;
  explicit BgpTable(util::AsNumber owner) : owner_(owner) {}

  /// Adopts stored columns (io/binary_table): checks what the readers rely
  /// on — offsets that start at 0, never fall and end at their column's
  /// size, no prefix without rows, no row past kMaxRowList hops or
  /// communities, distinct prefixes, origins in range, sorted
  /// duplicate-free communities — then rebuilds the prefix index.  Throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] static BgpTable adopt(util::AsNumber owner, Columns columns);

  [[nodiscard]] util::AsNumber owner() const { return owner_; }
  [[nodiscard]] const Columns& columns() const { return columns_; }

  /// Adds a route.  If a route from the same neighbor already exists for
  /// the prefix it is replaced in its slot (BGP implicit withdraw).  The
  /// route's router id, eBGP flag and IGP metric are not kept (see the
  /// file comment), and its communities are kept sorted and distinct.
  /// Throws std::length_error past kMaxRowList hops or communities.
  void add(Route route);

  /// Adds every row of `later` (another table) in its order, exactly as
  /// add() on each would: the rows of a prefix new to this table are
  /// appended, and only a prefix already here goes through replacement.
  /// How sim::merge_sim_chunk concatenates a chunk's tables.
  void append(const BgpTable& later);

  /// All rows for a prefix (empty when absent).
  [[nodiscard]] TableEntry routes(const Prefix& prefix) const;

  /// Best row per the decision process; nullopt when the prefix is absent.
  [[nodiscard]] std::optional<RouteView> best(const Prefix& prefix) const;

  [[nodiscard]] bool contains(const Prefix& prefix) const;
  [[nodiscard]] std::size_t prefix_count() const {
    return columns_.prefixes.size();
  }
  [[nodiscard]] std::size_t route_count() const {
    return columns_.learned_from.size();
  }

  /// All prefixes, in first-insertion order.  Deterministic iteration is
  /// what lets stored tables round-trip byte-identically and makes every
  /// reader independent of hash-map layout (io/artifact_codec.h relies on
  /// this).
  [[nodiscard]] std::span<const Prefix> prefixes() const {
    return columns_.prefixes;
  }

  /// Entries in first-insertion prefix order.
  [[nodiscard]] iterator begin() const { return iterator(this, 0); }
  [[nodiscard]] iterator end() const {
    return iterator(this, static_cast<std::uint32_t>(prefix_count()));
  }

 private:
  friend class RouteView;
  friend class TableEntry;

  struct RowFields {
    AsNumber learned_from;
    std::uint32_t local_pref;
    std::uint32_t med;
    Origin origin;
  };

  [[nodiscard]] TableEntry entry_at(std::uint32_t entry) const {
    return TableEntry(this, entry, columns_.row_offsets[entry],
                      columns_.row_offsets[entry + 1]);
  }
  void put_row(const Prefix& prefix, const RowFields& fields,
               std::span<const AsNumber> hops,
               std::span<const Community> communities);

  util::AsNumber owner_;
  Columns columns_;
  /// Prefix key -> entry.
  util::FlatMap64 index_;
};

inline const Prefix& RouteView::prefix() const {
  return table_->columns_.prefixes[entry_];
}
inline HopSpan RouteView::path() const {
  const BgpTable::Columns& c = table_->columns_;
  return HopSpan(std::span<const AsNumber>(c.hops).subspan(
      c.hop_offsets[row_], c.hop_offsets[row_ + 1] - c.hop_offsets[row_]));
}
inline CommunitySpan RouteView::communities() const {
  const BgpTable::Columns& c = table_->columns_;
  return CommunitySpan(std::span<const Community>(c.communities)
                           .subspan(c.community_offsets[row_],
                                    c.community_offsets[row_ + 1] -
                                        c.community_offsets[row_]));
}
inline AsNumber RouteView::learned_from() const {
  return table_->columns_.learned_from[row_];
}
inline std::uint32_t RouteView::local_pref() const {
  return table_->columns_.local_pref[row_];
}
inline std::uint32_t RouteView::med() const {
  return table_->columns_.med[row_];
}
inline Origin RouteView::origin() const {
  return table_->columns_.origin[row_];
}
inline const Prefix& TableEntry::prefix() const {
  return table_->columns_.prefixes[entry_];
}

}  // namespace bgpolicy::bgp
