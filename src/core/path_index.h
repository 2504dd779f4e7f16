// An index over all AS paths observed in one or more BGP tables.
//
// Backs the paper's "by searching all paths in BGP routing tables"
// operations: the active-customer-path check of the SA verification
// (Section 5.1.3, Step 2) and the direct-provider adjacency scan of the
// Case-3 cause analysis (Section 5.1.5).
//
// Construction: one sequential pass in table order.  Every indexed path's
// hops live in one buffer (path i is a slice of it), the (prefix, path)
// dedup and the adjacency set are open-addressed util::FlatSet64 sets, and
// the per-origin and per-prefix id lists are flat too: a util::FlatMap64
// maps each key to its newest id, and a per-entry link array chains each
// key's ids in insertion order.  Ingesting a route costs a hash and a few
// probes — no allocation per path or per key.  Path ids follow insertion
// order, which is what prefix_at/path_at expose, io/artifact_codec
// persists, and paths_for_prefix/paths_from_origin return.
//
// Stored as laid out: io/artifact_codec writes the hop buffer, the entry
// lengths and prefixes, and the adjacency set's slots, and adopt() takes
// them back.  The id lists are rebuilt there, one probe per run of
// consecutive ids with the same key (ids arrive table by table, prefix by
// prefix, so a run is usually a whole prefix's paths in one table);
// storing them would add 8 bytes per entry.  The (prefix, path) dedup set
// is not stored: it is rebuilt from the entries before the next add.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bgp/table.h"
#include "util/flat_map.h"
#include "util/ids.h"

namespace bgpolicy::core {

class PathIndex {
 public:
  /// One table to ingest; `prepend`, when set, is the vantage AS prepended
  /// to every path so looking-glass views line up with the collector's.
  struct TableSource {
    const bgp::BgpTable* table = nullptr;
    std::optional<util::AsNumber> prepend;
  };

  /// Ingests every route's AS path from `table` (deduplicated).
  void add_table(const bgp::BgpTable& table);

  /// Ingests one (prefix, path) observation directly — used for vantage
  /// tables whose own AS must be prepended to match the collector's view.
  void add_path(const bgp::Prefix& prefix,
                std::span<const util::AsNumber> path);

  /// Ingests many tables in order: the same index as add_table on each
  /// source with its vantage AS prepended to every path.
  void add_tables(std::span<const TableSource> tables);

  /// Takes a stored index back (io/artifact_codec): `offsets` delimit each
  /// entry's path in `hops`.  Throws std::invalid_argument unless the
  /// offsets start at 0, rise by at least one hop per entry and end at the
  /// hop count, with one prefix per entry (`adjacency` is checked by
  /// util::FlatSet64::adopt).  Rebuilds the id lists.
  [[nodiscard]] static PathIndex adopt(std::vector<util::AsNumber> hops,
                                       std::vector<std::uint32_t> offsets,
                                       std::vector<bgp::Prefix> prefixes,
                                       util::FlatSet64 adjacency);

  [[nodiscard]] std::size_t path_count() const { return prefixes_.size(); }

  /// The stored form (io/artifact_codec): the hop buffer, the path_count()
  /// + 1 entry offsets into it, the entries' prefixes and the adjacency
  /// set.
  [[nodiscard]] std::span<const util::AsNumber> hops() const { return hops_; }
  [[nodiscard]] std::span<const std::uint32_t> offsets() const {
    return offsets_;
  }
  [[nodiscard]] std::span<const bgp::Prefix> prefixes() const {
    return prefixes_;
  }
  [[nodiscard]] const util::FlatSet64& adjacency() const {
    return adjacency_;
  }

  /// The i-th indexed observation, in insertion order.  Spans into the
  /// index stay valid until the next add.
  [[nodiscard]] const bgp::Prefix& prefix_at(std::size_t i) const {
    return prefixes_[i];
  }
  [[nodiscard]] std::span<const util::AsNumber> path_at(std::size_t i) const {
    return std::span<const util::AsNumber>(hops_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// Distinct ordered AS adjacencies across all indexed paths.
  [[nodiscard]] std::size_t adjacency_count() const {
    return adjacency_.size();
  }

  /// All distinct paths whose origin (rightmost hop) is `origin`, in
  /// insertion order.
  [[nodiscard]] std::vector<std::span<const util::AsNumber>>
  paths_from_origin(util::AsNumber origin) const;

  /// All distinct paths observed for a specific prefix, in insertion
  /// order.
  [[nodiscard]] std::vector<std::span<const util::AsNumber>> paths_for_prefix(
      const bgp::Prefix& prefix) const;

  /// True when some observed path contains `left` immediately followed by
  /// `right` (reading observer -> origin).
  [[nodiscard]] bool has_adjacency(util::AsNumber left,
                                   util::AsNumber right) const;

 private:
  /// Ids of one key in insertion order, without a node per key: `last`
  /// maps the key to its newest id, and `next[id]` is the key's id after
  /// `id` — for the newest, the oldest (each list is a ring entered at its
  /// newest id).
  struct IdLists {
    util::FlatMap64 last;
    std::vector<std::uint32_t> next;

    void link(std::uint64_t key, std::uint32_t id);
    /// Links ids [first, end) — all of key `key`, `next` already sized to
    /// hold them — in one probe.
    void link_run(std::uint64_t key, std::uint32_t first, std::uint32_t end);
    [[nodiscard]] std::vector<std::span<const util::AsNumber>> paths(
        const PathIndex& index, std::uint64_t key) const;
  };

  /// Indexes the path `front` (when set) followed by `hops` for `prefix`,
  /// unless that (prefix, path) pair is already indexed or the path is
  /// empty.
  void install(const bgp::Prefix& prefix, std::optional<util::AsNumber> front,
               std::span<const util::AsNumber> hops);
  /// Files the entry whose hops end the buffer under its prefix, its
  /// origin and its adjacencies.
  void append_entry(const bgp::Prefix& prefix, std::size_t begin);

  /// Every indexed path's hops, back to back; path i is
  /// hops_[offsets_[i], offsets_[i + 1]).
  std::vector<util::AsNumber> hops_;
  std::vector<std::uint32_t> offsets_{0};
  /// Prefix of each indexed observation (prefix_at).
  std::vector<bgp::Prefix> prefixes_;
  IdLists by_origin_;
  IdLists by_prefix_;
  util::FlatSet64 adjacency_;
  /// (prefix, path-hash) dedup guard, one key per entry; empty after
  /// adopt() until the next add rebuilds it.
  util::FlatSet64 seen_;
};

}  // namespace bgpolicy::core
