// An index over all AS paths observed in one or more BGP tables.
//
// Backs the paper's "by searching all paths in BGP routing tables"
// operations: the active-customer-path check of the SA verification
// (Section 5.1.3, Step 2) and the direct-provider adjacency scan of the
// Case-3 cause analysis (Section 5.1.5).
//
// Construction: one sequential pass in table order.  Every indexed path's
// hops live in one buffer (path i is a slice of it), and the (prefix,
// path) dedup and the adjacency set are open-addressed util::FlatSet64
// sets, so ingesting a route costs a hash and a few probes — no per-path
// allocation.  The build is not sharded: internet2002's 372,131 paths
// index in 0.26–0.28 s on one core of a shared 4-CPU host, less than the
// Simulate persist the staged experiment runs beside it.  Path ids follow
// insertion order, which is what prefix_at/path_at expose and
// io/artifact_codec persists; every query is a set-membership or any-of
// scan, so consumers are insensitive to that order anyway.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
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

  [[nodiscard]] std::size_t path_count() const { return prefixes_.size(); }

  /// The i-th indexed observation, in insertion order — the serialization
  /// hook for io/artifact_codec: re-feeding every (prefix, path) entry
  /// through add_path in order reconstructs an identical index.  Spans
  /// into the index stay valid until the next add.
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

  /// All distinct paths whose origin (rightmost hop) is `origin`.
  [[nodiscard]] std::vector<std::span<const util::AsNumber>>
  paths_from_origin(util::AsNumber origin) const;

  /// All distinct paths observed for a specific prefix.
  [[nodiscard]] std::vector<std::span<const util::AsNumber>> paths_for_prefix(
      const bgp::Prefix& prefix) const;

  /// True when some observed path contains `left` immediately followed by
  /// `right` (reading observer -> origin).
  [[nodiscard]] bool has_adjacency(util::AsNumber left,
                                   util::AsNumber right) const;

 private:
  /// Indexes the path `front` (when set) followed by `hops` for `prefix`,
  /// unless that (prefix, path) pair is already indexed or the path is
  /// empty.
  void install(const bgp::Prefix& prefix, std::optional<util::AsNumber> front,
               std::span<const util::AsNumber> hops);

  /// Every indexed path's hops, back to back; path i is
  /// hops_[offsets_[i], offsets_[i + 1]).
  std::vector<util::AsNumber> hops_;
  std::vector<std::size_t> offsets_{0};
  /// Prefix of each indexed observation (prefix_at).
  std::vector<bgp::Prefix> prefixes_;
  std::unordered_map<util::AsNumber, std::vector<std::size_t>> by_origin_;
  std::unordered_map<bgp::Prefix, std::vector<std::size_t>> by_prefix_;
  util::FlatSet64 adjacency_;
  /// (prefix, path-hash) dedup guard.
  util::FlatSet64 seen_;
};

}  // namespace bgpolicy::core
