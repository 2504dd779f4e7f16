// AS-relationship inference from AS paths, after Gao (IEEE/ACM ToN 2001,
// the paper's reference [12]), with the top-clique refinement of
// Subramanian et al. (INFOCOM 2002, reference [8]).  The paper's Section 3
// builds on exactly these two algorithms.
//
// Sketch:
//  1. Every observed table path is valley-free: it climbs
//     customer-to-provider edges, crosses at most one peer-peer edge at the
//     top, then descends.  The highest-degree AS on a path is taken as its
//     top; edges left of the top vote "right AS provides transit", edges
//     right of it vote the reverse.
//  2. The default-free core is recovered as a greedy clique over the
//     adjacency graph, seeded at the highest-degree AS.  Clique-internal
//     edges are peer-to-peer; clique-to-outside edges are
//     provider-to-customer (Tier-1s of the era did not peer downward).
//  3. Remaining edges are classified by vote majority (balanced mutual
//     votes => sibling).  Interior path crests nominate peer candidates; a
//     candidate (u,v) survives unless some path shows an AS that is *not a
//     customer of u* immediately before u — valley-freeness then proves u
//     was providing transit across the edge, so it cannot be a peer link.
//
// Storage is flat: the cleaned paths sit back to back in one hop buffer
// (path i is a slice of it), each observed edge is one packed (lower AS <<
// 32) | higher AS key in an open-addressed util::FlatSet64, and each AS's
// degree is a count in a util::FlatMap64, bumped when one of its edges is
// first seen.  Feeding a path cleans it straight into the buffer and costs
// one flat probe per hop pair — no allocation per path; degree() and
// top_clique() read the counts and the set, and the voting passes read the
// paths as spans.  io/artifact_codec stores the hop buffer, the path
// lengths, the edge set, the degree map and the first-seen AS list as they
// are laid out, and adopt() takes them back without replaying a path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "asrel/relationships.h"
#include "bgp/aspath.h"
#include "bgp/table.h"
#include "util/fields.h"
#include "util/flat_map.h"
#include "util/parallel.h"

namespace bgpolicy::asrel {

struct GaoParams {
  /// Max degree ratio between peer candidates (Gao's R; 60 in her paper).
  double peer_degree_ratio = 60.0;
  /// Vote-balance threshold above which mutual transit means sibling.
  double sibling_balance = 0.5;
  /// Run the peer-detection refinement (ablated in benches).
  bool detect_peers = true;
  /// Run the top-clique phase (ablated in benches).
  bool detect_clique = true;
  /// A clique candidate must have at least this fraction of the maximum
  /// observed degree.
  double clique_degree_fraction = 0.2;
  /// A peer candidate's crest nominations must account for at least this
  /// share of the edge's total transit votes.  Peer edges are crossed only
  /// at crests (share near 1); provider-customer edges accumulate transit
  /// votes far beyond their incidental crest nominations.
  double peer_candidate_min_share = 0.33;
  /// Worker-thread count for the per-path passes of `infer` (vote
  /// accumulation and valley-free peer disqualification).  Same knob
  /// semantics as sim::PropagationOptions::threads: 0 = hardware
  /// concurrency, 1 = the exact sequential seed program.  Vote counters are
  /// summed and disqualification sets unioned in stable shard order, so the
  /// inferred relationships are identical at every value.
  std::size_t threads = 1;
};

/// GaoParams' field list (util/fields.h): the Infer store key's text and
/// the rerun_infer request.  `threads` is left out: worker counts never
/// change products, so they are not part of an inference's identity.
template <typename V>
constexpr void fields(V& v, GaoParams& p) {
  v("peer_degree_ratio", p.peer_degree_ratio);
  v("sibling_balance", p.sibling_balance);
  v("detect_peers", p.detect_peers);
  v("detect_clique", p.detect_clique);
  v("clique_degree_fraction", p.clique_degree_fraction);
  v("peer_candidate_min_share", p.peer_candidate_min_share);
}
static_assert(util::lists_every_member<GaoParams>(/*unlisted=*/1));

class GaoInference {
 public:
  /// Feeds one AS path (leftmost = nearest the table owner).  Duplicate
  /// consecutive hops (prepending) are collapsed; paths with loops are
  /// ignored, mirroring the paper's data cleaning.
  void add_path(std::span<const AsNumber> path);
  void add_path(const bgp::AsPath& path) { add_path(path.hops()); }

  /// Feeds every route's path from a BGP table.  `prepend`, when set, is
  /// the vantage AS prepended to each path so looking-glass views match the
  /// shape a collector would record.
  void add_table_paths(const bgp::BgpTable& table,
                       std::optional<AsNumber> prepend = std::nullopt);

  /// Takes a stored state back (io/artifact_codec): `offsets` delimit each
  /// cleaned path in `hops`.  Throws std::invalid_argument unless the
  /// offsets start at 0, rise by at least two hops per path and end at the
  /// hop count (`edges` and `degree` are checked by their adopt()).
  [[nodiscard]] static GaoInference adopt(std::vector<AsNumber> hops,
                                          std::vector<std::uint32_t> offsets,
                                          util::FlatSet64 edges,
                                          util::FlatMap64 degree,
                                          std::vector<AsNumber> ases);

  [[nodiscard]] std::size_t path_count() const { return offsets_.size() - 1; }

  /// Degree (distinct observed neighbors) of an AS.
  [[nodiscard]] std::size_t degree(AsNumber as) const;

  /// Runs the classification over everything fed so far.  When `executor`
  /// is given its shared pool runs the per-path passes and
  /// `params.threads` is ignored; otherwise a one-shot pool sized from the
  /// knob is used.  Identical products either way.
  [[nodiscard]] InferredRelationships infer(
      const GaoParams& params = {},
      const util::Executor* executor = nullptr) const;

  /// The stored form (io/artifact_codec): the hop buffer, the
  /// path_count() + 1 path offsets into it, the edge set, the degree map
  /// and the ASes in first-seen order.
  [[nodiscard]] std::span<const AsNumber> hops() const { return hops_; }
  [[nodiscard]] std::span<const std::uint32_t> offsets() const {
    return offsets_;
  }
  [[nodiscard]] const util::FlatSet64& edges() const { return edges_; }
  [[nodiscard]] const util::FlatMap64& degrees() const { return degree_; }
  [[nodiscard]] std::span<const AsNumber> ases() const { return ases_; }

  /// The i-th cleaned path of the multiset, in ingest order (prepending
  /// collapsed, loop paths dropped; i < path_count()).  Spans stay valid
  /// until the next add.
  [[nodiscard]] std::span<const AsNumber> path(std::size_t i) const {
    return std::span<const AsNumber>(hops_).subspan(
        offsets_[i], offsets_[i + 1] - offsets_[i]);
  }

  /// The inferred default-free core (exposed for diagnostics/tests).
  [[nodiscard]] std::vector<AsNumber> top_clique(
      const GaoParams& params = {}) const;

 private:
  using PairKey = std::pair<AsNumber, AsNumber>;

  struct EdgeVotes {
    std::uint32_t lo_provider = 0;  ///< votes that lo provides transit to hi
    std::uint32_t hi_provider = 0;
    std::uint32_t top_pair = 0;  ///< times the edge was an interior top pair
  };

  /// True when some fed path shows `a` and `b` adjacent (either order).
  [[nodiscard]] bool adjacent(AsNumber a, AsNumber b) const;

  /// Every cleaned path's hops, back to back; path i is
  /// hops_[offsets_[i], offsets_[i + 1]).
  std::vector<AsNumber> hops_;
  std::vector<std::uint32_t> offsets_{0};
  /// Every observed edge once, as its packed (lower << 32) | higher key.
  util::FlatSet64 edges_;
  /// AS -> distinct observed neighbors.
  util::FlatMap64 degree_;
  /// Every AS with an edge, in first-seen order (top_clique's candidates).
  std::vector<AsNumber> ases_;
};

}  // namespace bgpolicy::asrel
