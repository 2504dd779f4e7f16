#include "asrel/gao_inference.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "util/parallel.h"

namespace bgpolicy::asrel {

namespace {

/// The packed (lower AS << 32) | higher AS key of the edge {a, b}.
std::uint64_t edge_key(AsNumber a, AsNumber b) {
  if (b < a) std::swap(a, b);
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

}  // namespace

void GaoInference::add_path(std::span<const AsNumber> path) {
  if (path.size() < 2) return;
  // Clean straight into the hop buffer: collapse prepending, and take the
  // path back out when it loops or shrinks below one edge.
  const std::size_t begin = hops_.size();
  for (const AsNumber as : path) {
    if (hops_.size() > begin && hops_.back() == as) continue;  // prepending
    if (std::find(hops_.begin() + static_cast<std::ptrdiff_t>(begin),
                  hops_.end(), as) != hops_.end()) {
      hops_.resize(begin);  // loop: discard the whole path
      return;
    }
    hops_.push_back(as);
  }
  if (hops_.size() - begin < 2) {
    hops_.resize(begin);
    return;
  }
  if (hops_.size() > std::numeric_limits<std::uint32_t>::max()) {
    hops_.resize(begin);
    throw std::length_error("GaoInference: hops past 32-bit offsets");
  }
  const auto bump_degree = [&](AsNumber as) {
    const auto [count, first_edge] = degree_.try_insert(as.value(), 0);
    ++*count;
    if (first_edge) ases_.push_back(as);
  };
  for (std::size_t i = begin; i + 1 < hops_.size(); ++i) {
    if (edges_.insert(edge_key(hops_[i], hops_[i + 1]))) {
      bump_degree(hops_[i]);
      bump_degree(hops_[i + 1]);
    }
  }
  offsets_.push_back(static_cast<std::uint32_t>(hops_.size()));
}

GaoInference GaoInference::adopt(std::vector<AsNumber> hops,
                                 std::vector<std::uint32_t> offsets,
                                 util::FlatSet64 edges, util::FlatMap64 degree,
                                 std::vector<AsNumber> ases) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != hops.size()) {
    throw std::invalid_argument("GaoInference: offsets do not span the hops");
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1] || offsets[i] - offsets[i - 1] < 2) {
      throw std::invalid_argument("GaoInference: a path below one edge");
    }
  }
  GaoInference gao;
  gao.hops_ = std::move(hops);
  gao.offsets_ = std::move(offsets);
  gao.edges_ = std::move(edges);
  gao.degree_ = std::move(degree);
  gao.ases_ = std::move(ases);
  return gao;
}

void GaoInference::add_table_paths(const bgp::BgpTable& table,
                                   std::optional<AsNumber> prepend) {
  std::vector<AsNumber> prepended;
  for (const bgp::TableEntry entry : table) {
    for (const bgp::RouteView route : entry) {
      if (!prepend) {
        add_path(route.path().hops());
        continue;
      }
      prepended.assign(1, *prepend);
      prepended.insert(prepended.end(), route.path().begin(),
                       route.path().end());
      add_path(prepended);
    }
  }
}

std::size_t GaoInference::degree(AsNumber as) const {
  const std::uint32_t* count = degree_.find(as.value());
  return count == nullptr ? 0 : *count;
}

bool GaoInference::adjacent(AsNumber a, AsNumber b) const {
  return edges_.contains(edge_key(a, b));
}

std::vector<AsNumber> GaoInference::top_clique(const GaoParams& params) const {
  // Core extraction after Subramanian et al.: the default-free core is a
  // dense mutual-peering clique among the top-degree ASes.  A single
  // degree-ordered greedy pass can be contaminated by a high-degree
  // customer of the top AS, so we grow one greedy clique per seed from the
  // candidate pool and keep the largest (true Tier-1s are mutually
  // adjacent, so the genuine clique outgrows contaminated ones).
  std::vector<std::pair<std::size_t, AsNumber>> ordered;  // (degree, AS)
  ordered.reserve(ases_.size());
  std::size_t max_degree = 0;
  for (const AsNumber as : ases_) {
    ordered.emplace_back(degree(as), as);
    max_degree = std::max(max_degree, ordered.back().first);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  const auto min_degree = std::max<std::size_t>(
      2, static_cast<std::size_t>(params.clique_degree_fraction *
                                  static_cast<double>(max_degree)));
  std::vector<AsNumber> candidates;
  for (const auto& [as_degree, as] : ordered) {
    if (as_degree < min_degree) break;
    candidates.push_back(as);
    if (candidates.size() >= 40) break;  // candidate pool cap
  }

  std::vector<AsNumber> best;
  for (std::size_t seed = 0; seed < candidates.size(); ++seed) {
    std::vector<AsNumber> clique{candidates[seed]};
    for (const AsNumber candidate : candidates) {
      if (candidate == candidates[seed]) continue;
      const bool adjacent_to_all = std::all_of(
          clique.begin(), clique.end(),
          [&](AsNumber member) { return adjacent(candidate, member); });
      if (adjacent_to_all) clique.push_back(candidate);
    }
    if (clique.size() > best.size()) best = std::move(clique);
  }
  return best;
}

InferredRelationships GaoInference::infer(const GaoParams& params,
                                          const util::Executor* executor) const {
  using VoteMap = std::unordered_map<PairKey, EdgeVotes, AsPairHash>;

  // Parallel layout: the two per-path passes (vote accumulation here, the
  // valley-free disqualification below) shard contiguous path ranges across
  // the pool and reduce per-range results in range order.  Votes are summed
  // and disqualifications unioned — both order-insensitive — so the final
  // classification is identical at every thread count.  The first range's
  // result is taken as it is, so threads <= 1 (one range, no pool) runs the
  // seed program's single pass.  A caller-supplied executor replaces the
  // one-shot pool (params.threads is then ignored); products are identical
  // either way.
  std::unique_ptr<util::Executor> owned;
  const std::size_t paths = path_count();
  const util::Executor& exec = util::executor_or(
      executor, params.threads, std::max<std::size_t>(1, paths), owned);
  const std::size_t threads =
      std::min(exec.threads(), std::max<std::size_t>(1, paths));
  util::ThreadPool* pool = threads > 1 ? exec.pool() : nullptr;
  const std::vector<util::IndexRange> ranges =
      util::split_ranges(paths, pool != nullptr ? threads * 4 : 1);

  // Phase 1: every path votes on the transit direction of its edges.
  const auto accumulate_votes = [&](std::size_t begin, std::size_t end,
                                    VoteMap& votes) {
    const auto vote = [&](AsNumber provider, AsNumber customer) {
      const PairKey key = InferredRelationships::key(provider, customer);
      EdgeVotes& v = votes[key];
      if (provider == key.first) {
        ++v.lo_provider;
      } else {
        ++v.hi_provider;
      }
    };
    for (std::size_t pi = begin; pi < end; ++pi) {
      const std::span<const AsNumber> path = this->path(pi);
      // The highest-degree AS is taken as the path's top.
      std::size_t top = 0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        if (degree(path[i]) > degree(path[top])) top = i;
      }
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        // Reading the table path left (observer) to right (origin): edges
        // left of the top climb toward it (the right AS is the provider),
        // edges right of it descend (the left AS is the provider).
        if (i + 1 <= top) {
          vote(path[i + 1], path[i]);
        } else {
          vote(path[i], path[i + 1]);
        }
      }
      // Path crests nominate peer candidates: the edge between the top and
      // its larger-degree path neighbor.  Boundary tops are included (a
      // vantage's own peer routes put the crest at position 0); the
      // valley-free disqualification pass below weeds out the false
      // nominations this admits.
      if (params.detect_peers) {
        std::size_t mate;
        if (top == 0) {
          mate = 1;
        } else if (top + 1 == path.size()) {
          mate = top - 1;
        } else {
          mate = degree(path[top - 1]) >= degree(path[top + 1]) ? top - 1
                                                                : top + 1;
        }
        ++votes[InferredRelationships::key(path[top], path[mate])].top_pair;
      }
    }
  };

  VoteMap votes;
  util::shard_and_merge(
      pool, ranges.size(),
      [&](std::size_t r) {
        VoteMap local;
        accumulate_votes(ranges[r].begin, ranges[r].end, local);
        return local;
      },
      [&](std::size_t r, VoteMap& local) {
        if (r == 0) {
          votes = std::move(local);
          return;
        }
        for (const auto& [key, v] : local) {
          EdgeVotes& merged = votes[key];
          merged.lo_provider += v.lo_provider;
          merged.hi_provider += v.hi_provider;
          merged.top_pair += v.top_pair;
        }
      });

  // Phase 2: the default-free core.
  std::unordered_set<AsNumber> clique;
  if (params.detect_clique) {
    for (const AsNumber as : top_clique(params)) clique.insert(as);
  }

  // Phase 3a: preliminary vote-based classification (no peers yet); the
  // clique overrides votes where it applies.
  InferredRelationships prelim;
  const auto classify_votes = [&](const PairKey& /*key*/,
                                  const EdgeVotes& v) -> EdgeType {
    if (v.lo_provider > 0 && v.hi_provider > 0) {
      const double lesser =
          static_cast<double>(std::min(v.lo_provider, v.hi_provider));
      const double greater =
          static_cast<double>(std::max(v.lo_provider, v.hi_provider));
      if (lesser / greater > params.sibling_balance) return EdgeType::kSibling;
      return v.lo_provider > v.hi_provider ? EdgeType::kLoProviderOfHi
                                           : EdgeType::kHiProviderOfLo;
    }
    return v.lo_provider > 0 ? EdgeType::kLoProviderOfHi
                             : EdgeType::kHiProviderOfLo;
  };
  const auto clique_type = [&](const PairKey& key) -> std::optional<EdgeType> {
    const bool lo_core = clique.contains(key.first);
    const bool hi_core = clique.contains(key.second);
    if (lo_core && hi_core) return EdgeType::kPeer;
    // Era assumption (paper Section 2): the default-free core does not peer
    // downward, so a core/non-core adjacency is provider-to-customer.
    if (lo_core) return EdgeType::kLoProviderOfHi;
    if (hi_core) return EdgeType::kHiProviderOfLo;
    return std::nullopt;
  };
  for (const auto& [key, v] : votes) {
    const auto forced = clique_type(key);
    prelim.set(key.first, key.second, forced ? *forced : classify_votes(key, v));
  }

  if (!params.detect_peers) return prelim;

  // Phases 3b/4, iterated: peer disqualification by valley-freeness
  // against the current classification, then re-classification.  If any
  // path shows an AS that is not a customer of u immediately before the
  // edge (u,v), then u was providing transit across it, so (u,v) cannot be
  // a peer link.  Two rounds let corrections (e.g. a clique edge flipping
  // to peer) propagate into the disqualification evidence.
  InferredRelationships current = std::move(prelim);
  for (int round = 0; round < 2; ++round) {
    // Sharded like the voting pass: per-range disqualification sets are
    // unioned in range order (`current` is read-only for the whole pass).
    const auto disqualify = [&](std::size_t begin, std::size_t end,
                                std::unordered_set<std::uint64_t>& out) {
      for (std::size_t pi = begin; pi < end; ++pi) {
        const std::span<const AsNumber> path = this->path(pi);
        for (std::size_t i = 1; i + 1 < path.size(); ++i) {
          const AsNumber u = path[i];
          const AsNumber v = path[i + 1];
          const auto outer_rel = current.relationship(u, path[i - 1]);
          if (outer_rel != RelKind::kCustomer) {
            out.insert(edge_key(u, v));
          }
        }
      }
    };
    std::unordered_set<std::uint64_t> disqualified;
    util::shard_and_merge(
        pool, ranges.size(),
        [&](std::size_t r) {
          std::unordered_set<std::uint64_t> local;
          disqualify(ranges[r].begin, ranges[r].end, local);
          return local;
        },
        [&](std::size_t r, std::unordered_set<std::uint64_t>& local) {
          if (r == 0) {
            disqualified = std::move(local);
          } else {
            disqualified.merge(local);
          }
        });
    // Visible peer links connect transit ASes: a peer route propagates only
    // to customers, so an AS with no customers can never show anyone its
    // peer edges.  A candidate whose endpoint has no inferred customers is
    // a vantage's own customer link seen from the inside, not a peering.
    std::unordered_set<AsNumber> has_customers;
    current.for_each([&](AsNumber lo, AsNumber hi, EdgeType type) {
      if (type == EdgeType::kLoProviderOfHi) has_customers.insert(lo);
      if (type == EdgeType::kHiProviderOfLo) has_customers.insert(hi);
    });

    InferredRelationships next;
    for (const auto& [key, v] : votes) {
      const auto forced = clique_type(key);
      if (forced) {
        next.set(key.first, key.second, *forced);
        continue;
      }
      EdgeType type = classify_votes(key, v);
      const double total_votes =
          static_cast<double>(v.lo_provider + v.hi_provider);
      if (v.top_pair > 0 &&
          !disqualified.contains(edge_key(key.first, key.second)) &&
          static_cast<double>(v.top_pair) >=
              params.peer_candidate_min_share * total_votes &&
          has_customers.contains(key.first) &&
          has_customers.contains(key.second)) {
        const double deg_lo =
            static_cast<double>(std::max<std::size_t>(1, degree(key.first)));
        const double deg_hi =
            static_cast<double>(std::max<std::size_t>(1, degree(key.second)));
        const double ratio =
            std::max(deg_lo, deg_hi) / std::min(deg_lo, deg_hi);
        if (ratio < params.peer_degree_ratio) type = EdgeType::kPeer;
      }
      next.set(key.first, key.second, type);
    }
    current = std::move(next);
  }
  return current;
}

}  // namespace bgpolicy::asrel
