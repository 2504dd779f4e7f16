// Address-space allocation for the synthetic Internet.
//
// Transit ASes receive large aligned blocks; stubs receive either
// provider-assigned space (carved from a provider's block — the
// precondition for the paper's "prefix aggregating" cause, Section 5.1.5
// Case 2) or provider-independent space.  Per-AS prefix counts are
// heavy-tailed, echoing Table 6's spread (22..344 prefixes per customer).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/prefix.h"
#include "topology/topology_gen.h"
#include "util/rng.h"

namespace bgpolicy::topo {

struct OriginatedPrefix {
  bgp::Prefix prefix;
  AsNumber origin;
  /// Set when the prefix was carved out of this provider's block
  /// (provider-assigned space); the provider may aggregate it away.
  std::optional<AsNumber> allocated_from;
};

template <typename V>
constexpr void fields(V& v, OriginatedPrefix& p) {
  v("prefix", p.prefix);
  v("origin", p.origin);
  v("allocated_from", p.allocated_from);
}
static_assert(util::lists_every_member<OriginatedPrefix>());

struct PrefixPlan {
  /// All originated prefixes, in a stable deterministic order.
  std::vector<OriginatedPrefix> prefixes;
  /// Origin AS -> indices into `prefixes`.
  std::unordered_map<AsNumber, std::vector<std::size_t>> by_origin;
  /// Transit AS -> its top-level allocated block.
  std::unordered_map<AsNumber, bgp::Prefix> transit_block;

  /// Appends `prefix`, indexed under its origin.
  void add(const OriginatedPrefix& prefix) {
    by_origin[prefix.origin].push_back(prefixes.size());
    prefixes.push_back(prefix);
  }

  [[nodiscard]] std::size_t count_for(AsNumber origin) const {
    const auto it = by_origin.find(origin);
    return it == by_origin.end() ? 0 : it->second.size();
  }
};

struct PrefixAllocParams {
  std::uint64_t seed = 4002;
  /// Probability that a stub prefix lives in provider-assigned space.
  double provider_space_prob = 0.30;
  /// Heavy-tail exponent for per-stub prefix counts.
  double count_alpha = 1.05;
  /// Cap on prefixes per stub.
  std::uint64_t max_stub_prefixes = 48;
  /// Extra (more-specific) prefixes originated by each transit AS beyond
  /// its block, capped.
  std::uint64_t max_transit_extra = 6;

  friend bool operator==(const PrefixAllocParams&, const PrefixAllocParams&) =
      default;
};

/// Allocates prefixes for every AS in `topo`; deterministic in params.seed.
[[nodiscard]] PrefixPlan allocate_prefixes(const Topology& topo,
                                           const PrefixAllocParams& params);

}  // namespace bgpolicy::topo
