// Export-policy inference toward providers: the SA-prefix algorithm of
// Fig. 4 (paper Section 5.1).
//
// From the viewpoint of a provider u, a prefix p originated by a direct or
// indirect customer o is a *selectively announced (SA) prefix* when u's
// best route to p is not a customer route — u reaches its own customer
// through a peer or provider, because someone between o and u withheld the
// announcement on the customer side.
//
//   Phase 1: start from u.
//   Phase 2: decide whether o is in u's customer cone (DFS down
//            provider-to-customer edges only).
//   Phase 3: classify u's best route to each of o's prefixes by the
//            relationship of its next-hop AS; non-customer next hop => SA.
//
// The paper's observation that best routes suffice (a customer route, when
// present, wins by typical local preference) is what lets the algorithm
// run on best-only tables; `sa_from_full_rib` cross-checks that claim on a
// full Adj-RIB-In (ablation).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/table.h"
#include "core/relationship_oracle.h"
#include "topology/as_graph.h"
#include "util/fields.h"

namespace bgpolicy::core {

/// One selectively announced prefix at a provider.
struct SaPrefix {
  bgp::Prefix prefix;
  AsNumber origin;
  AsNumber next_hop;
  RelKind next_hop_rel = RelKind::kPeer;  ///< peer or provider
};

template <typename V>
constexpr void fields(V& v, SaPrefix& p) {
  v("prefix", p.prefix);
  v("origin", p.origin);
  v("next_hop", p.next_hop);
  v("next_hop_rel", p.next_hop_rel);
}
static_assert(util::lists_every_member<SaPrefix>());

struct SaAnalysis {
  AsNumber provider;
  /// Prefixes in the table originated by (direct or indirect) customers.
  std::size_t customer_prefixes = 0;
  std::size_t sa_count = 0;
  double percent_sa = 0.0;
  std::vector<SaPrefix> sa_prefixes;
};

/// SaAnalysis' field list: its stored form, and the sa_prevalence reply
/// (serve/query.h).
template <typename V>
constexpr void fields(V& v, SaAnalysis& a) {
  v("provider", a.provider);
  v("customer_prefixes", a.customer_prefixes);
  v("sa_count", a.sa_count);
  v("percent_sa", a.percent_sa);
  v("sa_prefixes", a.sa_prefixes);
}
static_assert(util::lists_every_member<SaAnalysis>());

/// Runs the Fig. 4 algorithm over the provider's table (best routes are
/// used; extra routes per prefix are reduced with the decision process).
/// `annotated` must be an AS graph annotated with (typically inferred)
/// relationships — it supplies the Phase-2 customer cone, walked once per
/// call (topology/customer_cone.h); `rels` supplies the Phase-3 next-hop
/// classification.
[[nodiscard]] SaAnalysis infer_sa_prefixes(const bgp::BgpTable& table,
                                           AsNumber provider,
                                           const topo::AsGraph& annotated,
                                           const RelationshipOracle& rels);

/// Per-customer restriction of the SA analysis (paper Table 6): for each
/// origin AS in `customers`, how many of its prefixes are SA with respect
/// to *every* provider in `providers` simultaneously.
struct CustomerSa {
  AsNumber customer;
  std::size_t prefix_count = 0;
  std::size_t sa_count = 0;  ///< SA w.r.t. all listed providers
  double percent_sa = 0.0;
};

[[nodiscard]] std::vector<CustomerSa> sa_per_customer(
    const std::vector<const bgp::BgpTable*>& provider_tables,
    const std::vector<AsNumber>& providers,
    const std::vector<AsNumber>& customers, const topo::AsGraph& annotated,
    const RelationshipOracle& rels);

/// Ablation helper: SA classification using every route in a full
/// Adj-RIB-In (a prefix is non-SA if *any* customer route exists).  With
/// typical preferences this matches infer_sa_prefixes on the same AS.
[[nodiscard]] SaAnalysis sa_from_full_rib(const bgp::BgpTable& full_rib,
                                          AsNumber provider,
                                          const topo::AsGraph& annotated,
                                          const RelationshipOracle& rels);

}  // namespace bgpolicy::core
