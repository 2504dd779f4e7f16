// Causes of SA prefixes (paper Section 5.1.5, Table 9 and the Case 1/2/3
// analysis).
//
//   Case 1 — prefix splitting: an SA prefix strictly covered by another
//            prefix of the *same* origin whose route at the provider is a
//            customer route.
//   Case 2 — prefix aggregating (upper bound, as in the paper): an SA
//            prefix strictly covered by any other announced prefix of a
//            *different* origin.
//   Case 3 — selective announcing: for the remaining SA prefixes, scan all
//            observed paths of the prefix for a direct-provider adjacency
//            on the provider's customer side.  Present => the customer
//            announced to its direct provider (the announcement was capped
//            further up, e.g. by a no-export community); absent => the
//            customer withheld the prefix from that provider entirely.
//            Single-homed origins are walked up to their first multihomed
//            ancestor ("the last common AS" of Fig. 8b).
#pragma once

#include "core/export_inference.h"
#include "core/path_index.h"
#include "core/relationship_oracle.h"

namespace bgpolicy::core {

struct CausesAnalysis {
  AsNumber provider;
  std::size_t sa_total = 0;
  std::size_t splitting = 0;
  std::size_t aggregating = 0;

  // Case 3 among SA prefixes (the paper reports AS1: ~90% identified, of
  // which ~21% announce to the direct provider and ~79% do not).
  std::size_t identified = 0;
  std::size_t announce_to_direct = 0;
  std::size_t withheld_from_direct = 0;
  double percent_identified = 0.0;
  double percent_announce = 0.0;
  double percent_withheld = 0.0;
};

/// CausesAnalysis' field list: its stored form, and the causes reply
/// (serve/query.h).
template <typename V>
constexpr void fields(V& v, CausesAnalysis& c) {
  v("provider", c.provider);
  v("sa_total", c.sa_total);
  v("splitting", c.splitting);
  v("aggregating", c.aggregating);
  v("identified", c.identified);
  v("announce_to_direct", c.announce_to_direct);
  v("withheld_from_direct", c.withheld_from_direct);
  v("percent_identified", c.percent_identified);
  v("percent_announce", c.percent_announce);
  v("percent_withheld", c.percent_withheld);
}
static_assert(util::lists_every_member<CausesAnalysis>());

[[nodiscard]] CausesAnalysis analyze_causes(const SaAnalysis& analysis,
                                            const bgp::BgpTable& provider_table,
                                            const PathIndex& paths,
                                            const topo::AsGraph& annotated,
                                            const RelationshipOracle& rels);

}  // namespace bgpolicy::core
