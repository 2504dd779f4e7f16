// SA-prefix verification (paper Section 5.1.3, Table 7).
//
// An SA classification rests on two inferred facts; both are re-checked
// against independent evidence:
//   Step 1 — the provider/next-hop relationship must be confirmed by the
//            community-based method (Appendix; the caller passes the set of
//            community-verified neighbors).
//   Step 2 — the customer relationship provider->origin must be confirmed
//            by an *active* customer path: some observed route of the
//            origin's whose path runs from the provider strictly downhill
//            (provider-to-customer edges only) to the origin, with its
//            first edge community-verified.  Direct customers are settled
//            by Step 1 alone.
#pragma once

#include <unordered_set>

#include "core/export_inference.h"
#include "core/path_index.h"
#include "core/relationship_oracle.h"

namespace bgpolicy::core {

struct SaVerification {
  AsNumber provider;
  std::size_t sa_total = 0;
  std::size_t verified = 0;
  double percent_verified = 0.0;
  std::size_t step1_failures = 0;  ///< next-hop relationship unconfirmed
  std::size_t step2_failures = 0;  ///< no active verified customer path
};

template <typename V>
constexpr void fields(V& v, SaVerification& s) {
  v("provider", s.provider);
  v("sa_total", s.sa_total);
  v("verified", s.verified);
  v("percent_verified", s.percent_verified);
  v("step1_failures", s.step1_failures);
  v("step2_failures", s.step2_failures);
}
static_assert(util::lists_every_member<SaVerification>());

[[nodiscard]] SaVerification verify_sa_prefixes(
    const SaAnalysis& analysis, const PathIndex& paths,
    const std::unordered_set<AsNumber>& community_verified_neighbors,
    const RelationshipOracle& rels);

}  // namespace bgpolicy::core
