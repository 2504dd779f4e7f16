#include "core/causes.h"

#include <unordered_set>

#include "bgp/prefix_trie.h"
#include "topology/customer_cone.h"
#include "util/stats.h"

namespace bgpolicy::core {

namespace {

struct TrieEntry {
  AsNumber origin;
  bool customer_route = false;
};

// The "customer" whose export behavior Case 3 interrogates: the origin if
// multihomed, else its first multihomed ancestor (Fig. 8b's last common
// AS).  Returns nullopt when the walk leaves the annotated graph or loops.
std::optional<AsNumber> responsible_customer(AsNumber origin,
                                             const topo::AsGraph& annotated) {
  AsNumber current = origin;
  std::unordered_set<AsNumber> seen;
  while (seen.insert(current).second) {
    if (!annotated.contains(current)) return std::nullopt;
    const auto providers = annotated.providers(current);
    if (providers.empty()) return std::nullopt;
    if (providers.size() >= 2) return current;
    current = providers.front();
  }
  return std::nullopt;
}

}  // namespace

CausesAnalysis analyze_causes(const SaAnalysis& analysis,
                              const bgp::BgpTable& provider_table,
                              const PathIndex& paths,
                              const topo::AsGraph& annotated,
                              const RelationshipOracle& rels) {
  CausesAnalysis out;
  out.provider = analysis.provider;
  out.sa_total = analysis.sa_prefixes.size();

  // Case 3 asks whether a direct provider sits in this provider's cone,
  // once per SA prefix: walk the cone once.
  const topo::CustomerCone cone(annotated, analysis.provider);

  // Index every announced prefix at the provider with origin + route class.
  bgp::PrefixTrie<TrieEntry> trie;
  for (const bgp::TableEntry entry : provider_table) {
    const bgp::RouteView best = entry.best();
    TrieEntry announced;
    announced.origin = best.origin_as();
    announced.customer_route =
        rels(analysis.provider, best.learned_from()) == RelKind::kCustomer;
    trie.insert(entry.prefix(), announced);
  }

  for (const SaPrefix& sa : analysis.sa_prefixes) {
    // Cases 1 and 2: covering-prefix scan.
    bool split = false;
    bool aggregatable = false;
    trie.for_each_covering(
        sa.prefix, [&](const bgp::Prefix& covering, const TrieEntry& entry) {
          if (covering == sa.prefix) return;
          if (entry.origin == sa.origin && entry.customer_route) split = true;
          if (entry.origin != sa.origin) aggregatable = true;
        });
    if (split) ++out.splitting;
    if (aggregatable) ++out.aggregating;

    // Case 3: how did the responsible customer treat its direct providers?
    const auto customer = responsible_customer(sa.origin, annotated);
    if (!customer) continue;
    const auto direct_providers = annotated.providers(*customer);
    // Only providers on this provider's customer side are relevant — those
    // are the ones whose announcement (or lack of it) explains the missing
    // customer route.
    std::vector<AsNumber> relevant;
    for (const AsNumber p : direct_providers) {
      if (p == analysis.provider || cone.contains(p)) {
        relevant.push_back(p);
      }
    }
    if (relevant.empty()) continue;
    const auto prefix_paths = paths.paths_for_prefix(sa.prefix);
    if (prefix_paths.empty()) continue;
    ++out.identified;
    bool announced = false;
    for (const auto path : prefix_paths) {
      for (std::size_t i = 0; i + 1 < path.size() && !announced; ++i) {
        if (path[i + 1] != *customer) continue;
        for (const AsNumber p : relevant) {
          if (path[i] == p) {
            announced = true;
            break;
          }
        }
      }
      if (announced) break;
    }
    if (announced) {
      ++out.announce_to_direct;
    } else {
      ++out.withheld_from_direct;
    }
  }

  out.percent_identified = util::percent(out.identified, out.sa_total);
  out.percent_announce = util::percent(out.announce_to_direct, out.identified);
  out.percent_withheld =
      util::percent(out.withheld_from_direct, out.identified);
  return out;
}

}  // namespace bgpolicy::core
