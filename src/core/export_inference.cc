#include "core/export_inference.h"

#include <unordered_set>

#include "topology/customer_cone.h"
#include "util/stats.h"

namespace bgpolicy::core {

namespace {

// Shared Phase 2/3 loop: `classify(route)` returns true when the route is a
// customer route (non-SA evidence).
SaAnalysis analyze(const bgp::BgpTable& table, AsNumber provider,
                   const topo::AsGraph& annotated,
                   const RelationshipOracle& rels, bool use_full_rib) {
  SaAnalysis out;
  out.provider = provider;

  // Phase 2 asks one provider about many origins: walk its cone once.
  const topo::CustomerCone cone(annotated, provider);

  for (const bgp::TableEntry entry : table) {
    const bgp::RouteView best = entry.best();
    const AsNumber origin = best.origin_as();
    if (!cone.contains(origin)) continue;  // Phase 2: not a customer's prefix
    ++out.customer_prefixes;

    // Phase 3: next-hop relationship of the best route (or, for the
    // full-RIB ablation, of every route).
    bool has_customer_route = false;
    if (use_full_rib) {
      for (const bgp::RouteView route : entry) {
        const auto rel = rels(provider, route.learned_from());
        if (rel == RelKind::kCustomer) {
          has_customer_route = true;
          break;
        }
      }
    } else {
      const auto rel = rels(provider, best.learned_from());
      has_customer_route = (rel == RelKind::kCustomer);
    }
    if (!has_customer_route) {
      SaPrefix sa;
      sa.prefix = entry.prefix();
      sa.origin = origin;
      sa.next_hop = best.learned_from();
      sa.next_hop_rel =
          rels(provider, best.learned_from()).value_or(RelKind::kPeer);
      out.sa_prefixes.push_back(sa);
      ++out.sa_count;
    }
  }

  out.percent_sa = util::percent(out.sa_count, out.customer_prefixes);
  return out;
}

}  // namespace

SaAnalysis infer_sa_prefixes(const bgp::BgpTable& table, AsNumber provider,
                             const topo::AsGraph& annotated,
                             const RelationshipOracle& rels) {
  return analyze(table, provider, annotated, rels, /*use_full_rib=*/false);
}

SaAnalysis sa_from_full_rib(const bgp::BgpTable& full_rib, AsNumber provider,
                            const topo::AsGraph& annotated,
                            const RelationshipOracle& rels) {
  return analyze(full_rib, provider, annotated, rels, /*use_full_rib=*/true);
}

std::vector<CustomerSa> sa_per_customer(
    const std::vector<const bgp::BgpTable*>& provider_tables,
    const std::vector<AsNumber>& providers,
    const std::vector<AsNumber>& customers, const topo::AsGraph& annotated,
    const RelationshipOracle& rels) {
  // SA sets per provider, then intersect per customer prefix.
  std::vector<std::unordered_set<bgp::Prefix>> sa_sets;
  std::vector<std::unordered_set<bgp::Prefix>> seen_sets;
  sa_sets.reserve(providers.size());
  for (std::size_t i = 0; i < providers.size(); ++i) {
    const SaAnalysis analysis =
        infer_sa_prefixes(*provider_tables[i], providers[i], annotated, rels);
    std::unordered_set<bgp::Prefix> sa;
    for (const auto& p : analysis.sa_prefixes) sa.insert(p.prefix);
    sa_sets.push_back(std::move(sa));
    const std::span<const bgp::Prefix> prefixes =
        provider_tables[i]->prefixes();
    seen_sets.emplace_back(prefixes.begin(), prefixes.end());
  }

  std::vector<CustomerSa> out;
  for (const AsNumber customer : customers) {
    CustomerSa row;
    row.customer = customer;
    // Every prefix this customer originates, as seen by any provider table.
    std::unordered_set<bgp::Prefix> prefixes;
    for (std::size_t i = 0; i < providers.size(); ++i) {
      for (const bgp::TableEntry entry : *provider_tables[i]) {
        if (entry.best().origin_as() == customer) {
          prefixes.insert(entry.prefix());
        }
      }
    }
    row.prefix_count = prefixes.size();
    for (const auto& prefix : prefixes) {
      bool sa_everywhere = true;
      for (std::size_t i = 0; i < providers.size(); ++i) {
        // A prefix is SA w.r.t. provider i when it is in the SA set, or
        // absent from the table entirely (never reached the provider at
        // all); a visible customer route clears it.
        if (seen_sets[i].contains(prefix) && !sa_sets[i].contains(prefix)) {
          sa_everywhere = false;
          break;
        }
      }
      if (sa_everywhere) ++row.sa_count;
    }
    row.percent_sa = util::percent(row.sa_count, row.prefix_count);
    out.push_back(row);
  }
  return out;
}

}  // namespace bgpolicy::core
