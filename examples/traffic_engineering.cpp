// Traffic engineering with selective announcement — the scenario the
// paper's introduction motivates.
//
// A multihomed stub (the paper's Fig. 3 "customer A") buys transit from two
// providers and wants inbound traffic for one prefix pinned to one link.
// This example builds the topology by hand, runs the propagation engine
// under three export policies, and shows:
//   * where every remote AS routes the prefix (which provider carries it),
//   * the "curving route" at the far provider's provider (a peer route to
//     its own indirect customer — an SA prefix),
//   * the community-capped variant (announce to B, but no further).
//
//   $ traffic_engineering
#include <iostream>

#include "bgp/decision.h"
#include "core/export_inference.h"
#include "sim/propagation.h"
#include "util/text_table.h"

using namespace bgpolicy;
using util::AsNumber;

namespace {

struct World {
  topo::AsGraph graph;
  // The paper's Fig. 3 cast.
  AsNumber a{64512};  // the multihomed customer
  AsNumber b{64513};  // provider B (primary link)
  AsNumber c{64514};  // provider C (backup link)
  AsNumber d{64515};  // B's Tier-1 provider
  AsNumber e{64516};  // C's Tier-1 provider, peer of D
  AsNumber remote{64517};  // a remote customer of D (traffic source)
};

World make_world() {
  World w;
  for (const auto as : {w.a, w.b, w.c, w.d, w.e, w.remote}) w.graph.add_as(as);
  w.graph.add_provider_customer(w.b, w.a);
  w.graph.add_provider_customer(w.c, w.a);
  w.graph.add_provider_customer(w.d, w.b);
  w.graph.add_provider_customer(w.e, w.c);
  w.graph.add_provider_customer(w.d, w.remote);
  w.graph.add_peer_peer(w.d, w.e);
  return w;
}

const char* name_of(const World& w, AsNumber as) {
  if (as == w.a) return "customer-A";
  if (as == w.b) return "provider-B";
  if (as == w.c) return "provider-C";
  if (as == w.d) return "tier1-D";
  if (as == w.e) return "tier1-E";
  if (as == w.remote) return "remote";
  return "?";
}

void show_routing(const World& w, const sim::PolicySet& policies,
                  const bgp::Prefix& prefix, const std::string& title) {
  const auto state =
      sim::compute_prefix(w.graph, policies, {prefix, w.a}, nullptr);

  util::TextTable table({"AS", "route to 203.0.113.0/24 (AS path)",
                         "learned from", "relationship"});
  for (const auto as : w.graph.ases()) {
    const bgp::Route* best = state.best_at(as);
    if (best == nullptr) {
      table.add_row({name_of(w, as), "(unreachable)", "-", "-"});
      continue;
    }
    if (best->self_originated()) continue;
    const auto rel = w.graph.relationship(as, best->learned_from);
    table.add_row({name_of(w, as), best->path.to_string(),
                   name_of(w, best->learned_from),
                   rel ? topo::to_string(*rel) : "-"});
  }
  std::cout << table.render(title) << "\n";

  // Is the prefix an SA prefix from tier1-D's point of view?
  bgp::BgpTable d_table{w.d};
  if (const bgp::Route* at_d = state.best_at(w.d)) d_table.add(*at_d);
  const auto analysis = core::infer_sa_prefixes(
      d_table, w.d, w.graph, core::oracle_from(w.graph));
  std::cout << "  tier1-D: " << analysis.sa_count
            << " SA prefix(es) among its customers' prefixes"
            << (analysis.sa_count > 0
                    ? "  <-- D reaches its own indirect customer via a peer"
                    : "")
            << "\n\n";
}

}  // namespace

int main() {
  const World w = make_world();
  const bgp::Prefix prefix = bgp::Prefix::parse("203.0.113.0/24");

  std::cout << "Topology: customer-A multihomed to provider-B and "
               "provider-C;\n  B sits under tier1-D, C under tier1-E; "
               "D and E peer; `remote` is D's customer.\n\n";

  // 1. Announce everywhere: inbound load is shared; D uses its customer path.
  {
    sim::PolicySet policies;
    for (const auto as : w.graph.ases()) policies.by_as.emplace(as, sim::AsPolicy{});
    show_routing(w, policies, prefix,
                 "1) announce to both providers (no traffic engineering)");
  }

  // 2. Withhold from B: all inbound traffic enters via C.  D now reaches
  //    its indirect customer A via its PEER E — the paper's curving route.
  {
    sim::PolicySet policies;
    for (const auto as : w.graph.ases()) policies.by_as.emplace(as, sim::AsPolicy{});
    sim::ExportRule rule;
    rule.prefix = prefix;
    rule.action = sim::ExportAction::kDeny;
    policies.at_mut(w.a).export_.add_rule_for(w.b, rule);
    show_routing(w, policies, prefix,
                 "2) withhold from provider-B (pin inbound to the C link)");
  }

  // 3. Community-capped: announce to B tagged "do not export upstream".
  //    B itself keeps a customer route (local traffic stays direct), but D
  //    still sees the prefix only via E.
  {
    sim::PolicySet policies;
    for (const auto as : w.graph.ases()) policies.by_as.emplace(as, sim::AsPolicy{});
    sim::ExportRule rule;
    rule.prefix = prefix;
    rule.action = sim::ExportAction::kTagNoExportUpstream;
    policies.at_mut(w.a).export_.add_rule_for(w.b, rule);
    show_routing(w, policies, prefix,
                 "3) announce to B with a no-export-upstream community");
  }

  std::cout << "Takeaway (paper Section 5.1): selective announcement gives\n"
               "the customer inbound control, but creates SA prefixes — the\n"
               "provider loses its customer path and 'curves' through peers,\n"
               "and the Internet has fewer usable paths than the AS graph\n"
               "suggests.\n";
  return 0;
}
