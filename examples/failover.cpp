// Failover with BGP conditional advertisement — the mechanism the paper
// cites (Section 5.1.5, reference [18]) that lets a multihomed customer
// keep a backup announcement path without carrying inbound traffic on it.
//
// Timeline demonstrated:
//   t0  healthy: the prefix is announced only to provider-C; tier1-D sees
//       an SA prefix (peer route to its own indirect customer);
//   t1  the A-C link fails: the conditional advertisement toward B
//       activates, reachability is restored through B;
//   t2  the link heals: the network returns to the steady state.
//
//   $ failover
#include <iostream>

#include "sim/propagation.h"
#include "util/text_table.h"

using namespace bgpolicy;
using util::AsNumber;

namespace {

struct World {
  topo::AsGraph graph;
  AsNumber a{64512}, b{64513}, c{64514}, d{64515}, e{64516};
};

World make_world() {
  World w;
  for (const auto as : {w.a, w.b, w.c, w.d, w.e}) w.graph.add_as(as);
  w.graph.add_provider_customer(w.b, w.a);
  w.graph.add_provider_customer(w.c, w.a);
  w.graph.add_provider_customer(w.d, w.b);
  w.graph.add_provider_customer(w.e, w.c);
  w.graph.add_peer_peer(w.d, w.e);
  return w;
}

const char* name_of(const World& w, AsNumber as) {
  if (as == w.a) return "customer-A";
  if (as == w.b) return "provider-B";
  if (as == w.c) return "provider-C";
  if (as == w.d) return "tier1-D";
  if (as == w.e) return "tier1-E";
  return "?";
}

void snapshot(const World& w, const sim::PolicySet& policies,
              const sim::FailedEdges& failures, const bgp::Prefix& prefix,
              const std::string& title) {
  const auto state =
      sim::compute_prefix(w.graph, policies, {prefix, w.a}, &failures);
  util::TextTable table({"AS", "best path", "via"});
  for (const auto as : w.graph.ases()) {
    if (as == w.a) continue;
    const bgp::Route* best = state.best_at(as);
    table.add_row({name_of(w, as),
                   best ? best->path.to_string() : "(unreachable)",
                   best ? name_of(w, best->learned_from) : "-"});
  }
  std::cout << table.render(title) << "\n";
}

}  // namespace

int main() {
  const World w = make_world();
  const bgp::Prefix prefix = bgp::Prefix::parse("203.0.113.0/24");

  sim::PolicySet policies;
  for (const auto as : w.graph.ases()) policies.by_as.emplace(as, sim::AsPolicy{});
  // One conditional advertisement expresses the whole policy: the prefix
  // goes to B only while the A-C session is down; otherwise C is the sole
  // announcement path.
  policies.at_mut(w.a).conditional.push_back({prefix, w.b, w.c});

  sim::FailedEdges failures;

  std::cout << "customer-A announces 203.0.113.0/24 via provider-C only,\n"
               "with a conditional advertisement to provider-B watching the "
               "A-C session.\n\n";

  snapshot(w, policies, failures, prefix,
           "t0: healthy (conditional suppressed)");
  std::cout << "  -> tier1-D holds a peer route to its indirect customer: "
               "an SA prefix.\n\n";

  failures.fail(w.a, w.c);
  snapshot(w, policies, failures, prefix,
           "t1: A-C session down (conditional active)");
  std::cout << "  -> the backup announcement restores reachability via B.\n\n";

  failures.restore(w.a, w.c);
  snapshot(w, policies, failures, prefix, "t2: A-C session restored");
  std::cout << "  -> back to the steady state; the backup goes quiet again.\n";
  return 0;
}
