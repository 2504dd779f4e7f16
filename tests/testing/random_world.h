// Seeded random explicit worlds for attacking the simulator's safety
// arguments: 5–40 ASes on a random provider DAG with random peerings, and
// policies drawn to break the Gao-Rexford preference condition the static
// wedgie oracle (sim/flat_engine.h) checks — the paper's Table 3 atypical
// preferences (neighbor overrides ranking a peer or provider at or above a
// customer, atypical class bases), traffic-engineering prefix pins, and
// Karlin, Forrest & Rexford's nation-state policy filters (per-neighbor
// denies keyed on a prefix or on the route's origin) — plus prepends,
// both community tag actions, relationship tagging, conditional adverts
// and a random failure set.  Some ASes originate two to four prefixes, and
// pins, denies, prepends, tags, any-neighbor filters and conditional
// adverts key on single prefixes, so an origin's prefixes differ from one
// another only where policy names them: what the batch runner's waves
// from an origin's prefix-agnostic base must get right.  One seed is one
// world, so a failing seed is its own repro; `describe()` prints the world
// in `.scn` syntax where the spec language has a line for the edit and as
// a comment where it has none.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bgp/prefix.h"
#include "sim/policy.h"
#include "sim/propagation.h"
#include "topology/as_graph.h"
#include "util/ids.h"
#include "util/rng.h"

namespace bgpolicy::testing {

using util::AsNumber;

struct RandomWorld {
  std::uint64_t seed = 0;
  topo::AsGraph graph;
  sim::PolicySet policies;
  /// One to four prefixes per AS, an AS's prefixes one after another, in
  /// AS insertion order (highest rank first).
  std::vector<sim::Origination> originations;
  /// A random failure set of one to three sessions.
  sim::FailedEdges failed;
  /// Every policy edit and failure as a `.scn` line (or a `#` comment for
  /// edits the spec language cannot say), in the order they were drawn.
  std::vector<std::string> overrides;
  std::vector<std::string> failures;

  /// The world as a `.scn`-shaped text: topology, prefixes, overrides and
  /// the failure set as an event script.
  [[nodiscard]] std::string describe() const {
    std::string out = "scenario oracle-fuzz-" + std::to_string(seed) +
                      "\nbase default\n\ntopology {\n  explicit\n";
    for (const AsNumber as : graph.ases()) {
      out += "  as " + std::to_string(as.value()) + " stub\n";
    }
    for (const topo::EdgeRecord& e : graph.edges()) {
      const bool peer = e.b_is_to_a == topo::RelKind::kPeer;
      out += std::string(peer ? "  peer " : "  provider ") +
             std::to_string(e.a.value()) + " " + std::to_string(e.b.value()) +
             "\n";
    }
    out += "}\n\nprefixes {\n";
    for (const sim::Origination& o : originations) {
      out += "  originate " + std::to_string(o.origin.value()) + " " +
             o.prefix.to_string() + "\n";
    }
    out += "}\n\noverride {\n";
    for (const std::string& line : overrides) out += "  " + line + "\n";
    out += "}\n\nevents {\n";
    for (const std::string& line : failures) out += "  " + line + "\n";
    out += "}\n";
    return out;
  }
};

/// The world of `seed`.
inline RandomWorld random_world(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomWorld w;
  w.seed = seed;
  const auto str = [](AsNumber as) { return std::to_string(as.value()); };

  // Distinct AS numbers in [1, 999]; index order is rank, 0 at the top,
  // so every provider edge points from a lower index to a higher one and
  // the provider graph is a DAG.
  const std::size_t n = 5 + rng.index(36);
  std::vector<AsNumber> as;
  for (const std::size_t i : rng.sample_indices(999, n)) {
    as.emplace_back(static_cast<std::uint32_t>(i + 1));
  }
  for (const AsNumber a : as) w.graph.add_as(a);
  const auto adjacent = [&](AsNumber a, AsNumber b) {
    return w.graph.relationship(a, b).has_value();
  };
  for (std::size_t i = 1; i < n; ++i) {
    if (i < 3 && rng.chance(0.5)) continue;  // another provider-free top
    const std::size_t want = 1 + rng.index(3);
    for (std::size_t k = 0; k < want; ++k) {
      const AsNumber provider = as[rng.index(i)];
      if (!adjacent(provider, as[i])) {
        w.graph.add_provider_customer(provider, as[i]);
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const AsNumber a = rng.pick(as);
    const AsNumber b = rng.pick(as);
    if (a != b && !adjacent(a, b) && rng.chance(0.6)) {
      w.graph.add_peer_peer(a, b);
    }
  }

  // AS i originates 10.i.0.0/16 and, for some ASes, one to three /24s
  // inside it; `first_prefix[i]` indexes its first origination.
  std::vector<std::size_t> first_prefix;
  for (std::size_t i = 0; i < n; ++i) {
    w.policies.by_as.emplace(as[i], sim::AsPolicy{});
    first_prefix.push_back(w.originations.size());
    const std::size_t extra = rng.chance(0.4) ? 1 + rng.index(3) : 0;
    for (std::size_t k = 0; k <= extra; ++k) {
      w.originations.push_back(
          {bgp::Prefix(
               static_cast<std::uint32_t>((10u << 24) | (i << 16) | (k << 8)),
               k == 0 ? 16 : 24),
           as[i]});
    }
  }

  const auto random_pref = [&] {
    static constexpr std::uint32_t kPrefs[] = {60,  80,  90,  100,
                                               110, 120, 130, 140};
    return kPrefs[rng.index(std::size(kPrefs))];
  };
  const auto random_prefix = [&] { return rng.pick(w.originations).prefix; };

  for (const AsNumber x : as) {
    sim::AsPolicy& policy = w.policies.at_mut(x);
    const auto neighbors = w.graph.neighbors(x);
    if (neighbors.empty()) continue;
    const auto random_neighbor = [&] {
      return neighbors[rng.index(neighbors.size())].as;
    };

    // Table 3's atypical import: one neighbor ranked off its class band.
    if (rng.chance(0.3)) {
      const AsNumber nb = random_neighbor();
      const std::uint32_t pref = random_pref();
      policy.import.neighbor_override[nb] = pref;
      w.overrides.push_back("prefer " + str(x) + " " + str(nb) + " " +
                            std::to_string(pref));
    }
    // An atypical class base: peers at or above customers.
    if (rng.chance(0.05)) {
      policy.import.peer_pref = 120 + 10 * rng.index(3);
      w.overrides.push_back("# peer_pref " + str(x) + " " +
                            std::to_string(policy.import.peer_pref));
    }
    // A traffic-engineering pin.
    if (rng.chance(0.15)) {
      const bgp::Prefix prefix = random_prefix();
      const std::uint32_t pref = random_pref();
      policy.import.prefix_override[prefix] = pref;
      w.overrides.push_back("prefer_prefix " + str(x) + " " +
                            prefix.to_string() + " " + std::to_string(pref));
    }
    // Export rules toward one neighbor.
    if (rng.chance(0.35)) {
      const AsNumber nb = random_neighbor();
      sim::ExportRule rule;
      const bgp::Prefix prefix = random_prefix();
      switch (rng.index(5)) {
        case 0:  // selective announcement of one prefix
          rule.prefix = prefix;
          w.overrides.push_back("deny " + str(x) + " " + str(nb) + " " +
                                prefix.to_string());
          break;
        case 1: {  // a nation-state filter: no route of one origin
          rule.origin = rng.pick(as);
          w.overrides.push_back("# deny " + str(x) + " " + str(nb) +
                                " origin " + str(*rule.origin));
          break;
        }
        case 2:
          rule.action = sim::ExportAction::kPrepend;
          rule.prepend_times = static_cast<std::uint8_t>(1 + rng.index(3));
          if (rng.chance(0.5)) {
            rule.prefix = prefix;
            w.overrides.push_back("# prepend " + str(x) + " " + str(nb) +
                                  " " + std::to_string(rule.prepend_times) +
                                  " prefix " + prefix.to_string());
          } else {
            w.overrides.push_back("prepend " + str(x) + " " + str(nb) + " " +
                                  std::to_string(rule.prepend_times));
          }
          break;
        case 3:
          rule.prefix = prefix;
          rule.action = sim::ExportAction::kTagNoExportUpstream;
          w.overrides.push_back("no_export_upstream " + str(x) + " " +
                                str(nb) + " " + prefix.to_string());
          break;
        default: {
          // "Do not export to <target>", a slot the receiver publishes.
          const auto far = w.graph.neighbors(nb);
          rule.action = sim::ExportAction::kTagNoExportTo;
          rule.target = far[rng.index(far.size())].as;
          (void)w.policies.at_mut(nb).no_export_slot_for(rule.target);
          if (rng.chance(0.5)) rule.prefix = prefix;
          w.overrides.push_back("# no_export_to " + str(x) + " " + str(nb) +
                                " target " + str(rule.target) +
                                (rule.prefix ? " prefix " + prefix.to_string()
                                             : std::string()));
          break;
        }
      }
      w.policies.at_mut(x).export_.add_rule_for(nb, rule);
    }
    // A filter toward every neighbor.
    if (rng.chance(0.05)) {
      sim::ExportRule rule;
      rule.prefix = random_prefix();
      w.policies.at_mut(x).export_.add_rule_any(rule);
      w.overrides.push_back("# deny_any " + str(x) + " " +
                            rule.prefix->to_string());
    }
    if (rng.chance(0.2)) {
      w.policies.at_mut(x).community.enabled = true;
      w.overrides.push_back("tagging " + str(x) + " on");
    }
  }

  // Backup adverts: a multihomed AS announces one of its own prefixes to
  // a second provider only while the first is down.
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<AsNumber> providers = w.graph.providers(as[i]);
    if (providers.size() < 2 || !rng.chance(0.3)) continue;
    const AsNumber watch = providers[0];
    const AsNumber backup = providers[1];
    const std::size_t own =
        (i + 1 < n ? first_prefix[i + 1] : w.originations.size()) -
        first_prefix[i];
    const bgp::Prefix prefix =
        w.originations[first_prefix[i] + rng.index(own)].prefix;
    w.policies.at_mut(as[i]).conditional.push_back({prefix, backup, watch});
    w.overrides.push_back("conditional " + str(as[i]) + " " +
                          prefix.to_string() + " " + str(backup) + " watch " +
                          str(watch));
  }

  const auto edges = w.graph.edges();
  if (!edges.empty()) {
    const std::size_t fails = 1 + rng.index(3);
    for (std::size_t k = 0; k < fails; ++k) {
      const topo::EdgeRecord& e = edges[rng.index(edges.size())];
      if (w.failed.is_failed(e.a, e.b)) continue;
      w.failed.fail(e.a, e.b);
      w.failures.push_back("fail " + str(e.a) + " " + str(e.b));
    }
  }
  return w;
}

}  // namespace bgpolicy::testing
