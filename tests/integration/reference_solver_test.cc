// Differential test for the propagation engine.
//
// Under uniform typical policies (customer > peer > provider, no export
// rules), the stable routing solution is unique and computable by the
// classic three-stage construction:
//   stage 1  customer routes: shortest provider-to-customer chains up from
//            the origin;
//   stage 2  peer routes: one peer hop onto a customer route;
//   stage 3  provider routes: whatever a provider's own best is, one hop
//            down, relaxed to a fixpoint.
// Ties break exactly as the engine does: shorter AS path first, then the
// lowest announcing-neighbor AS number (router-id step).
//
// The event-driven engine must agree with this independent solver on
// best-route class, path length, and chosen neighbor for every AS, across
// random hierarchical topologies.
#include <gtest/gtest.h>

#include <limits>

#include "sim/propagation.h"
#include "testing/fixtures.h"
#include "topology/topology_gen.h"

namespace bgpolicy {
namespace {

using topo::RelKind;
using util::AsNumber;

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

struct Choice {
  std::size_t length = kInf;
  AsNumber via;  // announcing neighbor
  RelKind cls = RelKind::kCustomer;
  bool self = false;
};

// Computes the unique stable solution for `origin` on `graph`.
std::unordered_map<AsNumber, Choice> reference_solution(
    const topo::AsGraph& graph, AsNumber origin) {
  // Stage 1: customer-route distance (shortest downhill chain, ties by
  // lowest neighbor AS number).
  std::unordered_map<AsNumber, std::size_t> dist_cust;
  std::unordered_map<AsNumber, AsNumber> via_cust;
  dist_cust[origin] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto as : graph.ases()) {
      for (const auto n : graph.customers(as)) {
        const auto it = dist_cust.find(n);
        if (it == dist_cust.end()) continue;
        const std::size_t candidate = it->second + 1;
        const auto mine = dist_cust.find(as);
        if (mine == dist_cust.end() || candidate < mine->second ||
            (candidate == mine->second && n < via_cust.at(as))) {
          dist_cust[as] = candidate;
          via_cust[as] = n;
          changed = true;
        }
      }
    }
  }

  std::unordered_map<AsNumber, Choice> best;
  best[origin] = {0, origin, RelKind::kCustomer, true};

  // Customer class wins wherever it exists.
  for (const auto& [as, dist] : dist_cust) {
    if (as == origin) continue;
    best[as] = {dist, via_cust.at(as), RelKind::kCustomer, false};
  }

  // Stage 2: peer routes for ASes without a customer route.
  for (const auto as : graph.ases()) {
    if (best.contains(as)) continue;
    Choice choice;
    for (const auto p : graph.peers(as)) {
      const auto it = dist_cust.find(p);
      if (it == dist_cust.end()) continue;
      const std::size_t length = it->second + 1;
      if (length < choice.length ||
          (length == choice.length && p < choice.via)) {
        choice = {length, p, RelKind::kPeer, false};
      }
    }
    if (choice.length != kInf) best[as] = choice;
  }

  // Stage 3: provider routes, relaxed to a fixpoint (a provider's best may
  // itself be a provider route).
  changed = true;
  while (changed) {
    changed = false;
    for (const auto as : graph.ases()) {
      if (best.contains(as) && best.at(as).cls != RelKind::kProvider) continue;
      Choice choice =
          best.contains(as) ? best.at(as) : Choice{};
      for (const auto pr : graph.providers(as)) {
        const auto it = best.find(pr);
        if (it == best.end()) continue;
        const std::size_t length = it->second.length + 1;
        if (length < choice.length ||
            (length == choice.length && pr < choice.via)) {
          choice = {length, pr, RelKind::kProvider, false};
          changed = true;
        }
      }
      if (choice.length != kInf) best[as] = choice;
    }
  }
  return best;
}

class ReferenceSolver : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReferenceSolver, EngineMatchesThreeStageSolution) {
  topo::GeneratorParams params;
  params.seed = GetParam();
  params.tier1_count = 3;
  params.tier2_count = 5;
  params.tier3_count = 10;
  params.stub_count = 25;
  const auto topo = topo::generate_topology(params);
  const auto policies = testing::typical_policies(topo.graph);

  // Check every 4th AS as origin (keeps runtime modest, sweeps all roles).
  std::size_t origin_index = 0;
  for (const auto origin : topo.graph.ases()) {
    if (origin_index++ % 4 != 0) continue;
    const bgp::Prefix prefix(0x0A000000, 24);
    const auto state =
        sim::compute_prefix(topo.graph, policies, {prefix, origin}, nullptr);
    ASSERT_TRUE(state.converged);
    const auto reference = reference_solution(topo.graph, origin);

    for (const auto as : topo.graph.ases()) {
      const bgp::Route* engine_best = state.best_at(as);
      const auto it = reference.find(as);
      if (it == reference.end()) {
        EXPECT_EQ(engine_best, nullptr)
            << util::to_string(as) << " should be unreachable from "
            << util::to_string(origin);
        continue;
      }
      ASSERT_NE(engine_best, nullptr)
          << util::to_string(as) << " lost reachability to "
          << util::to_string(origin);
      if (it->second.self) {
        EXPECT_TRUE(engine_best->self_originated());
        continue;
      }
      EXPECT_EQ(engine_best->path.length(), it->second.length)
          << util::to_string(as) << " -> " << util::to_string(origin)
          << " path " << engine_best->path.to_string();
      EXPECT_EQ(engine_best->learned_from, it->second.via)
          << util::to_string(as) << " -> " << util::to_string(origin);
      const auto rel = topo.graph.relationship(as, engine_best->learned_from);
      ASSERT_TRUE(rel.has_value());
      EXPECT_EQ(*rel, it->second.cls)
          << util::to_string(as) << " -> " << util::to_string(origin);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceSolver,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace bgpolicy
