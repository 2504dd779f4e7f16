// Dirty-frontier unit contract of sim::DeltaEngine (ISSUE 9): an empty
// perturbation is a strict no-op, every AS whose best route changes is
// contained in the wave's `touched` set, and warm re-seeded fixpoints land
// on best-route maps value-identical to exact-order cold recomputation for
// every perturbation kind — edge fail/restore, selective-announcement export
// toggles, and conditional-advertisement failover.
// (Whole-corpus and randomized-script equivalence lives in
// tests/sim/delta_equivalence_test.cc.)
#include "sim/delta_engine.h"

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/flat_engine.h"
#include "sim/propagation.h"
#include "testing/fixtures.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using topo::GraphView;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

/// Value-equality over the best-route map only: trajectory counters
/// (process_events, per-wave converged scope) legitimately differ between
/// warm and cold runs — see the determinism note in sim/delta_engine.h.
void expect_same_best(const PrefixRouting& warm, const PrefixRouting& cold) {
  ASSERT_EQ(warm.best.size(), cold.best.size());
  for (const auto& [as, route] : cold.best) {
    const bgp::Route* got = warm.best_at(as);
    ASSERT_NE(got, nullptr) << "warm dropped AS " << util::to_string(as);
    EXPECT_EQ(*got, route) << "route differs at AS " << util::to_string(as);
  }
}

TEST(DeltaEngine, ConvergeThenMaterializeMatchesColdCompute) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  const DeltaEngine engine(g, policies, {});
  FlatScratch scratch;
  for (const auto origin : g.ases()) {
    const Origination origination{kPrefix, origin};
    DeltaState state;
    engine.converge(origination, nullptr, state, scratch);
    EXPECT_TRUE(state.initialized());
    EXPECT_TRUE(state.converged());
    expect_same_best(engine.materialize(state),
                     compute_prefix_exact(g, policies, origination, nullptr));
  }
}

TEST(DeltaEngine, EmptyPerturbationIsAStrictNoOp) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  const DeltaEngine engine(g, policies, {});
  FlatScratch scratch;
  DeltaState state;
  engine.converge({kPrefix, kAs4}, nullptr, state, scratch);
  const std::size_t events_before = state.process_events();

  const DeltaWave wave = engine.apply(state, Perturbation{}, scratch);
  EXPECT_TRUE(wave.frontier.empty());
  EXPECT_TRUE(wave.touched.empty());
  EXPECT_EQ(wave.events, 0u);
  EXPECT_TRUE(wave.converged);
  EXPECT_EQ(state.process_events(), events_before);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(g, policies, {kPrefix, kAs4}, nullptr));
}

TEST(DeltaEngine, FailThenRestoreRoundTripsThroughColdStates) {
  const Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  const DeltaEngine engine(fig.graph, policies, {});
  FlatScratch scratch;
  const Origination origination{kPrefix, fig.a};

  DeltaState state;
  engine.converge(origination, nullptr, state, scratch);

  // Fail A-B: warm result equals a cold run under the failure.
  Perturbation fail_ab;
  fail_ab.fail_edges.emplace_back(fig.a, fig.b);
  engine.apply(state, fail_ab, scratch);
  EXPECT_TRUE(state.failed().is_failed(fig.a, fig.b));
  FailedEdges cold_failed;
  cold_failed.fail(fig.a, fig.b);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        &cold_failed));

  // Also fail A-C: the origin is isolated; only the self route survives.
  Perturbation fail_ac;
  fail_ac.fail_edges.emplace_back(fig.c, fig.a);
  engine.apply(state, fail_ac, scratch);
  const PrefixRouting isolated = engine.materialize(state);
  EXPECT_NE(isolated.best_at(fig.a), nullptr);
  for (const auto as : {fig.b, fig.c, fig.d, fig.e}) {
    EXPECT_EQ(isolated.best_at(as), nullptr);
  }

  // Restore both: back to the healthy converged world.
  Perturbation restore;
  restore.restore_edges.emplace_back(fig.a, fig.b);
  restore.restore_edges.emplace_back(fig.a, fig.c);
  engine.apply(state, restore, scratch);
  EXPECT_TRUE(state.failed().empty());
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        nullptr));
}

TEST(DeltaEngine, TouchedContainsEveryAsWhoseRouteChanged) {
  const Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  const DeltaEngine engine(fig.graph, policies, {});
  FlatScratch scratch;

  DeltaState state;
  engine.converge({kPrefix, fig.a}, nullptr, state, scratch);
  const PrefixRouting before = engine.materialize(state);

  Perturbation p;
  p.fail_edges.emplace_back(fig.a, fig.b);
  const DeltaWave wave = engine.apply(state, p, scratch);
  const PrefixRouting after = engine.materialize(state);

  // The frontier seeds are the wave's entry points, so every processed AS
  // (touched) includes them — except the origin, whose self route always
  // wins and which the event loop therefore skips without processing.
  const GraphView::Id origin_id = engine.context().view().id_of(fig.a);
  for (const GraphView::Id id : wave.frontier) {
    if (id == origin_id) continue;
    EXPECT_TRUE(std::binary_search(wave.touched.begin(), wave.touched.end(),
                                   id));
  }
  // Superset property: an AS whose best route changed was processed.
  for (const auto as : fig.graph.ases()) {
    const bgp::Route* was = before.best_at(as);
    const bgp::Route* now = after.best_at(as);
    const bool changed = (was == nullptr) != (now == nullptr) ||
                         (was != nullptr && !(*was == *now));
    if (!changed) continue;
    const GraphView::Id id = engine.context().view().id_of(as);
    EXPECT_TRUE(std::binary_search(wave.touched.begin(), wave.touched.end(),
                                   id))
        << "changed AS " << util::to_string(as) << " missing from touched";
  }
}

TEST(DeltaEngine, ExportToggleMatchesColdUnderRefreshedPolicies) {
  const Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  DeltaEngine engine(fig.graph, policies, {});
  FlatScratch scratch;
  const Origination origination{kPrefix, fig.a};

  DeltaState state;
  engine.converge(origination, nullptr, state, scratch);

  // A starts withholding kPrefix from B (the paper's selective
  // announcement): mutate the owning PolicySet in place, patch the
  // engine's context, then tell it exactly which adjacency changed.
  ExportRule deny;
  deny.prefix = kPrefix;
  deny.action = ExportAction::kDeny;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, deny);
  const AsNumber changed[] = {fig.a};
  engine.refresh_policies(changed);

  Perturbation toggle;
  toggle.export_changed.emplace_back(fig.a, fig.b);
  engine.apply(state, toggle, scratch);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        nullptr));
  // The withheld route really moved: B now hears the prefix via D.
  const auto at_b = engine.route_at(state, fig.b);
  ASSERT_TRUE(at_b.has_value());
  EXPECT_EQ(at_b->learned_from, fig.d);

  // Toggle back (rule list mutated in place again).
  policies.at_mut(fig.a).export_.remove_prefix_rules(fig.b, kPrefix);
  engine.refresh_policies(changed);
  engine.apply(state, toggle, scratch);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        nullptr));
  const auto healed = engine.route_at(state, fig.b);
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->learned_from, fig.a);
}

TEST(DeltaEngine, ConditionalAdvertisementFailoverAndRecovery) {
  const Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  // A advertises kPrefix to B only while the A-C session is down.
  policies.at_mut(fig.a).conditional.push_back({kPrefix, fig.b, fig.c});
  const DeltaEngine engine(fig.graph, policies, {});
  FlatScratch scratch;
  const Origination origination{kPrefix, fig.a};

  DeltaState state;
  engine.converge(origination, nullptr, state, scratch);
  // Healthy: the backup announcement is suppressed; B's route curves
  // through its provider D.
  ASSERT_TRUE(engine.route_at(state, fig.b).has_value());
  EXPECT_EQ(engine.route_at(state, fig.b)->learned_from, fig.d);

  // Failing the *watched* session must wake the advertise_to target even
  // though neither endpoint of A-C selects a new route itself.
  Perturbation fail_watched;
  fail_watched.fail_edges.emplace_back(fig.a, fig.c);
  engine.apply(state, fail_watched, scratch);
  FailedEdges cold_failed;
  cold_failed.fail(fig.a, fig.c);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        &cold_failed));
  EXPECT_EQ(engine.route_at(state, fig.b)->learned_from, fig.a);

  // Recovery re-suppresses the conditional advertisement.
  Perturbation restore;
  restore.restore_edges.emplace_back(fig.a, fig.c);
  engine.apply(state, restore, scratch);
  expect_same_best(engine.materialize(state),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        nullptr));
  EXPECT_EQ(engine.route_at(state, fig.b)->learned_from, fig.d);
}

TEST(DeltaEngine, BranchCloneIsIndependentOfItsBase) {
  const Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  const DeltaEngine engine(fig.graph, policies, {});
  FlatScratch scratch;
  const Origination origination{kPrefix, fig.a};

  DeltaState base;
  engine.converge(origination, nullptr, base, scratch);
  const PrefixRouting pristine = engine.materialize(base);

  DeltaState branch;
  branch.assign_from(base);
  Perturbation p;
  p.fail_edges.emplace_back(fig.a, fig.b);
  engine.apply(branch, p, scratch);

  // The branch diverged; the base must be bit-for-bit undisturbed.
  EXPECT_TRUE(branch.failed().is_failed(fig.a, fig.b));
  EXPECT_TRUE(base.failed().empty());
  expect_same_best(engine.materialize(base), pristine);
  FailedEdges cold_failed;
  cold_failed.fail(fig.a, fig.b);
  expect_same_best(engine.materialize(branch),
                   compute_prefix_exact(fig.graph, policies, origination,
                                        &cold_failed));
}

TEST(Perturbation, EdgeDeltaTurnsOneFailureSetIntoAnother) {
  FailedEdges from;
  from.fail(kAs1, kAs2);
  from.fail(kAs3, kAs4);
  FailedEdges to;
  to.fail(kAs3, kAs4);  // unchanged — must not appear in the delta
  to.fail(kAs5, kAs6);

  const Perturbation delta = Perturbation::edge_delta(from, to);
  ASSERT_EQ(delta.fail_edges.size(), 1u);
  EXPECT_EQ(std::minmax(delta.fail_edges[0].first.value(),
                        delta.fail_edges[0].second.value()),
            std::minmax(kAs5.value(), kAs6.value()));
  ASSERT_EQ(delta.restore_edges.size(), 1u);
  EXPECT_EQ(std::minmax(delta.restore_edges[0].first.value(),
                        delta.restore_edges[0].second.value()),
            std::minmax(kAs1.value(), kAs2.value()));
  EXPECT_TRUE(delta.export_changed.empty());

  EXPECT_TRUE(Perturbation::edge_delta(to, to).empty());
}

}  // namespace
}  // namespace bgpolicy::sim
