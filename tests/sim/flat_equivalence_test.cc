// The flat engine's golden contract: the flat core in exact order
// (`converge_exact`) is byte-identical to `compute_prefix_reference` (the
// seed per-event program, kept verbatim as the executable spec in
// tests/testing/propagation_reference.h) for every
// input — worked-example figures, generated scenarios, failure sets —
// event for event; the order the static wedgie oracle chooses
// (`converge_cold`) lands on the same routes; and whole-simulation tables
// are identical to the reference recorder's at every thread count.
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_spec.h"
#include "io/artifact_codec.h"
#include "io/binary_table.h"
#include "sim/flat_engine.h"
#include "sim/propagation.h"
#include "sim/simulation.h"
#include "testing/fixtures.h"
#include "testing/propagation_reference.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

/// The best-route maps of two runs, route for route.
void expect_routing_equal_routes(const PrefixRouting& flat,
                                 const PrefixRouting& reference) {
  EXPECT_EQ(flat.origination, reference.origination);
  ASSERT_EQ(flat.best.size(), reference.best.size());
  for (const auto& [as, route] : reference.best) {
    const bgp::Route* got = flat.best_at(as);
    ASSERT_NE(got, nullptr) << "flat dropped AS " << util::to_string(as);
    EXPECT_EQ(*got, route) << "route differs at AS " << util::to_string(as);
  }
}

/// Routes and the trajectory counters: what an exact-order run shares with
/// the reference engine.
void expect_routing_equal(const PrefixRouting& flat,
                          const PrefixRouting& reference) {
  EXPECT_EQ(flat.converged, reference.converged);
  EXPECT_EQ(flat.process_events, reference.process_events);
  expect_routing_equal_routes(flat, reference);
}

void expect_equivalent(const topo::AsGraph& graph, const PolicySet& policies,
                       const Origination& origination,
                       const FailedEdges* failed) {
  const auto flat = compute_prefix_exact(graph, policies, origination, failed);
  const auto reference =
      compute_prefix_reference(graph, policies, origination, failed);
  expect_routing_equal(flat, reference);
  // The one-shot entry takes the oracle's order: the same routes.
  const auto chosen = compute_prefix(graph, policies, origination, failed);
  EXPECT_EQ(chosen.converged, reference.converged);
  expect_routing_equal_routes(chosen, reference);
}

TEST(FlatEquivalence, Figure1AllOrigins) {
  const auto g = figure1_graph();
  const auto policies = typical_policies(g);
  for (const auto origin : g.ases()) {
    expect_equivalent(g, policies, {kPrefix, origin}, nullptr);
  }
}

/// Figure 3 with every traffic-engineering mechanism the engine models:
/// selective announcement, prepending, both community tag actions, and
/// relationship-tagging communities.
PolicySet figure3_te_policies(const Figure3& f) {
  auto policies = typical_policies(f.graph);

  // Selective announcement: A withholds from B.
  ExportRule deny;
  deny.prefix = kPrefix;
  deny.action = ExportAction::kDeny;
  policies.at_mut(f.a).export_.add_rule_for(f.b, deny);

  // Prepending toward C deprioritizes the other path.
  ExportRule prepend;
  prepend.action = ExportAction::kPrepend;
  prepend.prepend_times = 3;
  policies.at_mut(f.b).export_.add_rule_for(f.d, prepend);

  // Community-driven scoping exercised through both tag actions.
  ExportRule tag_up;
  tag_up.prefix = kPrefix;
  tag_up.action = ExportAction::kTagNoExportUpstream;
  policies.at_mut(f.c).export_.add_rule_for(f.e, tag_up);
  policies.at_mut(f.e).no_export_slot_for(f.d);
  ExportRule tag_to;
  tag_to.action = ExportAction::kTagNoExportTo;
  tag_to.target = f.d;
  policies.at_mut(f.c).export_.add_rule_for(f.e, tag_to);

  // Relationship-tagging communities at one vantage.
  policies.at_mut(f.d).community.enabled = true;
  return policies;
}

TEST(FlatEquivalence, Figure3WithTrafficEngineering) {
  const auto f = figure3_graph();
  const auto policies = figure3_te_policies(f);
  for (const auto origin : f.graph.ases()) {
    expect_equivalent(f.graph, policies, {kPrefix, origin}, nullptr);
  }
}

TEST(FlatEquivalence, FailureSetsIncludingConditionalAdvertisement) {
  const auto f = figure3_graph();
  auto policies = typical_policies(f.graph);
  // A advertises to C only while the A-B session is down.
  policies.at_mut(f.a).conditional.push_back({kPrefix, f.c, f.b});

  const std::vector<std::pair<AsNumber, AsNumber>> edges = {
      {f.a, f.b}, {f.a, f.c}, {f.b, f.d}, {f.c, f.e}, {f.d, f.e}};
  // Healthy, every single failure, and one double failure.
  expect_equivalent(f.graph, policies, {kPrefix, f.a}, nullptr);
  for (const auto& [x, y] : edges) {
    FailedEdges failed;
    failed.fail(x, y);
    expect_equivalent(f.graph, policies, {kPrefix, f.a}, &failed);
  }
  FailedEdges both;
  both.fail(f.a, f.b);
  both.fail(f.d, f.e);
  expect_equivalent(f.graph, policies, {kPrefix, f.a}, &both);
}

TEST(FlatEquivalence, SmallScenarioEveryOrigination) {
  const auto scenario = core::Scenario::small();
  const auto truth = core::synthesize(scenario);

  // One shared context + scratch, as production loops run it, so scratch
  // reset hygiene between prefixes is covered too.
  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  FlatScratch scratch;
  for (const auto& origination : truth.originations) {
    const auto flat = compute_prefix_exact(context, origination, nullptr,
                                           scenario.propagation, scratch);
    const auto reference = compute_prefix_reference(
        truth.topo.graph, truth.gen.policies, origination, nullptr,
        scenario.propagation);
    expect_routing_equal(flat, reference);
  }
  EXPECT_GT(scratch.peak_bytes(), 0u);
}

TEST(FlatEquivalence, Internet2002SampledOriginations) {
  const auto scenario = core::Scenario::internet2002();
  const auto truth = core::synthesize(scenario);
  ASSERT_FALSE(truth.originations.empty());

  // The reference engine is too slow for every origination here; a strided
  // sample (plus both ends) still crosses tiers, split prefixes, and the
  // community-flavored units.
  std::vector<std::size_t> picks = {0, truth.originations.size() - 1};
  for (std::size_t i = 0; i < truth.originations.size();
       i += truth.originations.size() / 16 + 1) {
    picks.push_back(i);
  }

  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  FlatScratch scratch;
  for (const std::size_t i : picks) {
    const auto& origination = truth.originations[i];
    const auto flat = compute_prefix_exact(context, origination, nullptr,
                                           scenario.propagation, scratch);
    const auto reference = compute_prefix_reference(
        truth.topo.graph, truth.gen.policies, origination, nullptr,
        scenario.propagation);
    expect_routing_equal(flat, reference);
  }
}

/// Every origination of `truth` in both orders (a strided sample of
/// `stride`): the chosen order must land on the exact order's routes, and
/// on these worlds the oracle's proof must hold without the inversion
/// fallback, so no pruned run is discarded.  Returns how many originations
/// took the pruned order.
std::size_t expect_orders_agree(const core::GroundTruth& truth,
                                const PropagationOptions& options,
                                std::size_t stride = 1) {
  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  FlatScratch scratch;
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < truth.originations.size(); i += stride) {
    const Origination& origination = truth.originations[i];
    SCOPED_TRACE(origination.prefix.to_string() + " from " +
                 util::to_string(origination.origin));
    const PrefixRouting exact =
        compute_prefix_exact(context, origination, nullptr, options, scratch);
    const FixpointStats stats = converge_cold(context, origination, nullptr,
                                              options, scratch,
                                              scratch.state());
    EXPECT_FALSE(stats.pruned_discarded);
    EXPECT_EQ(stats.converged, exact.converged);
    if (stats.order == FixpointOrder::kPruned) ++pruned;
    const PrefixRouting chosen = materialize_routing(
        context, origination, scratch.state(), stats.converged, stats.events);
    expect_routing_equal_routes(chosen, exact);
  }
  return pruned;
}

TEST(FlatEquivalence, ChosenOrderMatchesExactOrder) {
  for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    SCOPED_TRACE("small(" + std::to_string(seed) + ")");
    const auto scenario = core::Scenario::small(seed);
    const auto truth = core::synthesize(scenario);
    EXPECT_GT(expect_orders_agree(truth, scenario.propagation), 0u);
  }
  std::size_t specs_seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(BGPOLICY_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++specs_seen;
    SCOPED_TRACE(entry.path().filename().string());
    const core::ScenarioSpec spec =
        core::ScenarioSpec::parse_file(entry.path());
    (void)expect_orders_agree(core::synthesize(spec.scenario),
                              spec.scenario.propagation);
  }
  EXPECT_GE(specs_seen, 6u) << "scenario corpus shrank";
}

TEST(FlatEquivalence, ChosenOrderMatchesExactOrderInternet2002Sample) {
  if (sanitizer_build()) {
    GTEST_SKIP() << "internet2002 sample is too slow under sanitizers";
  }
  const auto scenario = core::Scenario::internet2002();
  const auto truth = core::synthesize(scenario);
  EXPECT_GT(expect_orders_agree(truth, scenario.propagation, /*stride=*/13),
            0u);
}

/// Every recorded table, row for row.
void expect_same_tables(const SimResult& got, const SimResult& want) {
  EXPECT_EQ(io::serialize_table(got.collector),
            io::serialize_table(want.collector))
      << "collector table differs";
  ASSERT_EQ(got.looking_glass.size(), want.looking_glass.size());
  for (const auto& [as, table] : want.looking_glass) {
    const auto it = got.looking_glass.find(as);
    ASSERT_NE(it, got.looking_glass.end());
    EXPECT_EQ(io::serialize_table(it->second), io::serialize_table(table))
        << "looking-glass table differs at AS " << util::to_string(as);
  }
  ASSERT_EQ(got.best_only.size(), want.best_only.size());
  for (const auto& [as, table] : want.best_only) {
    const auto it = got.best_only.find(as);
    ASSERT_NE(it, got.best_only.end());
    EXPECT_EQ(io::serialize_table(it->second), io::serialize_table(table))
        << "best-only table differs at AS " << util::to_string(as);
  }
}

/// run_simulation against the seed program: the same tables row for row
/// and the same convergence counters at every thread count, and the flat
/// core's exact-order event sum equal to the reference trajectory's.
/// run_simulation itself runs the batch runner, which derives each
/// proven-unique origination from its origin's base by a pruned wave, so
/// only its own `process_events` (and the SimArtifact digest that encodes
/// them) may differ from the seed: they equal one sequential pass of the
/// runner and must not differ across thread counts, however the list is
/// cut into ranges.
void expect_tables_match_seed(const topo::AsGraph& graph,
                              const PolicySet& policies,
                              std::span<const Origination> originations,
                              const VantageSpec& vantage,
                              PropagationOptions options) {
  const auto digest_of = [&](const SimResult& sim) {
    core::SimArtifact artifact;
    artifact.vantage = vantage;
    artifact.sim = sim;
    return core::store_digest_hex(io::encode(artifact));
  };

  const SimResult reference =
      reference_simulation(graph, policies, originations, vantage, options);
  const FlatSimContext context(graph, policies);
  FlatScratch scratch;
  std::size_t exact_events = 0;
  for (const Origination& origination : originations) {
    exact_events += converge_exact(context, origination, nullptr, options,
                                   scratch, scratch.state())
                        .events;
  }
  EXPECT_EQ(exact_events, reference.process_events);
  const BatchStats batch = converge_range(
      context, PrefixSeeds(context), originations, {0, originations.size()},
      options, scratch, [](std::size_t, const FixpointStats&,
                           FlatRoutingState&) {});
  EXPECT_EQ(batch.waves + batch.exact_runs, originations.size());
  EXPECT_EQ(batch.discarded, 0u);
  const std::size_t chosen_events = batch.wave_events + batch.exact_events;

  std::string first_digest;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    const auto run =
        run_simulation(graph, policies, originations, vantage, options);
    EXPECT_EQ(run.origination_count, reference.origination_count);
    EXPECT_EQ(run.unconverged_prefixes, reference.unconverged_prefixes);
    EXPECT_EQ(run.process_events, chosen_events);
    expect_same_tables(run, reference);
    const std::string digest = digest_of(run);
    if (first_digest.empty()) first_digest = digest;
    EXPECT_EQ(digest, first_digest);
  }
}

/// The full internet2002 Simulate and Observe artifacts and analyses,
/// pinned byte for byte: a change anywhere in the fixpoint, the recorder,
/// the chunk merge or the codec that moves one recorded row moves the
/// Simulate digest, and one that moves a path-index id (PathIndex
/// insertion order) moves the Observe digest.  The analyses digest sees
/// every counter Analyze computes, so a wrong customer cone moves it.  The
/// Simulate artifact also encodes `process_events`, the events of each
/// origination's own run (its wave from its origin's base, or its exact
/// run), so a change of kind of run moves it while the rows stay.  The same values hold at every
/// thread count (the determinism contract); threads = 0 runs the
/// production shape.
TEST(FlatEquivalence, Internet2002ArtifactDigestPinned) {
  if (sanitizer_build()) {
    GTEST_SKIP() << "full internet2002 Simulate is too slow under sanitizers";
  }
  core::Scenario scenario = core::Scenario::internet2002();
  scenario.propagation.threads = 0;
  core::Experiment experiment(scenario);
  experiment.run(core::Stage::kAnalyze);
  EXPECT_EQ(core::store_digest_hex(io::encode(experiment.truth())),
            "e666be8cb926ea09f4d7ae4bebef2e9f");
  EXPECT_EQ(core::store_digest_hex(io::encode(experiment.sim())),
            "83ee4022a40f17537d1050004cbc444b");
  // 14,900,880 in exact order; 11,117,714 in converge_cold's order, where
  // the oracle prunes 5,819 of 6,535; 3,366,352 when those 5,819 are
  // waves from their origins' bases.
  EXPECT_EQ(experiment.sim().sim.process_events, 3366352u);
  EXPECT_EQ(core::store_digest_hex(io::encode(experiment.observations())),
            "7f318bcb45626cfe091111561b1d6bd4");
  EXPECT_EQ(core::store_digest_hex(io::encode(experiment.inference())),
            "fa8993cb1e54961f17cd51339f1ded16");
  EXPECT_EQ(core::store_digest_hex(io::encode(experiment.analyses())),
            "3ac3d894bdec1ad799421afcffede363");
  // The same analyses digest perfbench/reference.json pins.
  EXPECT_EQ(core::stable_digest_hex(
                core::canonical_serialize(experiment.analyses())),
            "8a664537f6c4b68019eb00b6396e5dd5");
}

TEST(FlatEquivalence, ArtifactDigestMatchesSeedAtEveryThreadCount) {
  {
    SCOPED_TRACE("Scenario::small");
    const auto scenario = core::Scenario::small();
    const auto truth = core::synthesize(scenario);
    expect_tables_match_seed(truth.topo.graph, truth.gen.policies,
                               truth.originations,
                               core::derive_vantage(scenario, truth.topo),
                               scenario.propagation);
  }

  // The figure-3 traffic-engineering world plus A's conditional
  // advertisement, with every AS a looking glass, collector peer and
  // best-only vantage.  Every AS originates two prefixes (MOAS, so later
  // originations also replace earlier rows per neighbor): kPrefix, which
  // the prefix-specific rules match, and a second one for which C's
  // NoExportTo tag is not shadowed by its NoExportUpstream tag.  The
  // looking glasses see offers that are denied (A to B), prepended (B to
  // D), tagged by both tag actions (C to E), community-tagged on import
  // (at D) and conditionally suppressed (A to C).
  SCOPED_TRACE("figure 3 traffic engineering");
  const auto f = figure3_graph();
  auto policies = figure3_te_policies(f);
  policies.at_mut(f.a).conditional.push_back({kPrefix, f.c, f.b});
  std::vector<Origination> originations;
  VantageSpec vantage;
  for (const auto as : f.graph.ases()) {
    originations.push_back({kPrefix, as});
    originations.push_back({Prefix::parse("10.0.1.0/24"), as});
    vantage.collector_peers.push_back(as);
    vantage.looking_glass.push_back(as);
    vantage.best_only.push_back(as);
  }
  expect_tables_match_seed(f.graph, policies, originations, vantage, {});
}

}  // namespace
}  // namespace bgpolicy::sim
