// The flat engine's golden contract: `compute_prefix` (dense-id/interned
// flat core) is byte-identical to `compute_prefix_reference` (the seed
// per-event program, kept verbatim as the executable spec) for every
// input — worked-example figures, generated scenarios, failure sets — and
// whole-simulation artifacts digest identically at every thread count.
#include <cstddef>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "core/artifact_store.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "io/artifact_codec.h"
#include "sim/flat_engine.h"
#include "sim/propagation.h"
#include "sim/simulation.h"
#include "testing/fixtures.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

void expect_routing_equal(const PrefixRouting& flat,
                          const PrefixRouting& reference) {
  EXPECT_EQ(flat.origination, reference.origination);
  EXPECT_EQ(flat.converged, reference.converged);
  EXPECT_EQ(flat.process_events, reference.process_events);
  ASSERT_EQ(flat.best.size(), reference.best.size());
  for (const auto& [as, route] : reference.best) {
    const bgp::Route* got = flat.best_at(as);
    ASSERT_NE(got, nullptr) << "flat dropped AS " << util::to_string(as);
    EXPECT_EQ(*got, route) << "route differs at AS " << util::to_string(as);
  }
}

void expect_equivalent(const topo::AsGraph& graph, const PolicySet& policies,
                       const Origination& origination,
                       const FailedEdges* failed) {
  const auto flat = compute_prefix(graph, policies, origination, failed);
  const auto reference =
      compute_prefix_reference(graph, policies, origination, failed);
  expect_routing_equal(flat, reference);
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
    const auto flat = compute_prefix_flat(context, origination, nullptr,
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
    const auto flat = compute_prefix_flat(context, origination, nullptr,
                                          scenario.propagation, scratch);
    const auto reference = compute_prefix_reference(
        truth.topo.graph, truth.gen.policies, origination, nullptr,
        scenario.propagation);
    expect_routing_equal(flat, reference);
  }
}

/// Runs the seed sequential program: reference fixpoints recorded in
/// origination order — what run_simulation(threads=1) was before the flat
/// core landed.
SimResult reference_simulation(const topo::AsGraph& graph,
                               const PolicySet& policies,
                               std::span<const Origination> originations,
                               const VantageSpec& vantage,
                               const PropagationOptions& options) {
  const PropagationEngine engine(graph, policies);
  SimResult result = init_sim_result(vantage);
  for (const auto& origination : originations) {
    const PrefixRouting state = compute_prefix_reference(
        graph, policies, origination, nullptr, options);
    if (!state.converged) ++result.unconverged_prefixes;
    result.process_events += state.process_events;
    record_prefix(engine, state, vantage, result);
    ++result.origination_count;
  }
  return result;
}

void expect_digest_matches_seed(const topo::AsGraph& graph,
                                const PolicySet& policies,
                                std::span<const Origination> originations,
                                const VantageSpec& vantage,
                                PropagationOptions options) {
  const auto digest_of = [&](const SimResult& sim) {
    core::SimArtifact artifact;
    artifact.vantage = vantage;
    artifact.sim = sim;
    const auto bytes = io::encode(artifact);
    return core::stable_digest_hex(bytes);
  };

  const auto reference = digest_of(
      reference_simulation(graph, policies, originations, vantage, options));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    options.threads = threads;
    const auto run =
        run_simulation(graph, policies, originations, vantage, options);
    EXPECT_EQ(digest_of(run), reference) << "threads=" << threads;
  }
}

/// The full internet2002 Simulate and Observe artifacts and analyses,
/// pinned byte for byte: a change anywhere in the fixpoint, the recorder,
/// the chunk merge or the codec that moves one recorded row moves the
/// Simulate digest, and one that moves a path-index id (PathIndex
/// insertion order) moves the Observe digest.  The analyses digest sees
/// every counter Analyze computes, so a wrong customer cone moves it.  The
/// same values hold at every thread count (the determinism contract);
/// threads = 0 runs the production shape.
TEST(FlatEquivalence, Internet2002ArtifactDigestPinned) {
  if (sanitizer_build()) {
    GTEST_SKIP() << "full internet2002 Simulate is too slow under sanitizers";
  }
  core::Scenario scenario = core::Scenario::internet2002();
  scenario.propagation.threads = 0;
  core::Experiment experiment(scenario);
  experiment.run(core::Stage::kAnalyze);
  EXPECT_EQ(core::stable_digest_hex(io::encode(experiment.sim())),
            "ce8a857dfacc3619db14a075784d66fe");
  EXPECT_EQ(core::stable_digest_hex(io::encode(experiment.observations())),
            "d87e0e5615e5411eac740867510c4a8b");
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
    expect_digest_matches_seed(truth.topo.graph, truth.gen.policies,
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
  expect_digest_matches_seed(f.graph, policies, originations, vantage, {});
}

}  // namespace
}  // namespace bgpolicy::sim
