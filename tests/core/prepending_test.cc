#include "core/prepending.h"

#include <gtest/gtest.h>

#include "sim/propagation.h"
#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::AsPath;
using bgp::Prefix;
using util::AsNumber;

TEST(PrependDepth, DetectsRuns) {
  EXPECT_EQ(prepend_depth(AsPath::parse("1 2 3").view()), 0u);
  EXPECT_EQ(prepend_depth(AsPath::parse("1 2 2 3").view()), 1u);
  EXPECT_EQ(prepend_depth(AsPath::parse("1 2 2 2 3").view()), 2u);
  EXPECT_EQ(prepend_depth(AsPath::parse("1 1 2 3 3 3").view()), 2u);
  EXPECT_EQ(prepend_depth(AsPath().view()), 0u);
  EXPECT_EQ(prepend_depth(AsPath::parse("7").view()), 0u);
}

TEST(Prepending, AnalyzesTable) {
  bgp::BgpTable table{AsNumber(9)};
  table.add(make_route(Prefix::parse("10.0.0.0/24"),
                       {AsNumber(2), AsNumber(3)}));
  table.add(make_route(Prefix::parse("10.0.1.0/24"),
                       {AsNumber(2), AsNumber(3), AsNumber(3), AsNumber(3)}));
  const auto result = analyze_prepending(table);
  EXPECT_EQ(result.total_routes, 2u);
  EXPECT_EQ(result.prepended_routes, 1u);
  EXPECT_DOUBLE_EQ(result.percent_prepended, 50.0);
  EXPECT_TRUE(result.prepending_ases.contains(AsNumber(3)));
  EXPECT_FALSE(result.prepending_ases.contains(AsNumber(2)));
  EXPECT_EQ(result.depth_histogram.at(2), 1u);
}

TEST(Prepending, EnginePropagatesPrependedPaths) {
  // A prepends twice toward B: B's path to the prefix is "a a a"; C's
  // stays "a".  B still prefers the (longer) customer route by local-pref.
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  const Prefix prefix = Prefix::parse("10.0.0.0/24");
  sim::ExportRule rule;
  rule.prefix = prefix;
  rule.action = sim::ExportAction::kPrepend;
  rule.prepend_times = 2;
  policies.at_mut(fig.a).export_.add_rule_for(fig.b, rule);

  const auto state =
      sim::compute_prefix(fig.graph, policies, {prefix, fig.a}, nullptr);
  const bgp::Route* at_b = state.best_at(fig.b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->learned_from, fig.a);
  EXPECT_EQ(at_b->path.length(), 3u);
  EXPECT_EQ(prepend_depth(at_b->path.view()), 2u);
  const bgp::Route* at_c = state.best_at(fig.c);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->path.length(), 1u);

  // Upstream of B, path length decides: D prefers the unprepended chain
  // via E?  No — D's customer route via B wins on local-pref regardless;
  // but D's path through B carries the prepending.
  const bgp::Route* at_d = state.best_at(fig.d);
  ASSERT_NE(at_d, nullptr);
  EXPECT_EQ(at_d->learned_from, fig.b);
  EXPECT_EQ(prepend_depth(at_d->path.view()), 2u);
}

TEST(Prepending, PrependSteersEqualPrefChoice) {
  // At the peer level (equal local-pref), prepending diverts the choice:
  // give D two peer-ish options by a custom graph.
  topo::AsGraph g;
  const AsNumber o{10}, left{20}, right{30}, top{40};
  for (const auto as : {o, left, right, top}) g.add_as(as);
  g.add_provider_customer(left, o);
  g.add_provider_customer(right, o);
  g.add_provider_customer(top, left);
  g.add_provider_customer(top, right);

  auto policies = typical_policies(g);
  const Prefix prefix = Prefix::parse("10.0.0.0/24");
  // Without prepending, top picks the lower AS number (left=20).
  {
    const auto state = sim::compute_prefix(g, policies, {prefix, o}, nullptr);
    ASSERT_NE(state.best_at(top), nullptr);
    EXPECT_EQ(state.best_at(top)->learned_from, left);
  }
  // Prepending toward left makes the right-hand path shorter.
  sim::ExportRule rule;
  rule.prefix = prefix;
  rule.action = sim::ExportAction::kPrepend;
  rule.prepend_times = 2;
  policies.at_mut(o).export_.add_rule_for(left, rule);
  {
    const auto state = sim::compute_prefix(g, policies, {prefix, o}, nullptr);
    ASSERT_NE(state.best_at(top), nullptr);
    EXPECT_EQ(state.best_at(top)->learned_from, right)
        << "prepending must deprioritize the left link";
  }
}

TEST(Prepending, PipelinePrevalenceMatchesGroundTruth) {
  const auto& exp = shared_experiment();
  const auto result = analyze_prepending(exp.sim().sim.collector);
  // Every ground-truth prepender that is visible must be detected, and no
  // AS outside the truth set may appear (the engine only prepends on
  // configured rules).
  std::unordered_set<util::AsNumber> truth;
  for (const auto& unit : exp.truth().gen.truth.prepend_units) {
    truth.insert(unit.origin);
  }
  for (const auto as : result.prepending_ases) {
    EXPECT_TRUE(truth.contains(as))
        << util::to_string(as) << " prepends without a configured rule";
  }
  if (!truth.empty()) {
    EXPECT_GT(result.prepended_routes, 0u);
  }
}

}  // namespace
}  // namespace bgpolicy::core
