// Failure injection and BGP conditional advertisement (paper Section
// 5.1.5, reference [18]).
#include <gtest/gtest.h>

#include "sim/propagation.h"
#include "testing/fixtures.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;

const Prefix kPrefix = Prefix::parse("10.0.0.0/24");

TEST(FailedEdges, SetSemantics) {
  FailedEdges failures;
  EXPECT_TRUE(failures.empty());
  failures.fail(kAs1, kAs2);
  EXPECT_TRUE(failures.is_failed(kAs1, kAs2));
  EXPECT_TRUE(failures.is_failed(kAs2, kAs1));  // undirected
  EXPECT_FALSE(failures.is_failed(kAs1, kAs3));
  failures.fail(kAs1, kAs2);  // idempotent
  EXPECT_EQ(failures.size(), 1u);
  failures.restore(kAs2, kAs1);
  EXPECT_TRUE(failures.empty());
}

TEST(Failover, FailedEdgeCarriesNoRoutes) {
  Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  FailedEdges failures;
  failures.fail(fig.a, fig.b);

  const auto state =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, &failures);
  // B cannot hear the prefix from A directly; it still gets it from its
  // provider D (who heard it via the peer E).
  const bgp::Route* at_b = state.best_at(fig.b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->learned_from, fig.d);
  // D's route must curve through the peer: the A-B edge is dead.
  const bgp::Route* at_d = state.best_at(fig.d);
  ASSERT_NE(at_d, nullptr);
  EXPECT_EQ(at_d->learned_from, fig.e);
}

TEST(Failover, IsolatedOriginReachesNobody) {
  Figure3 fig = figure3_graph();
  const auto policies = typical_policies(fig.graph);
  FailedEdges failures;
  failures.fail(fig.a, fig.b);
  failures.fail(fig.a, fig.c);

  const auto state =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, &failures);
  EXPECT_NE(state.best_at(fig.a), nullptr);  // self route survives
  EXPECT_EQ(state.best_at(fig.b), nullptr);
  EXPECT_EQ(state.best_at(fig.c), nullptr);
  EXPECT_EQ(state.best_at(fig.d), nullptr);
  EXPECT_EQ(state.best_at(fig.e), nullptr);
}

TEST(Failover, ConditionalAdvertisementSuppressedWhileHealthy) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  // A advertises kPrefix to B only if the A-C session is down.
  policies.at_mut(fig.a).conditional.push_back({kPrefix, fig.b, fig.c});

  const auto state =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, nullptr);
  // Healthy: B hears the prefix only via its provider D (peer-curved).
  const bgp::Route* at_b = state.best_at(fig.b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->learned_from, fig.d);
  const bgp::Route* at_d = state.best_at(fig.d);
  ASSERT_NE(at_d, nullptr);
  EXPECT_EQ(at_d->learned_from, fig.e) << "SA prefix while healthy";
}

TEST(Failover, ConditionalAdvertisementActivatesOnFailure) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  policies.at_mut(fig.a).conditional.push_back({kPrefix, fig.b, fig.c});

  FailedEdges failures;
  failures.fail(fig.a, fig.c);

  const auto state =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, &failures);
  // The backup announcement kicks in: everyone reaches A via B now.
  const bgp::Route* at_b = state.best_at(fig.b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->learned_from, fig.a);
  const bgp::Route* at_d = state.best_at(fig.d);
  ASSERT_NE(at_d, nullptr);
  EXPECT_EQ(at_d->learned_from, fig.b) << "customer path restored";
  // C is cut off from A directly but recovers via its provider E.
  const bgp::Route* at_c = state.best_at(fig.c);
  ASSERT_NE(at_c, nullptr);
  EXPECT_EQ(at_c->learned_from, fig.e);
}

TEST(Failover, ConditionalOnlyAffectsItsPrefix) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  policies.at_mut(fig.a).conditional.push_back({kPrefix, fig.b, fig.c});
  const Prefix other = Prefix::parse("10.0.1.0/24");

  const auto state =
      compute_prefix(fig.graph, policies, {other, fig.a}, nullptr);
  const bgp::Route* at_b = state.best_at(fig.b);
  ASSERT_NE(at_b, nullptr);
  EXPECT_EQ(at_b->learned_from, fig.a) << "other prefixes are unaffected";
}

TEST(Failover, RestorationReturnsToBaseline) {
  Figure3 fig = figure3_graph();
  auto policies = typical_policies(fig.graph);
  policies.at_mut(fig.a).conditional.push_back({kPrefix, fig.b, fig.c});

  FailedEdges failures;

  failures.fail(fig.a, fig.c);
  const auto broken =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, &failures);
  ASSERT_NE(broken.best_at(fig.d), nullptr);
  EXPECT_EQ(broken.best_at(fig.d)->learned_from, fig.b);

  failures.restore(fig.a, fig.c);
  const auto healed =
      compute_prefix(fig.graph, policies, {kPrefix, fig.a}, &failures);
  ASSERT_NE(healed.best_at(fig.d), nullptr);
  EXPECT_EQ(healed.best_at(fig.d)->learned_from, fig.e)
      << "back to the selectively-announced steady state";
}

}  // namespace
}  // namespace bgpolicy::sim
