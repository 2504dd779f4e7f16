// Unit coverage for the flat-core building blocks; the end-to-end
// guarantee lives in flat_equivalence_test.cc.
#include "sim/flat_engine.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/decision.h"
#include "bgp/route.h"
#include "core/experiment.h"
#include "core/scenario.h"
#include "testing/fixtures.h"
#include "testing/propagation_reference.h"
#include "util/arena.h"

namespace bgpolicy::sim {
namespace {

using namespace bgpolicy::testing;

TEST(PathTable, PrependInternsByValue) {
  PathTable paths;
  const auto p1 = paths.prepend(PathTable::kEmptyPath, AsNumber(10));
  const auto p21 = paths.prepend(p1, AsNumber(20));
  // Same value -> same id, no new node.
  const auto node_count = paths.node_count();
  EXPECT_EQ(paths.prepend(p1, AsNumber(20)), p21);
  EXPECT_EQ(paths.node_count(), node_count);
  // Different parents with the same front are distinct paths.
  const auto p2 = paths.prepend(PathTable::kEmptyPath, AsNumber(20));
  EXPECT_NE(p2, p21);

  EXPECT_EQ(paths.length(PathTable::kEmptyPath), 0u);
  EXPECT_EQ(paths.length(p21), 2u);
  EXPECT_EQ(paths.front(p21), AsNumber(20));
  EXPECT_EQ(paths.origin(p21), AsNumber(10));
  EXPECT_TRUE(paths.contains(p21, AsNumber(10)));
  EXPECT_TRUE(paths.contains(p21, AsNumber(20)));
  EXPECT_FALSE(paths.contains(p21, AsNumber(30)));

  const bgp::AsPath materialized = paths.materialize(p21);
  EXPECT_EQ(materialized, bgp::AsPath({AsNumber(20), AsNumber(10)}));
  EXPECT_EQ(paths.materialize(PathTable::kEmptyPath).length(), 0u);
}

TEST(CommunityTable, AddMatchesRouteSemanticsAndInternsByContent) {
  util::MonotonicArena arena;
  CommunityTable comms(arena);
  const bgp::Community x(1, 100);
  const bgp::Community y(2, 200);

  const auto sx = comms.add(CommunityTable::kEmptySet, x);
  const auto sxy = comms.add(sx, y);
  // Duplicate add is the identity (Route::add_community dedups).
  EXPECT_EQ(comms.add(sxy, x), sxy);
  // Different add order, same value -> same id.
  const auto sy = comms.add(CommunityTable::kEmptySet, y);
  EXPECT_EQ(comms.add(sy, x), sxy);

  EXPECT_TRUE(comms.contains(sxy, x));
  EXPECT_TRUE(comms.contains(sxy, y));
  EXPECT_FALSE(comms.contains(sx, y));
  EXPECT_FALSE(comms.contains(CommunityTable::kEmptySet, x));

  // Members come out sorted, exactly like the Route field.
  bgp::Route route;
  route.add_community(y);
  route.add_community(x);
  route.add_community(y);
  const auto members = comms.members(sxy);
  ASSERT_EQ(members.size(), route.communities.size());
  EXPECT_TRUE(std::equal(members.begin(), members.end(),
                         route.communities.begin()));
}

TEST(CommunityTable, FlagsOnlySetsCarryingAnExportInstruction) {
  util::MonotonicArena arena;
  CommunityTable comms(arena);
  // Relationship tags (peer/provider/customer bases) never set the flag.
  const auto tags = comms.add(comms.add(CommunityTable::kEmptySet,
                                        bgp::Community(12859, 1010)),
                              bgp::Community(12859, 4020));
  EXPECT_FALSE(comms.carries_instruction(CommunityTable::kEmptySet));
  EXPECT_FALSE(comms.carries_instruction(tags));
  for (const bgp::Community instruction :
       {bgp::kNoExport, bgp::Community(7, kNoExportToBase),
        bgp::Community(7, kNoExportToBase + kNoExportToSlots - 1),
        bgp::Community(7, kNoExportUpstreamValue)}) {
    EXPECT_TRUE(comms.carries_instruction(comms.add(tags, instruction)))
        << instruction.to_string();
  }
}

TEST(MonotonicArena, ResetKeepsBlocksAndTracksPeak) {
  util::MonotonicArena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  auto* a = arena.allocate<std::uint64_t>(100);
  ASSERT_NE(a, nullptr);
  a[99] = 7;  // writable
  const auto reserved = arena.bytes_reserved();
  EXPECT_GE(arena.bytes_used(), 100 * sizeof(std::uint64_t));
  EXPECT_GE(arena.peak_bytes(), arena.bytes_used());

  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);  // blocks kept
  // Reuses the same storage after reset.
  auto* b = arena.allocate<std::uint64_t>(1);
  EXPECT_EQ(static_cast<void*>(b), static_cast<void*>(a));
}

TEST(MonotonicArena, ReserveTakesOneBlockOfExactlyTheSize) {
  util::MonotonicArena arena;
  arena.reserve(0);
  EXPECT_EQ(arena.bytes_reserved(), 0u);  // nothing to hold
  arena.reserve(100 * sizeof(std::uint32_t));
  EXPECT_EQ(arena.bytes_reserved(), 100 * sizeof(std::uint32_t));
  (void)arena.allocate<std::uint32_t>(60);
  (void)arena.allocate<std::uint32_t>(40);
  EXPECT_EQ(arena.bytes_used(), arena.bytes_reserved());
  // Room that is already there reserves nothing more; past it, the arena
  // grows as before.
  arena.reset();
  arena.reserve(16);
  EXPECT_EQ(arena.bytes_reserved(), 100 * sizeof(std::uint32_t));
  (void)arena.allocate<std::uint32_t>(101);
  EXPECT_GT(arena.bytes_reserved(), 100 * sizeof(std::uint32_t));
}

TEST(MonotonicArena, BlockAfterAnExactBlockIsSizedFromTheBytesInUse) {
  // A warm state's copy takes one exact block; the first later wave that
  // interns a set adds an eighth of the bytes in use, not twice the copy.
  const std::size_t copy = 800 * sizeof(std::uint32_t);
  util::MonotonicArena arena;
  arena.reserve(copy);
  (void)arena.allocate<std::uint32_t>(800);
  (void)arena.allocate<std::uint32_t>(3);
  EXPECT_EQ(arena.bytes_reserved(), copy + copy / 8);
  // A copy with no sets reserves an empty block, so its first set takes a
  // block of the request's size, not the 64 KB default.
  util::MonotonicArena empty;
  empty.reserve(0);
  (void)empty.allocate<std::uint32_t>(3);
  EXPECT_EQ(empty.bytes_reserved(),
            3 * sizeof(std::uint32_t) + alignof(std::uint32_t));
  // Past a block that was not reserved, blocks double as before.
  (void)empty.allocate<std::uint32_t>(4);
  EXPECT_EQ(empty.bytes_reserved(), 16u + 32u);
}

/// Best maps (and trajectory counters) of two runs must agree exactly.
void expect_same_routing(const PrefixRouting& got, const PrefixRouting& want) {
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.process_events, want.process_events);
  ASSERT_EQ(got.best.size(), want.best.size());
  for (const auto& [as, route] : want.best) {
    const bgp::Route* at = got.best_at(as);
    ASSERT_NE(at, nullptr) << util::to_string(as);
    EXPECT_EQ(*at, route) << util::to_string(as);
  }
}

/// One receiver R (AS 50) whose winning offer is decided by each of the
/// three keys the flat fixpoint ranks offers by:
///   * prefix 1: local preference beats a shorter path — customer C1's
///     [20 21 1] (pref 120) over provider P1's [60 1] (pref 80);
///   * prefix 2: path length at equal preference — P1's [60 2] over P2's
///     [70 71 2], both providers;
///   * prefix 3: the lowest sender AS at equal preference and length — P1
///     (60) over P2 (70), with P1 *later* in R's neighbor order, so a
///     kernel that keeps the first of two equal offers picks P2.
struct TieBreakWorld {
  topo::AsGraph graph;
  AsNumber r{50};
  AsNumber p1{60};
  AsNumber p2{70};
  AsNumber c1{20};
};

TieBreakWorld tie_break_world() {
  TieBreakWorld w;
  for (const std::uint32_t as : {50, 70, 60, 20, 21, 71, 1, 2, 3}) {
    w.graph.add_as(AsNumber(as));
  }
  w.graph.add_provider_customer(w.p2, w.r);  // R's neighbor order: 70, 60
  w.graph.add_provider_customer(w.p1, w.r);
  w.graph.add_provider_customer(w.r, w.c1);
  w.graph.add_provider_customer(w.c1, AsNumber(21));
  w.graph.add_provider_customer(AsNumber(21), AsNumber(1));
  w.graph.add_provider_customer(w.p1, AsNumber(1));
  w.graph.add_provider_customer(w.p1, AsNumber(2));
  w.graph.add_provider_customer(AsNumber(71), AsNumber(2));
  w.graph.add_provider_customer(w.p2, AsNumber(71));
  w.graph.add_provider_customer(w.p1, AsNumber(3));
  w.graph.add_provider_customer(w.p2, AsNumber(3));
  return w;
}

TEST(FlatFixpoint, ThreeKeyTieBreaksMatchReference) {
  const TieBreakWorld w = tie_break_world();
  const auto policies = typical_policies(w.graph);
  const FlatSimContext context(w.graph, policies);
  FlatScratch scratch;

  struct Case {
    std::uint32_t origin;
    AsNumber winner;
    bgp::DecisionStep decided_by;
  };
  const Case cases[] = {
      {1, w.c1, bgp::DecisionStep::kLocalPref},
      {2, w.p1, bgp::DecisionStep::kAsPathLength},
      {3, w.p1, bgp::DecisionStep::kRouterId},
  };
  for (const Case& c : cases) {
    const Origination origination{
        bgp::Prefix::parse("10.0." + std::to_string(c.origin) + ".0/24"),
        AsNumber(c.origin)};
    const PrefixRouting flat =
        compute_prefix_exact(context, origination, nullptr, {}, scratch);
    expect_same_routing(flat, compute_prefix_reference(
                                  w.graph, policies, origination, nullptr, {}));

    // R's winner, and the step that separates it from every rival in R's
    // Adj-RIB-In: the world really exercises each key.
    const bgp::Route* at_r = flat.best_at(w.r);
    ASSERT_NE(at_r, nullptr);
    EXPECT_EQ(at_r->learned_from, c.winner) << "prefix " << c.origin;
    const auto rib = flat_adj_rib_in(context, origination, scratch.state(),
                                     w.r);
    ASSERT_EQ(rib.size(), 2u) << "prefix " << c.origin;
    for (const bgp::Route& rival : rib) {
      if (rival.learned_from == c.winner) continue;
      const bgp::Comparison cmp = bgp::compare_routes(*at_r, rival);
      EXPECT_LT(cmp.preference, 0);
      EXPECT_EQ(cmp.decided_by, c.decided_by) << "prefix " << c.origin;
    }
  }
}

TEST(FlatFixpoint, MissingPolicyThrowsOnlyWhenTouched) {
  // The compiled context resolves a missing policy as lazily as the seed:
  // an AS that never touches a route needs none, and the first offer that
  // reads one throws PolicySet::at's error.
  Figure3 f = figure3_graph();
  f.graph.add_as(AsNumber(99));  // no sessions: never sees a route
  const Origination from_a{bgp::Prefix::parse("10.0.0.0/24"), f.a};
  PolicySet policies = typical_policies(f.graph);
  policies.by_as.erase(AsNumber(99));
  EXPECT_NO_THROW((void)compute_prefix(f.graph, policies, from_a, nullptr));

  PolicySet no_importer = policies;
  no_importer.by_as.erase(f.e);  // E imports A's route through C
  PolicySet no_origin = policies;
  no_origin.by_as.erase(f.a);  // B and C read A's export side
  for (const PolicySet* broken : {&no_importer, &no_origin}) {
    EXPECT_THROW((void)compute_prefix(f.graph, *broken, from_a, nullptr),
                 std::out_of_range);
    EXPECT_THROW((void)compute_prefix_reference(f.graph, *broken, from_a,
                                                nullptr, {}),
                 std::out_of_range);
  }
}

TEST(FlatFixpoint, SmallScenarioInversionSelectionsPinned) {
  // inversion_selections is the trigger that sends a pruned run to exact
  // replay, and no artifact digest sees it: pin its total over every
  // origination in both orders, with each order's event total.  The
  // exact order is the reference trajectory; the chosen order prunes the
  // fan-out wherever the static oracle proved the fixpoint unique, and
  // every inversion falls on an origination the oracle flagged.
  const auto scenario = core::Scenario::small();
  const auto truth = core::synthesize(scenario);
  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  FlatScratch scratch;
  struct Totals {
    std::size_t selections = 0;
    std::size_t prefixes = 0;
    std::size_t events = 0;
    std::size_t exact = 0;
    void add(const FixpointStats& stats) {
      selections += stats.inversion_selections;
      if (stats.inversion_selections > 0) ++prefixes;
      events += stats.events;
      if (stats.order == FixpointOrder::kExact) ++exact;
    }
  };
  Totals exact;
  Totals chosen;
  for (const auto& origination : truth.originations) {
    exact.add(converge_exact(context, origination, nullptr,
                             scenario.propagation, scratch, scratch.state()));
    const FixpointStats stats =
        converge_cold(context, origination, nullptr, scenario.propagation,
                      scratch, scratch.state());
    EXPECT_FALSE(stats.pruned_discarded);
    chosen.add(stats);
  }
  EXPECT_EQ(exact.selections, 19u);
  EXPECT_EQ(exact.prefixes, 9u);
  EXPECT_EQ(exact.events, 230399u);
  EXPECT_EQ(exact.exact, truth.originations.size());
  EXPECT_EQ(chosen.selections, 19u);
  EXPECT_EQ(chosen.prefixes, 9u);
  EXPECT_EQ(chosen.events, 163177u);
  EXPECT_EQ(chosen.exact, 61u);  // of 652 originations
}

TEST(FlatSimContext, RefreshMatchesRebuiltContext) {
  const auto truth = core::synthesize(core::Scenario::small(7));
  const topo::AsGraph& graph = truth.topo.graph;
  PolicySet policies = truth.gen.policies;
  FlatSimContext patched(graph, policies);
  const FlatSimContext before(graph, truth.gen.policies);

  // Edit one AS per kind of cached policy, busiest ASes first so every
  // edit sits on many paths; `take` hands out each AS at most once.
  std::vector<AsNumber> busiest(graph.ases().begin(), graph.ases().end());
  std::stable_sort(busiest.begin(), busiest.end(),
                   [&](AsNumber x, AsNumber y) {
                     return graph.degree(x) > graph.degree(y);
                   });
  std::vector<AsNumber> changed;
  const auto take = [&](const auto& usable) {
    for (const AsNumber x : busiest) {
      if (std::find(changed.begin(), changed.end(), x) == changed.end() &&
          usable(x)) {
        changed.push_back(x);
        return x;
      }
    }
    ADD_FAILURE() << "no AS fits the edit";
    return busiest.front();
  };
  const auto unlisted_neighbor = [&](AsNumber x) -> std::optional<AsNumber> {
    for (const auto& n : graph.neighbors(x)) {
      if (!policies.at(x).export_.per_neighbor.contains(n.as)) return n.as;
    }
    return std::nullopt;
  };
  const auto single_prefix_rule = [](const auto& entry) {
    return entry.second.size() == 1 && entry.second.front().prefix;
  };

  // A per-neighbor rule list under a new neighbor key.
  {
    const AsNumber as =
        take([&](AsNumber x) { return unlisted_neighbor(x).has_value(); });
    ExportRule prepend;
    prepend.action = ExportAction::kPrepend;
    prepend.prepend_times = 2;
    policies.at_mut(as).export_.add_rule_for(*unlisted_neighbor(as), prepend);
  }
  // A rule list emptied by remove_prefix_rules, which erases its map node.
  {
    const AsNumber as = take([&](AsNumber x) {
      const auto& lists = policies.at(x).export_.per_neighbor;
      return std::any_of(lists.begin(), lists.end(), single_prefix_rule);
    });
    auto& per_neighbor = policies.at_mut(as).export_.per_neighbor;
    const auto it = std::find_if(per_neighbor.begin(), per_neighbor.end(),
                                 single_prefix_rule);
    const AsNumber neighbor = it->first;
    const bgp::Prefix prefix = *it->second.front().prefix;
    EXPECT_EQ(policies.at_mut(as).export_.remove_prefix_rules(neighbor, prefix),
              1u);
    EXPECT_FALSE(policies.at(as).export_.per_neighbor.contains(neighbor));
  }
  // An any-neighbor rule.
  {
    const AsNumber as = take([](AsNumber) { return true; });
    ExportRule prepend;
    prepend.action = ExportAction::kPrepend;
    prepend.prepend_times = 1;
    policies.at_mut(as).export_.add_rule_any(prepend);
  }
  // A neighbor override ranking a provider above the customers.
  {
    const auto provider_of = [&](AsNumber x) -> std::optional<AsNumber> {
      for (const auto& n : graph.neighbors(x)) {
        if (n.kind == RelKind::kProvider) return n.as;
      }
      return std::nullopt;
    };
    const AsNumber as =
        take([&](AsNumber x) { return provider_of(x).has_value(); });
    policies.at_mut(as).import.neighbor_override[*provider_of(as)] = 130;
  }
  // A prefix override at an AS that had none.
  {
    const AsNumber as = take([&](AsNumber x) {
      return policies.at(x).import.prefix_override.empty();
    });
    const auto pinned = std::find_if(
        truth.originations.begin(), truth.originations.end(),
        [&](const Origination& o) { return o.origin != as; });
    ASSERT_NE(pinned, truth.originations.end());
    policies.at_mut(as).import.prefix_override[pinned->prefix] = 90;
  }
  // Community tagging at an AS that had none.
  {
    const AsNumber as =
        take([&](AsNumber x) { return !policies.at(x).community.enabled; });
    policies.at_mut(as).community.enabled = true;
  }

  patched.refresh_policies(changed);
  const FlatSimContext rebuilt(graph, policies);

  FlatScratch a;
  FlatScratch b;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < truth.originations.size(); ++i) {
    const Origination& origination = truth.originations[i];
    const PrefixRouting want =
        compute_prefix_flat(rebuilt, origination, nullptr, {}, b);
    expect_same_routing(
        compute_prefix_flat(patched, origination, nullptr, {}, a), want);
    if (compute_prefix_flat(before, origination, nullptr, {}, a).best !=
        want.best) {
      ++moved;
    }

    // Looking-glass views at every AS for a sample of prefixes.
    if (i % 16 != 0) continue;
    (void)converge_cold(patched, origination, nullptr, {}, a, a.state());
    (void)converge_cold(rebuilt, origination, nullptr, {}, b, b.state());
    for (const AsNumber as : graph.ases()) {
      EXPECT_EQ(flat_adj_rib_in(patched, origination, a.state(), as),
                flat_adj_rib_in(rebuilt, origination, b.state(), as))
          << "Adj-RIB-In differs at " << util::to_string(as);
    }
  }
  // The edits are not no-ops: some prefixes route differently now.
  EXPECT_GT(moved, 0u);
}

TEST(PrefixSeeds, ListsEverySourceSortedAndDeduplicated) {
  // Figure 3: A below B and C, B below D, C below E, D and E peers.
  const Figure3 f = figure3_graph();
  PolicySet policies = typical_policies(f.graph);
  const auto p = [](const char* text) { return bgp::Prefix::parse(text); };
  const bgp::Prefix pinned = p("10.1.0.0/24");
  const bgp::Prefix denied = p("10.2.0.0/24");
  const bgp::Prefix filtered = p("10.3.0.0/24");
  const bgp::Prefix backup = p("10.4.0.0/24");
  const bgp::Prefix shared = p("10.5.0.0/24");
  const bgp::Prefix elsewhere = p("10.6.0.0/24");
  const auto rule = [](const bgp::Prefix& prefix, ExportAction action) {
    ExportRule r;
    r.prefix = prefix;
    r.action = action;
    return r;
  };
  // A pin seeds the pinning AS.
  policies.at_mut(f.b).import.prefix_override[pinned] = 90;
  // A per-neighbor rule seeds its receiver, whatever its action.
  policies.at_mut(f.d).export_.add_rule_for(
      f.b, rule(denied, ExportAction::kDeny));
  // An any-neighbor rule seeds every neighbor of its sender.
  policies.at_mut(f.e).export_.add_rule_any(
      rule(filtered, ExportAction::kPrepend));
  // A conditional advert seeds its advertise_to.
  policies.at_mut(f.a).conditional.push_back({backup, f.c, f.b});
  // Several sources naming one prefix at one AS list it once.
  policies.at_mut(f.c).import.prefix_override[shared] = 90;
  policies.at_mut(f.a).export_.add_rule_for(
      f.c, rule(shared, ExportAction::kTagNoExportUpstream));
  policies.at_mut(f.d).import.prefix_override[shared] = 70;
  // A rule toward an AS the graph lacks names the prefix and no AS.
  policies.at_mut(f.d).export_.add_rule_for(
      AsNumber(99), rule(elsewhere, ExportAction::kDeny));
  // An origin-keyed rule names no prefix; a pin on 0.0.0.0/0 names the
  // first candidate for the base prefix.
  ExportRule by_origin;
  by_origin.origin = f.a;
  policies.at_mut(f.b).export_.add_rule_for(f.d, by_origin);
  policies.at_mut(f.e).import.prefix_override[p("0.0.0.0/0")] = 90;

  const FlatSimContext context(f.graph, policies);
  const PrefixSeeds seeds(context);
  const auto ids = [&](std::vector<AsNumber> ases) {
    std::vector<topo::GraphView::Id> out;
    for (const AsNumber as : ases) out.push_back(context.view().id_of(as));
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto of = [&](const bgp::Prefix& prefix) {
    const auto span = seeds.of(prefix);
    return std::vector<topo::GraphView::Id>(span.begin(), span.end());
  };
  EXPECT_EQ(of(pinned), ids({f.b}));
  EXPECT_EQ(of(denied), ids({f.b}));
  EXPECT_EQ(of(filtered), ids({f.c, f.d}));
  EXPECT_EQ(of(backup), ids({f.c}));
  EXPECT_EQ(of(shared), ids({f.c, f.d}));
  EXPECT_TRUE(seeds.named(elsewhere));
  EXPECT_TRUE(of(elsewhere).empty());
  EXPECT_FALSE(seeds.named(p("10.7.0.0/24")));
  EXPECT_TRUE(of(p("10.7.0.0/24")).empty());
  EXPECT_TRUE(seeds.named(p("0.0.0.0/0")));
  EXPECT_FALSE(seeds.named(seeds.unnamed()));
}

TEST(BatchRunner, DerivesExactRoutesAndCountsIndependentOfTheCut) {
  // The batch runner's routes equal the exact order's for every
  // origination, and each origination's stats are the same however the
  // list is cut into ranges; only the bases, which belong to no
  // origination, run once per origin run of a range.
  const auto scenario = core::Scenario::small(7);
  const auto truth = core::synthesize(scenario);
  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  const PrefixSeeds seeds(context);
  const auto& originations = truth.originations;
  FlatScratch scratch;
  std::vector<PrefixRouting> exact;
  for (const Origination& o : originations) {
    const FixpointStats stats = converge_exact(
        context, o, nullptr, scenario.propagation, scratch, scratch.state());
    exact.push_back(materialize_routing(context, o, scratch.state(),
                                        stats.converged, stats.events));
  }

  std::vector<FixpointStats> whole(originations.size());
  const auto run = [&](std::size_t range_size, bool keep) {
    BatchStats total;
    for (std::size_t begin = 0; begin < originations.size();
         begin += range_size) {
      const util::IndexRange range{
          begin, std::min(begin + range_size, originations.size())};
      const BatchStats part = converge_range(
          context, seeds, originations, range, scenario.propagation, scratch,
          [&](std::size_t i, const FixpointStats& stats,
              FlatRoutingState& state) {
            const PrefixRouting got = materialize_routing(
                context, originations[i], state, stats.converged,
                stats.events);
            EXPECT_EQ(got.best, exact[i].best) << "origination " << i;
            if (keep) {
              whole[i] = stats;
            } else {
              EXPECT_EQ(stats.events, whole[i].events) << "origination " << i;
              EXPECT_EQ(stats.order, whole[i].order) << "origination " << i;
            }
          });
      total.base_converges += part.base_converges;
      total.waves += part.waves;
      total.wave_events += part.wave_events;
      total.exact_runs += part.exact_runs;
      total.exact_events += part.exact_events;
      total.discarded += part.discarded;
    }
    return total;
  };
  const BatchStats one = run(originations.size(), true);
  const BatchStats sevens = run(7, false);
  const BatchStats singles = run(1, false);
  EXPECT_EQ(one.discarded, 0u);
  EXPECT_GT(one.waves, 0u);
  EXPECT_GT(one.exact_runs, 0u);
  EXPECT_EQ(one.waves + one.exact_runs, originations.size());
  for (const BatchStats* cut : {&sevens, &singles}) {
    EXPECT_EQ(cut->waves, one.waves);
    EXPECT_EQ(cut->wave_events, one.wave_events);
    EXPECT_EQ(cut->exact_events, one.exact_events);
  }
  // One base per origin run of a range: a single range shares them most.
  EXPECT_LT(one.base_converges, sevens.base_converges);
  EXPECT_EQ(singles.base_converges, one.waves);
}

TEST(FlatRoutingState, CopiedInternet2002StateReservesWhatItUses) {
  // A warm state copied out of a long-lived scratch holds its community
  // members in one arena block of their size, not a default first block.
  if (sanitizer_build()) {
    GTEST_SKIP() << "internet2002 synthesis is too slow under sanitizers";
  }
  const auto scenario = core::Scenario::internet2002();
  const auto truth = core::synthesize(scenario);
  const FlatSimContext context(truth.topo.graph, truth.gen.policies);
  FlatScratch scratch;
  std::size_t with_members = 0;
  for (std::size_t i = 0; i < truth.originations.size(); i += 97) {
    const Origination& o = truth.originations[i];
    (void)converge_cold(context, o, nullptr, scenario.propagation, scratch,
                        scratch.state());
    FlatRoutingState copy;
    copy.assign_from(scratch.state());
    const util::MonotonicArena& arena = copy.arena;
    EXPECT_LE(arena.bytes_reserved(),
              arena.bytes_used() + alignof(std::max_align_t))
        << "origination " << i;
    if (arena.bytes_used() > 0) ++with_members;
    for (const AsNumber as : truth.topo.graph.ases()) {
      ASSERT_EQ(flat_route_at(context, o, copy, as),
                flat_route_at(context, o, scratch.state(), as))
          << "origination " << i << " at " << util::to_string(as);
    }
  }
  EXPECT_GT(with_members, 0u);
}

TEST(FlatScratchPool, LeasesAreReused) {
  FlatScratchPool pool;
  const auto f = figure3_graph();
  const auto policies = typical_policies(f.graph);
  const FlatSimContext context(f.graph, policies);
  const FlatScratch* warmed = nullptr;
  {
    const auto lease = pool.acquire();
    const auto state = compute_prefix_flat(
        context, {bgp::Prefix::parse("10.0.0.0/24"), f.a}, nullptr, {},
        *lease);
    EXPECT_TRUE(state.converged);
    warmed = &*lease;
  }
  // The released scratch is handed out again instead of a fresh one.
  EXPECT_EQ(&*pool.acquire(), warmed);
  {
    // Two concurrent leases are distinct scratches.
    const auto first = pool.acquire();
    const auto second = pool.acquire();
    EXPECT_NE(&*first, &*second);
  }
}

}  // namespace
}  // namespace bgpolicy::sim
