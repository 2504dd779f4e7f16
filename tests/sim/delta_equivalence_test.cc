// Golden equivalence of warm delta propagation vs cold recomputation
// (ISSUE 9): replaying the scenario corpus's event scripts, randomized
// fail/restore schedules, churn stepping at several thread counts, and a
// strided internet2002 sample, the delta engine's best-route maps must be
// value-identical to an exact-order cold fixpoint (`converge_exact`) under
// the same failure set at every timeline point, so the static oracle's
// order is checked on both the first converge and every pruned wave.
// Trajectory counters are excluded by design — see the determinism note in
// sim/delta_engine.h.
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario.h"
#include "core/scenario_spec.h"
#include "sim/churn.h"
#include "sim/delta_engine.h"
#include "sim/flat_engine.h"
#include "sim/propagation.h"
#include "testing/fixtures.h"
#include "util/rng.h"

namespace bgpolicy::sim {
namespace {

using testing::compute_prefix_exact;
using testing::sanitizer_build;
using util::AsNumber;

void expect_same_best(const PrefixRouting& warm, const PrefixRouting& cold,
                      const char* label) {
  ASSERT_EQ(warm.best.size(), cold.best.size()) << label;
  for (const auto& [as, route] : cold.best) {
    const bgp::Route* got = warm.best_at(as);
    ASSERT_NE(got, nullptr)
        << label << ": warm dropped AS " << util::to_string(as);
    EXPECT_EQ(*got, route)
        << label << ": route differs at AS " << util::to_string(as);
  }
}

/// Replays an event script over a ground truth, comparing the warm
/// per-origination states against cold fixpoints at every timeline point
/// (initial world included).  Mirrors the Timeline in core/spec_verify.cc:
/// states are cold-converged on first use, re-synced with
/// Perturbation::edge_delta when the failure set drifted, and dropped on
/// withdraw.
void replay_and_compare(const core::GroundTruth& truth,
                        const std::vector<core::SpecEvent>& events,
                        const PropagationOptions& options, const char* label,
                        std::size_t max_compared_originations = 64) {
  const DeltaEngine engine(truth.topo.graph, truth.gen.policies, options);
  const FlatSimContext& context = engine.context();
  FlatScratch scratch;

  FailedEdges failed;
  std::vector<Origination> active = truth.originations;
  using StateKey = std::pair<std::uint64_t, std::uint32_t>;
  const auto key_of = [](const Origination& o) {
    return StateKey{(static_cast<std::uint64_t>(o.prefix.network()) << 8) |
                        o.prefix.length(),
                    o.origin.value()};
  };
  std::map<StateKey, std::unique_ptr<DeltaState>> states;

  const auto compare_point = [&](std::size_t point) {
    // Strided cap so huge origination sets stay testable; the stride still
    // crosses tiers and unit flavors.
    const std::size_t stride =
        active.size() <= max_compared_originations
            ? 1
            : active.size() / max_compared_originations + 1;
    for (std::size_t i = 0; i < active.size(); i += stride) {
      const Origination& o = active[i];
      std::unique_ptr<DeltaState>& slot = states[key_of(o)];
      if (slot == nullptr) {
        slot = std::make_unique<DeltaState>();
        engine.converge(o, &failed, *slot, scratch);
      } else {
        const Perturbation delta =
            Perturbation::edge_delta(slot->failed(), failed);
        if (!delta.empty()) engine.apply(*slot, delta, scratch);
      }
      const PrefixRouting cold =
          compute_prefix_exact(context, o, &failed, options, scratch);
      expect_same_best(
          engine.materialize(*slot), cold,
          (std::string(label) + " point " + std::to_string(point)).c_str());
    }
  };

  compare_point(0);
  for (std::size_t k = 0; k < events.size(); ++k) {
    const core::SpecEvent& event = events[k];
    switch (event.kind) {
      case core::SpecEvent::Kind::kWithdraw:
        for (auto it = active.begin(); it != active.end();) {
          if (it->prefix == event.prefix && it->origin == AsNumber(event.as_a)) {
            states.erase(key_of(*it));
            it = active.erase(it);
          } else {
            ++it;
          }
        }
        break;
      case core::SpecEvent::Kind::kAnnounce:
        active.push_back({event.prefix, AsNumber(event.as_a)});
        break;
      case core::SpecEvent::Kind::kFailLink:
        failed.fail(AsNumber(event.as_a), AsNumber(event.as_b));
        break;
      case core::SpecEvent::Kind::kRestoreLink:
        failed.restore(AsNumber(event.as_a), AsNumber(event.as_b));
        break;
    }
    compare_point(k + 1);
  }
}

TEST(DeltaEquivalence, ScenarioCorpusEventScriptsMatchCold) {
  std::size_t specs_seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(BGPOLICY_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scn") continue;
    ++specs_seen;
    const core::ScenarioSpec spec =
        core::ScenarioSpec::parse_file(entry.path());
    const core::GroundTruth truth = core::synthesize(spec.scenario);
    replay_and_compare(truth, spec.events, spec.scenario.propagation,
                       entry.path().filename().string().c_str());
  }
  EXPECT_GE(specs_seen, 6u) << "scenario corpus shrank";
}

TEST(DeltaEquivalence, RandomizedFailRestoreScheduleMatchesCold) {
  const core::Scenario scenario = core::Scenario::small(7);
  const core::GroundTruth truth = core::synthesize(scenario);
  ASSERT_FALSE(truth.topo.graph.edges().empty());

  // A synthetic event script: each step flips one random session's health.
  util::Rng rng(20260808);
  const auto edges = truth.topo.graph.edges();
  FailedEdges scripted;
  std::vector<core::SpecEvent> events;
  for (std::size_t step = 0; step < 24; ++step) {
    const auto& edge = edges[rng.index(edges.size())];
    core::SpecEvent event;
    event.kind = scripted.is_failed(edge.a, edge.b)
                     ? core::SpecEvent::Kind::kRestoreLink
                     : core::SpecEvent::Kind::kFailLink;
    event.as_a = edge.a.value();
    event.as_b = edge.b.value();
    if (event.kind == core::SpecEvent::Kind::kFailLink) {
      scripted.fail(edge.a, edge.b);
    } else {
      scripted.restore(edge.a, edge.b);
    }
    events.push_back(event);
  }

  replay_and_compare(truth, events, scenario.propagation,
                     "randomized-small(7)",
                     /*max_compared_originations=*/16);
}

TEST(DeltaEquivalence, ChurnWatchedTablesIdenticalAcrossModesAndThreads) {
  const core::Scenario scenario = core::Scenario::small(7);
  const core::GroundTruth truth = core::synthesize(scenario);
  const auto ases = truth.topo.graph.ases();
  ASSERT_GE(ases.size(), 3u);
  const std::vector<AsNumber> watch = {ases[0], ases[ases.size() / 2],
                                       ases[ases.size() - 1]};

  using Tables = std::vector<std::unordered_map<bgp::Prefix, bgp::Route>>;
  const auto run = [&](bool incremental, int threads) {
    ChurnParams params;
    params.seed = 99;
    params.flip_fraction = 0.25;
    params.incremental = incremental;
    params.propagation = scenario.propagation;
    params.propagation.threads = threads;
    ChurnSimulator churn(truth.topo.graph, truth.gen.policies,
                         truth.originations, truth.gen.truth, watch, params);
    churn.run_initial();
    std::vector<Tables> steps;
    for (int step = 0; step < 4; ++step) {
      churn.step();
      Tables tables;
      for (const AsNumber as : watch) tables.push_back(churn.watched(as));
      steps.push_back(std::move(tables));
    }
    if (incremental) {
      EXPECT_GT(churn.warm_state_count(), 0u);
    }
    return steps;
  };

  const auto cold_reference = run(/*incremental=*/false, /*threads=*/1);
  for (const int threads : {1, 2, 4, 8}) {
    const auto warm = run(/*incremental=*/true, threads);
    ASSERT_EQ(warm.size(), cold_reference.size());
    for (std::size_t step = 0; step < warm.size(); ++step) {
      EXPECT_EQ(warm[step], cold_reference[step])
          << "incremental churn diverged from cold at step " << step
          << " with " << threads << " threads";
    }
  }
}

TEST(DeltaEquivalence, Internet2002SampledFailuresMatchCold) {
  if (sanitizer_build()) {
    GTEST_SKIP() << "internet2002 sample is too slow under sanitizers";
  }
  const core::Scenario scenario = core::Scenario::internet2002();
  const core::GroundTruth truth = core::synthesize(scenario);
  ASSERT_FALSE(truth.originations.empty());

  const DeltaEngine engine(truth.topo.graph, truth.gen.policies,
                           scenario.propagation);
  const FlatSimContext& context = engine.context();
  FlatScratch scratch;

  std::vector<std::size_t> picks = {0, truth.originations.size() - 1};
  for (std::size_t i = 0; i < truth.originations.size();
       i += truth.originations.size() / 8 + 1) {
    picks.push_back(i);
  }

  for (const std::size_t i : picks) {
    const Origination& origination = truth.originations[i];
    DeltaState state;
    engine.converge(origination, nullptr, state, scratch);

    // Fail the origin's first session, then restore it: both worlds must
    // match their cold counterparts.
    const AsNumber neighbor =
        truth.topo.graph.neighbors(origination.origin).front().as;
    Perturbation fail;
    fail.fail_edges.emplace_back(origination.origin, neighbor);
    engine.apply(state, fail, scratch);
    FailedEdges failed;
    failed.fail(origination.origin, neighbor);
    expect_same_best(engine.materialize(state),
                     compute_prefix_exact(context, origination, &failed,
                                          scenario.propagation, scratch),
                     "internet2002 failed");

    Perturbation restore;
    restore.restore_edges.emplace_back(origination.origin, neighbor);
    engine.apply(state, restore, scratch);
    expect_same_best(engine.materialize(state),
                     compute_prefix_exact(context, origination, nullptr,
                                          scenario.propagation, scratch),
                     "internet2002 restored");
  }
}

}  // namespace
}  // namespace bgpolicy::sim
