// Random worlds against the static wedgie oracle (sim/flat_engine.h), the
// proof behind every pruned fixpoint.  For every origin of every world,
// healthy and under the world's failure set, the order the oracle chooses
// (`converge_cold`) must land on the exact order's routes
// (`converge_exact`) without discarding its pruned run, and the exact order
// must equal the reference engine event for event.  A delta state
// converged healthy, then failed and restored, must equal the exact cold
// run of each world too, since its frontier waves prune on the same
// verdict.  So must the batch runner (`converge_range` over the world's
// whole origination list), which derives each proven-unique origination
// from its origin's prefix-agnostic base by a pruned wave seeded where
// policy names the prefix, and it may discard no wave.  The worlds
// (tests/testing/random_world.h) draw the atypical preferences, pins and
// filters that break the Gao-Rexford condition the oracle checks, and
// give some origins several prefixes that policy tells apart.  A mismatch
// names the seed and prints the world in `.scn` syntax.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/delta_engine.h"
#include "sim/flat_engine.h"
#include "sim/propagation.h"
#include "testing/fixtures.h"
#include "testing/propagation_reference.h"
#include "testing/random_world.h"

namespace bgpolicy::sim {
namespace {

/// Fixed budget: every seed in [1, kSeeds] is one world.
constexpr std::uint64_t kSeeds = 300;

/// The first best-route difference between two runs, or empty.
std::string first_difference(const PrefixRouting& got,
                             const PrefixRouting& want) {
  for (const auto& [as, route] : want.best) {
    const bgp::Route* at = got.best_at(as);
    if (at == nullptr) return util::to_string(as) + " lost its route";
    if (!(*at == route)) {
      if (at->path == route.path) {
        return util::to_string(as) + " holds " + at->to_string() +
               " instead of " + route.to_string();
      }
      return util::to_string(as) + " routes via " +
             at->path.to_string() + " instead of " + route.path.to_string();
    }
  }
  if (got.best.size() != want.best.size()) return "an extra route";
  return {};
}

TEST(OracleFuzz, ChosenOrderMatchesExactOrderOnRandomWorlds) {
  std::size_t pruned = 0;
  std::size_t exact_runs = 0;
  std::size_t discarded = 0;
  std::size_t waves = 0;
  std::size_t failing_seeds = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const testing::RandomWorld w = testing::random_world(seed);
    const FlatSimContext context(w.graph, w.policies);
    const DeltaEngine engine(w.graph, w.policies, {});
    FlatScratch scratch;
    Perturbation fail;
    Perturbation restore;
    for (const auto& [a, b] : w.failed.edges()) {
      fail.fail_edges.emplace_back(a, b);
      restore.restore_edges.emplace_back(a, b);
    }

    std::string problem;
    const auto check = [&](const std::string& what, const std::string& diff) {
      if (problem.empty() && !diff.empty()) problem = what + ": " + diff;
    };
    std::vector<PrefixRouting> healthy;
    for (const Origination& o : w.originations) {
      const std::string from = " from " + util::to_string(o.origin) + " of " +
                               o.prefix.to_string();
      PrefixRouting exact_of[2];
      for (const bool failed : {false, true}) {
        const FailedEdges* failures = failed ? &w.failed : nullptr;
        const std::string where = (failed ? "failed" : "healthy") + from;
        const PrefixRouting exact = testing::compute_prefix_exact(
            context, o, failures, {}, scratch);
        const PrefixRouting reference =
            testing::compute_prefix_reference(w.graph, w.policies, o,
                                              failures);
        check("exact order vs reference, " + where,
              first_difference(exact, reference));
        if (exact.process_events != reference.process_events) {
          check("exact order vs reference, " + where,
                "events " + std::to_string(exact.process_events) + " vs " +
                    std::to_string(reference.process_events));
        }

        const FixpointStats stats =
            converge_cold(context, o, failures, {}, scratch, scratch.state());
        (stats.order == FixpointOrder::kPruned ? pruned : exact_runs) += 1;
        // A proven-unique origination never exercises an atypical
        // preference or a dispute wheel, so its pruned run is kept: a
        // discard means the proof missed a rival the fallback caught.
        if (stats.pruned_discarded) {
          ++discarded;
          check("pruned run discarded, " + where,
                std::to_string(stats.inversion_selections) +
                    " inversion selections");
        }
        check("chosen order vs exact order, " + where,
              first_difference(materialize_routing(context, o,
                                                   scratch.state(),
                                                   stats.converged,
                                                   stats.events),
                               exact));
        exact_of[failed ? 1 : 0] = exact;
      }
      healthy.push_back(exact_of[0]);

      DeltaState state;
      engine.converge(o, nullptr, state, scratch);
      check("delta converge vs exact, healthy" + from,
            first_difference(engine.materialize(state), exact_of[0]));
      if (fail.empty()) continue;
      (void)engine.apply(state, fail, scratch);
      check("delta wave vs exact, failed" + from,
            first_difference(engine.materialize(state), exact_of[1]));
      (void)engine.apply(state, restore, scratch);
      check("delta wave vs exact, restored" + from,
            first_difference(engine.materialize(state), exact_of[0]));
    }

    const BatchStats batch = converge_range(
        context, PrefixSeeds(context), w.originations,
        {0, w.originations.size()}, {}, scratch,
        [&](std::size_t i, const FixpointStats& stats,
            FlatRoutingState& state) {
          const Origination& o = w.originations[i];
          const std::string where = "healthy from " +
                                    util::to_string(o.origin) + " of " +
                                    o.prefix.to_string();
          if (stats.pruned_discarded) {
            check("batch wave discarded, " + where,
                  std::to_string(stats.inversion_selections) +
                      " inversion selections");
          }
          check("batch vs exact order, " + where,
                first_difference(materialize_routing(context, o, state,
                                                     stats.converged,
                                                     stats.events),
                                 healthy[i]));
        });
    discarded += batch.discarded;
    waves += batch.waves;
    if (!problem.empty()) {
      ++failing_seeds;
      ADD_FAILURE() << "seed " << seed << ": " << problem << "\n"
                    << w.describe();
    }
  }
  EXPECT_EQ(failing_seeds, 0u);
  EXPECT_EQ(discarded, 0u);
  // Both verdicts are exercised, so neither side of the proof is vacuous.
  EXPECT_GT(pruned, kSeeds);
  EXPECT_GT(exact_runs, kSeeds);
  EXPECT_GT(waves, kSeeds);
  RecordProperty("pruned_runs", static_cast<int>(pruned));
  RecordProperty("exact_runs", static_cast<int>(exact_runs));
  RecordProperty("batch_waves", static_cast<int>(waves));
}

}  // namespace
}  // namespace bgpolicy::sim
