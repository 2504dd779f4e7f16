#include "core/persistence.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "topology/customer_cone.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace bgpolicy::core {

namespace {

/// The slice of one watched-table route the SA analysis needs — recorded
/// per step while churn runs so snapshots can be analyzed after (and in
/// parallel with respect to) each other.
struct RouteObservation {
  bgp::Prefix prefix;
  AsNumber origin;
  AsNumber learned_from;
};

/// Per-snapshot analysis output: the Fig. 6 counters plus the (prefix,
/// was-SA) pairs feeding the cross-step prefix histories.
struct SnapshotAnalysis {
  Snapshot snap;
  std::vector<std::pair<bgp::Prefix, bool>> customer_observations;
};

}  // namespace

PersistenceStudy run_persistence_study(sim::ChurnSimulator& churn,
                                       AsNumber provider,
                                       const topo::AsGraph& annotated,
                                       const RelationshipOracle& rels,
                                       std::size_t steps, std::size_t threads,
                                       const util::Executor* executor) {
  PersistenceStudy out;
  out.provider = provider;

  // One executor for the whole study: churn re-propagation below and the
  // sharded snapshot analysis reuse the same workers.  The simulator only
  // borrows it — unhook before returning (on every path), since `exec` may
  // be the function-local one-shot.
  std::unique_ptr<util::Executor> owned;
  const util::Executor& exec =
      util::executor_or(executor, threads, std::max<std::size_t>(steps, 1),
                        owned);
  churn.set_executor(&exec);
  struct ExecutorLease {
    sim::ChurnSimulator& churn;
    ~ExecutorLease() { churn.set_executor(nullptr); }
  } lease{churn};

  // Phase 1 (sequential): drive the churn simulator and record the compact
  // observation list per step.  Stepping mutates the simulator, so this
  // phase cannot shard; everything downstream of it can.
  std::vector<std::vector<RouteObservation>> recorded;
  recorded.reserve(steps);
  const auto record = [&] {
    std::vector<RouteObservation> observations;
    const auto& watched = churn.watched(provider);
    observations.reserve(watched.size());
    for (const auto& [prefix, route] : watched) {
      observations.push_back({prefix, route.origin_as(), route.learned_from});
    }
    recorded.push_back(std::move(observations));
  };
  churn.run_initial();
  record();
  for (std::size_t step = 1; step < steps; ++step) {
    churn.step();
    record();
  }

  // The provider's customer cone, walked once; the sharded analysis only
  // reads it.
  const topo::CustomerCone cone(annotated, provider);

  // Phase 2 (sharded over snapshots): each step's SA analysis is a pure
  // function of its recorded observations; snapshots merge in step order.
  struct PrefixHistory {
    std::size_t present = 0;
    std::size_t sa = 0;
  };
  std::unordered_map<bgp::Prefix, PrefixHistory> history;
  out.series.reserve(recorded.size());
  util::shard_and_merge(
      exec, recorded.size(),
      [&](std::size_t step) {
        SnapshotAnalysis analysis;
        analysis.snap.step = step;
        for (const RouteObservation& obs : recorded[step]) {
          ++analysis.snap.total_prefixes;
          if (!cone.contains(obs.origin)) continue;
          ++analysis.snap.customer_prefixes;
          const bool sa = rels(provider, obs.learned_from) != RelKind::kCustomer;
          if (sa) ++analysis.snap.sa_prefixes;
          analysis.customer_observations.emplace_back(obs.prefix, sa);
        }
        return analysis;
      },
      [&](std::size_t, SnapshotAnalysis& analysis) {
        out.series.push_back(analysis.snap);
        for (const auto& [prefix, sa] : analysis.customer_observations) {
          PrefixHistory& h = history[prefix];
          ++h.present;
          if (sa) ++h.sa;
        }
      });

  // Fig. 7: uptime histogram over ever-SA prefixes.
  std::map<std::size_t, UptimeBucket> buckets;
  for (const auto& [prefix, h] : history) {
    if (h.sa == 0) continue;
    ++out.ever_sa;
    UptimeBucket& bucket = buckets[h.present];
    bucket.uptime = h.present;
    if (h.sa == h.present) {
      ++bucket.remaining_sa;
    } else {
      ++bucket.shifted;
      ++out.shifted_total;
    }
  }
  out.uptime_histogram.reserve(buckets.size());
  for (const auto& [uptime, bucket] : buckets) {
    out.uptime_histogram.push_back(bucket);
  }
  out.percent_shifted = util::percent(out.shifted_total, out.ever_sa);
  return out;
}

std::string canonical_serialize(const PersistenceStudy& study) {
  std::string out = "provider=" + util::to_string(study.provider) + "\n";
  for (const Snapshot& snap : study.series) {
    out += "step=" + std::to_string(snap.step) +
           " total=" + std::to_string(snap.total_prefixes) +
           " customer=" + std::to_string(snap.customer_prefixes) +
           " sa=" + std::to_string(snap.sa_prefixes) + "\n";
  }
  for (const UptimeBucket& bucket : study.uptime_histogram) {
    out += "uptime=" + std::to_string(bucket.uptime) +
           " remaining=" + std::to_string(bucket.remaining_sa) +
           " shifted=" + std::to_string(bucket.shifted) + "\n";
  }
  out += "ever_sa=" + std::to_string(study.ever_sa) +
         " shifted_total=" + std::to_string(study.shifted_total) + "\n";
  return out;
}

}  // namespace bgpolicy::core
