#include "sim/simulation.h"

#include "sim/flat_engine.h"
#include "util/parallel.h"

namespace bgpolicy::sim {

void record_prefix(const PropagationEngine& engine, const PrefixRouting& state,
                   const VantageSpec& spec, SimResult& result) {
  const auto& origination = state.origination;

  for (const AsNumber peer : spec.collector_peers) {
    const bgp::Route* best = state.best_at(peer);
    if (best == nullptr) continue;
    bgp::Route record = *best;
    record.path = best->path.prepend(peer);
    record.learned_from = peer;
    record.local_pref = 100;  // LOCAL_PREF is not transmitted over eBGP
    record.router_id = peer.value();
    result.collector.add(std::move(record));
  }

  for (const AsNumber lg : spec.looking_glass) {
    auto& table = result.looking_glass[lg];
    for (const auto& n : engine.graph().neighbors(lg)) {
      auto received =
          engine.route_as_received(n.as, state.best_at(n.as), origination, lg);
      if (received) table.add(std::move(*received));
    }
  }

  for (const AsNumber as : spec.best_only) {
    const bgp::Route* best = state.best_at(as);
    if (best != nullptr) result.best_only[as].add(*best);
  }
}

SimResult init_sim_result(const VantageSpec& spec) {
  SimResult result;
  result.collector = bgp::BgpTable(spec.collector_as);
  for (const AsNumber lg : spec.looking_glass) {
    result.looking_glass.emplace(lg, bgp::BgpTable(lg));
  }
  for (const AsNumber as : spec.best_only) {
    result.best_only.emplace(as, bgp::BgpTable(as));
  }
  return result;
}

namespace {

/// Replays every route of `from` into `to` in first-insertion prefix order
/// (routes in stored order within a prefix) — the add-sequence of the
/// sequential program restricted to the chunk's originations.
void replay_table(bgp::BgpTable& to, const bgp::BgpTable& from) {
  from.for_each([&](const bgp::Prefix&, std::span<const bgp::Route> routes) {
    for (const bgp::Route& route : routes) to.add(route);
  });
}

}  // namespace

void merge_sim_chunk(SimResult& into, const SimResult& chunk) {
  replay_table(into.collector, chunk.collector);
  for (auto& [as, table] : into.looking_glass) {
    const auto it = chunk.looking_glass.find(as);
    if (it != chunk.looking_glass.end()) replay_table(table, it->second);
  }
  for (auto& [as, table] : into.best_only) {
    const auto it = chunk.best_only.find(as);
    if (it != chunk.best_only.end()) replay_table(table, it->second);
  }
  into.origination_count += chunk.origination_count;
  into.unconverged_prefixes += chunk.unconverged_prefixes;
  into.process_events += chunk.process_events;
}

SimResult run_simulation(const topo::AsGraph& graph, const PolicySet& policies,
                         std::span<const Origination> originations,
                         const VantageSpec& spec,
                         const PropagationOptions& options,
                         const util::Executor* executor) {
  PropagationEngine engine(graph, policies);
  SimResult result = init_sim_result(spec);
  // One shared read-only flat context; workers lease warmed scratches from
  // the pool per prefix, so scratch memory scales with worker count.
  const FlatSimContext context(graph, policies);
  FlatScratchPool scratches;

  const auto record = [&](const PrefixRouting& state) {
    if (!state.converged) ++result.unconverged_prefixes;
    result.process_events += state.process_events;
    record_prefix(engine, state, spec, result);
    ++result.origination_count;
  };

  // Sharded execution: workers compute prefix fixpoints into index-addressed
  // slots which the calling thread merges in origination order, so every
  // table and counter is byte-identical to the sequential run (see
  // util::shard_and_merge).
  std::unique_ptr<util::Executor> owned;
  const util::Executor& exec =
      util::executor_or(executor, options.threads, originations.size(), owned);
  util::shard_and_merge(
      exec, originations.size(),
      [&](std::size_t i) {
        const auto lease = scratches.acquire();
        return compute_prefix_flat(context, originations[i], nullptr, options,
                                   *lease);
      },
      [&](std::size_t, const PrefixRouting& state) { record(state); });
  return result;
}

}  // namespace bgpolicy::sim
