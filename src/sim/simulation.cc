#include "sim/simulation.h"

#include <optional>
#include <stdexcept>

#include "sim/flat_engine.h"
#include "util/parallel.h"

namespace bgpolicy::sim {

namespace {

/// Adds one recorded row.  A table keeps no router id, eBGP flag or IGP
/// metric, and reports router id = learned_from, eBGP and IGP metric 0 for
/// every row (bgp/table.h): a recorded row must already carry exactly
/// those.
void record(bgp::BgpTable& table, bgp::Route&& route) {
  if (route.router_id != route.learned_from.value() || !route.from_ebgp ||
      route.igp_metric != 0) {
    throw std::logic_error(
        "recorded row carries a router id, eBGP flag or IGP metric its "
        "table would not keep");
  }
  table.add(std::move(route));
}

}  // namespace

void record_prefix(const PropagationEngine& engine, const PrefixRouting& state,
                   const VantageSpec& spec, SimResult& result) {
  const auto& origination = state.origination;

  for (const AsNumber peer : spec.collector_peers) {
    const bgp::Route* best = state.best_at(peer);
    if (best == nullptr) continue;
    bgp::Route row = *best;
    row.path = best->path.prepend(peer);
    row.learned_from = peer;
    row.local_pref = 100;  // LOCAL_PREF is not transmitted over eBGP
    row.router_id = peer.value();
    record(result.collector, std::move(row));
  }

  for (const AsNumber lg : spec.looking_glass) {
    auto& table = result.looking_glass[lg];
    for (const auto& n : engine.graph().neighbors(lg)) {
      auto received =
          engine.route_as_received(n.as, state.best_at(n.as), origination, lg);
      if (received) record(table, std::move(*received));
    }
  }

  for (const AsNumber as : spec.best_only) {
    const bgp::Route* best = state.best_at(as);
    if (best != nullptr) record(result.best_only[as], bgp::Route(*best));
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

void merge_sim_chunk(SimResult& into, SimResult&& chunk) {
  into.collector.append(chunk.collector);
  for (auto& [as, table] : into.looking_glass) {
    const auto it = chunk.looking_glass.find(as);
    if (it != chunk.looking_glass.end()) table.append(it->second);
  }
  for (auto& [as, table] : into.best_only) {
    const auto it = chunk.best_only.find(as);
    if (it != chunk.best_only.end()) table.append(it->second);
  }
  into.origination_count += chunk.origination_count;
  into.unconverged_prefixes += chunk.unconverged_prefixes;
  into.process_events += chunk.process_events;
}

namespace {

/// One origination's recordings — what record_prefix would add, in the
/// same order — built on a worker straight from the converged flat state.
struct PrefixRows {
  FixpointStats stats;
  std::vector<bgp::Route> collector;
  std::vector<std::vector<bgp::Route>> looking_glass;  // per spec entry
  std::vector<std::optional<bgp::Route>> best_only;    // per spec entry
};

PrefixRows record_rows(const FlatSimContext& context,
                       const Origination& origination,
                       const PropagationOptions& options,
                       const VantageSpec& spec, FlatScratch& scratch) {
  PrefixRows rows;
  FlatRoutingState& state = scratch.state();
  rows.stats =
      converge_cold(context, origination, nullptr, options, scratch, state);

  rows.collector.reserve(spec.collector_peers.size());
  for (const AsNumber peer : spec.collector_peers) {
    std::optional<bgp::Route> record =
        flat_route_at(context, origination, state, peer);
    if (!record) continue;
    record->path = record->path.prepend(peer);
    record->learned_from = peer;
    record->local_pref = 100;  // LOCAL_PREF is not transmitted over eBGP
    record->router_id = peer.value();
    rows.collector.push_back(std::move(*record));
  }

  rows.looking_glass.reserve(spec.looking_glass.size());
  for (const AsNumber lg : spec.looking_glass) {
    rows.looking_glass.push_back(
        flat_adj_rib_in(context, origination, state, lg));
  }

  rows.best_only.reserve(spec.best_only.size());
  for (const AsNumber as : spec.best_only) {
    rows.best_only.push_back(flat_route_at(context, origination, state, as));
  }
  return rows;
}

}  // namespace

SimResult run_simulation(const topo::AsGraph& graph, const PolicySet& policies,
                         std::span<const Origination> originations,
                         const VantageSpec& spec,
                         const PropagationOptions& options,
                         const util::Executor* executor) {
  SimResult result = init_sim_result(spec);
  // One shared read-only flat context; workers lease warmed scratches from
  // the pool per prefix, so scratch memory scales with worker count.
  const FlatSimContext context(graph, policies);
  FlatScratchPool scratches;

  // Sharded execution: workers converge each prefix and build its rows
  // into index-addressed slots; the calling thread only appends them, one
  // prefix's rows at a time in origination order, through BgpTable::add
  // (implicit withdraw per neighbor, exactly record_prefix's add
  // sequence), so every table and
  // counter is byte-identical to the sequential run (see
  // util::shard_and_merge).
  std::unique_ptr<util::Executor> owned;
  const util::Executor& exec =
      util::executor_or(executor, options.threads, originations.size(), owned);
  util::shard_and_merge(
      exec, originations.size(),
      [&](std::size_t i) {
        const auto lease = scratches.acquire();
        return record_rows(context, originations[i], options, spec, *lease);
      },
      [&](std::size_t, PrefixRows& rows) {
        if (!rows.stats.converged) ++result.unconverged_prefixes;
        result.process_events += rows.stats.events;
        for (bgp::Route& route : rows.collector) {
          record(result.collector, std::move(route));
        }
        for (std::size_t j = 0; j < spec.looking_glass.size(); ++j) {
          bgp::BgpTable& table = result.looking_glass[spec.looking_glass[j]];
          for (bgp::Route& route : rows.looking_glass[j]) {
            record(table, std::move(route));
          }
        }
        for (std::size_t j = 0; j < spec.best_only.size(); ++j) {
          if (rows.best_only[j]) {
            record(result.best_only[spec.best_only[j]],
                   std::move(*rows.best_only[j]));
          }
        }
        ++result.origination_count;
      });
  return result;
}

}  // namespace bgpolicy::sim
