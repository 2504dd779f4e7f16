#include "sim/simulation.h"

#include <optional>
#include <stdexcept>

#include "sim/flat_engine.h"
#include "util/parallel.h"

namespace bgpolicy::sim {

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

/// Records one converged origination into `chunk` — what the reference
/// recorder would add, in the same order — straight from the flat state.
void record_rows(const FlatSimContext& context, const Origination& origination,
                 const FixpointStats& stats, const VantageSpec& spec,
                 FlatRoutingState& state, SimResult& chunk) {
  if (!stats.converged) ++chunk.unconverged_prefixes;
  chunk.process_events += stats.events;
  for (const AsNumber peer : spec.collector_peers) {
    std::optional<bgp::Route> row =
        flat_route_at(context, origination, state, peer);
    if (!row) continue;
    row->path = row->path.prepend(peer);
    row->learned_from = peer;
    row->local_pref = 100;  // LOCAL_PREF is not transmitted over eBGP
    row->router_id = peer.value();
    record(chunk.collector, std::move(*row));
  }
  for (const AsNumber lg : spec.looking_glass) {
    bgp::BgpTable& table = chunk.looking_glass.at(lg);
    for (bgp::Route& route : flat_adj_rib_in(context, origination, state, lg)) {
      record(table, std::move(route));
    }
  }
  for (const AsNumber as : spec.best_only) {
    if (std::optional<bgp::Route> row =
            flat_route_at(context, origination, state, as)) {
      record(chunk.best_only.at(as), std::move(*row));
    }
  }
  ++chunk.origination_count;
}

}  // namespace

SimResult run_simulation(const topo::AsGraph& graph, const PolicySet& policies,
                         std::span<const Origination> originations,
                         const VantageSpec& spec,
                         const PropagationOptions& options,
                         const util::Executor* executor) {
  const FlatSimContext context(graph, policies);
  return run_simulation(context, PrefixSeeds(context), originations, spec,
                        options, executor);
}

SimResult run_simulation(const FlatSimContext& context,
                         const PrefixSeeds& seeds,
                         std::span<const Origination> originations,
                         const VantageSpec& spec,
                         const PropagationOptions& options,
                         const util::Executor* executor) {
  // Each range records into its own tables; merging them in range order
  // is the sequential run byte for byte (merge_sim_chunk), and the first
  // range's tables are taken as they are.
  SimResult result = init_sim_result(spec);
  bool first = true;
  FlatScratchPool scratches;
  std::unique_ptr<util::Executor> owned;
  const util::Executor& exec =
      util::executor_or(executor, options.threads, originations.size(), owned);
  converge_batch(
      context, seeds, originations, options,
      originations.size() > 1 ? exec.pool() : nullptr, scratches,
      [&] { return init_sim_result(spec); },
      [&](SimResult& chunk, std::size_t i, const FixpointStats& stats,
          FlatRoutingState& state) {
        record_rows(context, originations[i], stats, spec, state, chunk);
      },
      [&](SimResult& chunk) {
        if (first) {
          result = std::move(chunk);
          first = false;
        } else {
          merge_sim_chunk(result, std::move(chunk));
        }
      });
  return result;
}

}  // namespace bgpolicy::sim
