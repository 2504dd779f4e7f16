// Full-Internet simulation runs: propagate every origination and record the
// routing tables the paper's data sources would have exposed.
//
//  * A RouteViews-style collector table: each collector peer contributes its
//    best route per prefix; AS paths visible, local preference not
//    (reset to the default 100).
//  * Looking-glass tables: the full Adj-RIB-In of selected ASes with true
//    local preference and communities (the paper's 15 LG vantages).
//  * Best-only tables: just the converged best route per prefix at selected
//    ASes (enough for the SA-prefix algorithm, per the paper's observation
//    in Section 5.1.1 that best routes suffice).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/table.h"
#include "sim/policy.h"
#include "sim/propagation.h"
#include "topology/as_graph.h"
#include "util/parallel.h"

namespace bgpolicy::sim {

class FlatSimContext;
class PrefixSeeds;

struct VantageSpec {
  /// Pseudo-AS number for the collector (the paper's Oregon view, AS6664).
  AsNumber collector_as{6664};
  std::vector<AsNumber> collector_peers;
  std::vector<AsNumber> looking_glass;
  std::vector<AsNumber> best_only;
};

template <typename V>
constexpr void fields(V& v, VantageSpec& s) {
  v("collector_as", s.collector_as);
  v("collector_peers", s.collector_peers);
  v("looking_glass", s.looking_glass);
  v("best_only", s.best_only);
}
static_assert(util::lists_every_member<VantageSpec>());

struct SimResult {
  bgp::BgpTable collector;
  std::unordered_map<AsNumber, bgp::BgpTable> looking_glass;
  std::unordered_map<AsNumber, bgp::BgpTable> best_only;
  std::size_t origination_count = 0;
  std::size_t unconverged_prefixes = 0;
  /// Fixpoint events summed over the originations, each counting its own
  /// run in the batch runner (`converge_batch`): the pruned wave that
  /// derived it from its origin's prefix-agnostic base where the static
  /// wedgie oracle proved it unique, its exact run elsewhere.  The bases
  /// belong to no origination and are not counted (how many run depends on
  /// where the list is cut), so the count is the same at any thread count
  /// and chunk size, and far smaller than the reference engine's
  /// trajectory while the tables are equal.
  std::size_t process_events = 0;
};

/// SimResult's field list (util/fields.h); the artifact codec stores each
/// table as its columnar blob (io/binary_table.h).
template <typename V>
constexpr void fields(V& v, SimResult& r) {
  v("collector", r.collector);
  v("looking_glass", r.looking_glass);
  v("best_only", r.best_only);
  v("origination_count", r.origination_count);
  v("unconverged_prefixes", r.unconverged_prefixes);
  v("process_events", r.process_events);
}
static_assert(util::lists_every_member<SimResult>());

/// Runs the propagation engine over every origination and records the
/// requested vantage tables.  The batch runner (`converge_batch`,
/// sim/flat_engine.h) cuts the list into contiguous ranges across
/// `options.threads` workers (0 = hardware concurrency, 1 = one range on
/// the calling thread), converges each origination in its range's scratch
/// and builds its vantage rows straight from the flat state into the
/// range's own tables — collector and best-only rows from the best
/// columns, looking-glass rows from the fixpoint's own per-arc offer code
/// (`flat_adj_rib_in`).  The calling thread merges the ranges in order
/// (`merge_sim_chunk`), so the output — tables and counters — is
/// byte-identical for every thread count, and the tables to the reference
/// recorder's (tests/testing/propagation_reference.h).  When `executor` is
/// given it supplies the (long-lived, shared) worker pool and
/// `options.threads` is ignored; otherwise a one-shot pool sized from the
/// knob is used.
[[nodiscard]] SimResult run_simulation(const topo::AsGraph& graph,
                                       const PolicySet& policies,
                                       std::span<const Origination> originations,
                                       const VantageSpec& spec,
                                       const PropagationOptions& options = {},
                                       const util::Executor* executor = nullptr);

/// The same run over a caller-built context and seed lists of the same
/// (graph, policies), so a caller that runs one origination list in
/// several slices builds them once: Experiment's Simulate chunks.
[[nodiscard]] SimResult run_simulation(const FlatSimContext& context,
                                       const PrefixSeeds& seeds,
                                       std::span<const Origination> originations,
                                       const VantageSpec& spec,
                                       const PropagationOptions& options = {},
                                       const util::Executor* executor = nullptr);

/// An empty SimResult with every vantage table pre-created (owners set) —
/// the shared starting state of run_simulation and chunk merging, so
/// partial and merged results agree byte-for-byte on table identity.
[[nodiscard]] SimResult init_sim_result(const VantageSpec& spec);

/// Appends a chunk's recordings to `into` — a chunk being run_simulation
/// over one contiguous slice of the origination list, the Simulate unit
/// the staged task graph schedules and the artifact store persists
/// individually (core/experiment.h).  Merging chunks in range order
/// reproduces the sequential run byte-for-byte: chunks partition the
/// origination list contiguously, tables iterate in first-insertion order,
/// and BgpTable::append concatenates a chunk's rows with add()'s
/// per-(prefix, neighbor) implicit withdraw wherever a prefix appears
/// again — so first-insertion prefix order, per-prefix row order, and all
/// counters match the unchunked program at any chunk size.
void merge_sim_chunk(SimResult& into, SimResult&& chunk);

}  // namespace bgpolicy::sim
