#include "testing/propagation_reference.h"

#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/decision.h"
#include "util/ensure.h"

namespace bgpolicy::testing {

using sim::AsPolicy;
using sim::ExportAction;
using sim::ExportRule;
using sim::Origination;
using sim::PrefixRouting;
using topo::RelKind;

PropagationEngine::PropagationEngine(const topo::AsGraph& graph,
                                     const sim::PolicySet& policies,
                                     const sim::FailedEdges* failures)
    : graph_(&graph), policies_(&policies), failures_(failures) {}

bgp::Route PropagationEngine::self_route(
    const Origination& origination) const {
  bgp::Route route;
  route.prefix = origination.prefix;
  route.learned_from = origination.origin;
  route.local_pref = sim::kSelfLocalPref;
  route.router_id = origination.origin.value();
  return route;
}

std::optional<bgp::Route> PropagationEngine::exported_route(
    AsNumber sender, const bgp::Route& sender_best,
    const Origination& origination, AsNumber receiver,
    RelKind receiver_rel) const {
  if (failures_ != nullptr && failures_->is_failed(sender, receiver)) {
    return std::nullopt;  // session down
  }

  // Gao-Rexford relationship rules (Section 2.2.2): self-originated and
  // customer-learned routes go to everyone; peer- and provider-learned
  // routes go to customers only.
  if (!sender_best.self_originated()) {
    const auto learned_rel =
        graph_->relationship(sender, sender_best.learned_from);
    util::ensure_state(learned_rel.has_value(),
                       "propagation: best route from non-neighbor");
    if (*learned_rel != RelKind::kCustomer &&
        receiver_rel != RelKind::kCustomer) {
      return std::nullopt;
    }
  }

  const AsPolicy& sender_policy = policies_->at(sender);
  const AsNumber route_origin = sender_best.origin_as();

  // Conditional advertisement: the backup announcement stays suppressed
  // while the watched session is healthy.
  if (sender_best.self_originated()) {
    for (const auto& cond : sender_policy.conditional) {
      if (cond.prefix != origination.prefix || cond.advertise_to != receiver) {
        continue;
      }
      const bool watch_down =
          failures_ != nullptr &&
          failures_->is_failed(sender, cond.watch_provider);
      if (!watch_down) return std::nullopt;
    }
  }

  // Community instructions attached upstream and addressed to `sender`.
  if (sender_best.has_community(bgp::kNoExport)) return std::nullopt;
  const auto sender_asn = static_cast<std::uint16_t>(sender.value());
  if (sender_best.has_community(
          bgp::Community(sender_asn, sim::kNoExportUpstreamValue)) &&
      receiver_rel == RelKind::kProvider) {
    return std::nullopt;
  }
  for (std::size_t slot = 0; slot < sender_policy.no_export_targets.size();
       ++slot) {
    if (sender_policy.no_export_targets[slot] != receiver) continue;
    const auto value =
        static_cast<std::uint16_t>(sim::kNoExportToBase + slot);
    if (sender_best.has_community(bgp::Community(sender_asn, value))) {
      return std::nullopt;
    }
  }

  // Configured export rules (selective announcement & friends).
  const ExportRule* rule =
      sender_policy.export_.match(receiver, origination.prefix, route_origin);

  bgp::Route out = sender_best;
  std::size_t extra_prepends = 0;
  if (rule != nullptr) {
    switch (rule->action) {
      case ExportAction::kDeny:
        return std::nullopt;
      case ExportAction::kPrepend:
        extra_prepends = rule->prepend_times;
        break;
      case ExportAction::kTagNoExportUpstream:
        out.add_community(
            bgp::Community(static_cast<std::uint16_t>(receiver.value()),
                           sim::kNoExportUpstreamValue));
        break;
      case ExportAction::kTagNoExportTo: {
        // The receiver owns the slot namespace; policy generation has
        // already registered the slot, so look it up read-only.
        const AsPolicy& receiver_policy = policies_->at(receiver);
        for (std::size_t slot = 0;
             slot < receiver_policy.no_export_targets.size(); ++slot) {
          if (receiver_policy.no_export_targets[slot] == rule->target) {
            out.add_community(bgp::Community(
                static_cast<std::uint16_t>(receiver.value()),
                static_cast<std::uint16_t>(sim::kNoExportToBase + slot)));
            break;
          }
        }
        break;
      }
    }
  }

  out.path = sender_best.path.prepend(sender, 1 + extra_prepends);
  out.learned_from = sender;
  out.local_pref = 100;  // reset on the wire; receiver assigns its own
  out.med = 0;
  out.router_id = sender.value();
  return out;
}

std::optional<bgp::Route> PropagationEngine::route_as_received(
    AsNumber sender, const bgp::Route* sender_best,
    const Origination& origination, AsNumber receiver) const {
  if (sender_best == nullptr) return std::nullopt;
  // One relationship resolution serves both perspectives: receiver-side
  // import sees what sender is to receiver, sender-side export sees the
  // inverse — re-probing the adjacency map per direction was pure waste.
  const auto sender_rel = graph_->relationship(receiver, sender);
  if (!sender_rel) return std::nullopt;  // not adjacent

  auto wire = exported_route(sender, *sender_best, origination, receiver,
                             topo::invert(*sender_rel));
  if (!wire) return std::nullopt;

  // Receiver-side: AS-path loop check (Section 2.2.1).
  if (wire->path.contains(receiver)) return std::nullopt;

  const AsPolicy& receiver_policy = policies_->at(receiver);
  wire->local_pref = receiver_policy.import.preference(sender, *sender_rel,
                                                       origination.prefix);
  if (receiver_policy.community.enabled) {
    wire->add_community(
        receiver_policy.community.tag(receiver, sender, *sender_rel));
  }
  return wire;
}

PrefixRouting compute_prefix_reference(const topo::AsGraph& graph,
                                       const sim::PolicySet& policies,
                                       const Origination& origination,
                                       const sim::FailedEdges* failed,
                                       const sim::PropagationOptions& options) {
  util::ensure(graph.contains(origination.origin),
               "propagation: origin AS not in graph");

  // All state below is local; the engine only carries const pointers, so
  // concurrent calls never touch shared mutable memory.
  const PropagationEngine engine(graph, policies, failed);

  PrefixRouting state;
  state.origination = origination;
  state.best.emplace(origination.origin, engine.self_route(origination));

  std::deque<AsNumber> queue;
  std::unordered_map<AsNumber, bool> in_queue;
  std::unordered_map<AsNumber, std::size_t> processed;

  const auto enqueue = [&](AsNumber as) {
    auto& flagged = in_queue[as];
    if (flagged) return;
    flagged = true;
    queue.push_back(as);
  };

  for (const auto& n : graph.neighbors(origination.origin)) enqueue(n.as);

  while (!queue.empty()) {
    const AsNumber current = queue.front();
    queue.pop_front();
    in_queue[current] = false;

    // The origin's self route always wins (kSelfLocalPref dominates);
    // skipping it keeps the withdraw logic below simple.
    if (current == origination.origin) continue;

    std::size_t& count = processed[current];
    if (count >= options.max_process_per_as) {
      state.converged = false;
      continue;
    }
    ++count;
    ++state.process_events;

    // Pull candidates from every neighbor's current best.
    std::vector<bgp::Route> candidates;
    candidates.reserve(graph.degree(current));
    for (const auto& n : graph.neighbors(current)) {
      auto received = engine.route_as_received(n.as, state.best_at(n.as),
                                               origination, current);
      if (received) candidates.push_back(std::move(*received));
    }

    const auto best_index = bgp::select_best(candidates);
    const auto it = state.best.find(current);
    bool changed = false;
    if (!best_index) {
      if (it != state.best.end()) {
        state.best.erase(it);
        changed = true;
      }
    } else {
      bgp::Route& winner = candidates[*best_index];
      if (it == state.best.end()) {
        state.best.emplace(current, std::move(winner));
        changed = true;
      } else if (it->second != winner) {
        it->second = std::move(winner);
        changed = true;
      }
    }

    if (changed) {
      for (const auto& n : graph.neighbors(current)) enqueue(n.as);
    }
  }

  return state;
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

}  // namespace

void record_prefix(const PropagationEngine& engine, const PrefixRouting& state,
                   const sim::VantageSpec& spec, sim::SimResult& result) {
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

sim::SimResult reference_simulation(
    const topo::AsGraph& graph, const sim::PolicySet& policies,
    std::span<const Origination> originations,
    const sim::VantageSpec& vantage, const sim::PropagationOptions& options) {
  const PropagationEngine engine(graph, policies);
  sim::SimResult result = sim::init_sim_result(vantage);
  for (const Origination& origination : originations) {
    const PrefixRouting state = compute_prefix_reference(
        graph, policies, origination, nullptr, options);
    if (!state.converged) ++result.unconverged_prefixes;
    result.process_events += state.process_events;
    record_prefix(engine, state, vantage, result);
    ++result.origination_count;
  }
  return result;
}

}  // namespace bgpolicy::testing
