#include "sim/propagation.h"

#include <algorithm>
#include <deque>

#include "bgp/decision.h"
#include "sim/flat_engine.h"
#include "util/ensure.h"

namespace bgpolicy::sim {

std::uint64_t FailedEdges::key(AsNumber a, AsNumber b) {
  const auto [lo, hi] = std::minmax(a, b);
  return (static_cast<std::uint64_t>(lo.value()) << 32) | hi.value();
}

void FailedEdges::fail(AsNumber a, AsNumber b) { edges_.insert(key(a, b)); }

void FailedEdges::restore(AsNumber a, AsNumber b) { edges_.erase(key(a, b)); }

bool FailedEdges::is_failed(AsNumber a, AsNumber b) const {
  return edges_.contains(key(a, b));
}

std::vector<std::pair<AsNumber, AsNumber>> FailedEdges::edges() const {
  std::vector<std::uint64_t> keys(edges_.begin(), edges_.end());
  std::sort(keys.begin(), keys.end());
  std::vector<std::pair<AsNumber, AsNumber>> out;
  out.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    out.emplace_back(AsNumber(static_cast<std::uint32_t>(k >> 32)),
                     AsNumber(static_cast<std::uint32_t>(k)));
  }
  return out;
}

PropagationEngine::PropagationEngine(const topo::AsGraph& graph,
                                     const PolicySet& policies,
                                     const FailedEdges* failures)
    : graph_(&graph), policies_(&policies), failures_(failures) {}

bgp::Route PropagationEngine::self_route(
    const Origination& origination) const {
  bgp::Route route;
  route.prefix = origination.prefix;
  route.learned_from = origination.origin;
  route.local_pref = kSelfLocalPref;
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
          bgp::Community(sender_asn, kNoExportUpstreamValue)) &&
      receiver_rel == RelKind::kProvider) {
    return std::nullopt;
  }
  for (std::size_t slot = 0; slot < sender_policy.no_export_targets.size();
       ++slot) {
    if (sender_policy.no_export_targets[slot] != receiver) continue;
    const auto value =
        static_cast<std::uint16_t>(kNoExportToBase + slot);
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
                           kNoExportUpstreamValue));
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
                static_cast<std::uint16_t>(kNoExportToBase + slot)));
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

PrefixRouting compute_prefix(const topo::AsGraph& graph,
                             const PolicySet& policies,
                             const Origination& origination,
                             const FailedEdges* failed,
                             const PropagationOptions& options) {
  // One-shot convenience: builds the flat context and scratch for a single
  // fixpoint.  Loops over many prefixes (run_simulation, churn) build one
  // FlatSimContext and reuse leased scratches instead.
  const FlatSimContext context(graph, policies);
  FlatScratch scratch;
  return compute_prefix_flat(context, origination, failed, options, scratch);
}

PrefixRouting compute_prefix_reference(const topo::AsGraph& graph,
                                       const PolicySet& policies,
                                       const Origination& origination,
                                       const FailedEdges* failed,
                                       const PropagationOptions& options) {
  util::ensure(graph.contains(origination.origin),
               "propagation: origin AS not in graph");

  // All state below is local; the engine only carries const pointers, so
  // concurrent compute_prefix calls never touch shared mutable memory.
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

}  // namespace bgpolicy::sim
