#include "sim/flat_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/ensure.h"

namespace bgpolicy::sim {

namespace {

/// FNV-1a over a community set's raw values — the content hash the
/// CommunityTable dedup chains key on (collisions are resolved by a full
/// compare, never by trusting the hash).
[[nodiscard]] std::uint64_t content_hash(std::span<const bgp::Community> set) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const bgp::Community c : set) {
    h ^= c.raw();
    h *= 0x100000001b3ULL;
  }
  // Sets are never empty here (id 0 short-circuits), but keep the hash off
  // the map's empty-key sentinel for any input.
  h = util::mix64(h ^ set.size());
  return h == util::FlatMap64::kEmptyKey ? 0 : h;
}

/// NO_EXPORT or an action community ("do not export upward" / "do not
/// export to AS x"), whichever AS it is addressed to.
[[nodiscard]] bool is_export_instruction(bgp::Community c) {
  return c == bgp::kNoExport || (c.value() >= kNoExportToBase &&
                                 c.value() <= kNoExportUpstreamValue);
}

}  // namespace

// ----------------------------------------------------------------- PathTable

void PathTable::clear() {
  front_.clear();
  parent_.clear();
  length_.clear();
  origin_.clear();
  // Slot 0: the empty path (length 0; front/origin are never read for it).
  front_.push_back(0);
  parent_.push_back(kEmptyPath);
  length_.push_back(0);
  origin_.push_back(0);
  intern_.clear();
}

std::uint32_t PathTable::prepend(std::uint32_t parent, AsNumber front) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(parent) << 32) | front.value();
  if (const std::uint32_t* hit = intern_.find(key)) return *hit;
  const auto id = static_cast<std::uint32_t>(front_.size());
  front_.push_back(front.value());
  parent_.push_back(parent);
  length_.push_back(length_[parent] + 1);
  origin_.push_back(parent == kEmptyPath ? front.value() : origin_[parent]);
  intern_.insert(key, id);
  return id;
}

bool PathTable::contains(std::uint32_t path, AsNumber as) const {
  for (std::uint32_t node = path; node != kEmptyPath; node = parent_[node]) {
    if (front_[node] == as.value()) return true;
  }
  return false;
}

void PathTable::assign_from(const PathTable& other, StateCopy copy) {
  front_ = other.front_;
  parent_ = other.parent_;
  length_ = other.length_;
  origin_ = other.origin_;
  if (copy == StateCopy::kCompact) {
    intern_.assign_compact(other.intern_);
  } else {
    intern_ = other.intern_;
  }
}

bgp::AsPath PathTable::materialize(std::uint32_t path) const {
  std::vector<AsNumber> hops;
  hops.reserve(length_[path]);
  for (std::uint32_t node = path; node != kEmptyPath; node = parent_[node]) {
    hops.emplace_back(front_[node]);
  }
  return bgp::AsPath(std::move(hops));
}

// ------------------------------------------------------------ CommunityTable

void CommunityTable::clear() {
  data_.clear();
  size_.clear();
  next_same_hash_.clear();
  instruction_.clear();
  data_.push_back(nullptr);  // slot 0: the empty set
  size_.push_back(0);
  next_same_hash_.push_back(0);
  instruction_.push_back(0);
  memo_.clear();
  by_content_.clear();
}

bool CommunityTable::contains(std::uint32_t set,
                              bgp::Community community) const {
  const auto span = members(set);
  return std::binary_search(span.begin(), span.end(), community);
}

std::uint32_t CommunityTable::intern(std::span<const bgp::Community> set) {
  const std::uint64_t hash = content_hash(set);
  std::uint32_t* head = by_content_.find(hash);
  if (head != nullptr) {
    for (std::uint32_t id = *head; id != 0; id = next_same_hash_[id]) {
      const auto have = members(id);
      if (std::equal(have.begin(), have.end(), set.begin(), set.end())) {
        return id;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(data_.size());
  bgp::Community* storage = arena_->allocate<bgp::Community>(set.size());
  std::copy(set.begin(), set.end(), storage);
  data_.push_back(storage);
  size_.push_back(static_cast<std::uint32_t>(set.size()));
  instruction_.push_back(
      std::any_of(set.begin(), set.end(), is_export_instruction) ? 1 : 0);
  if (head != nullptr) {
    next_same_hash_.push_back(*head);
    *head = id;
  } else {
    next_same_hash_.push_back(0);
    by_content_.insert(hash, id);
  }
  return id;
}

std::uint32_t CommunityTable::add(std::uint32_t set, bgp::Community community) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(set) << 32) | community.raw();
  if (const std::uint32_t* hit = memo_.find(key)) return *hit;

  // Sorted insert with dedup — exactly Route::add_community.
  const auto have = members(set);
  std::uint32_t result;
  if (std::binary_search(have.begin(), have.end(), community)) {
    result = set;
  } else {
    scratch_.clear();
    const auto split =
        std::lower_bound(have.begin(), have.end(), community);
    scratch_.insert(scratch_.end(), have.begin(), split);
    scratch_.push_back(community);
    scratch_.insert(scratch_.end(), split, have.end());
    result = intern(scratch_);
  }
  memo_.insert(key, result);
  return result;
}

void CommunityTable::assign_from(const CommunityTable& other,
                                 StateCopy copy) {
  // arena_ stays this table's own arena — the owning state reset it just
  // before this call; member storage is copied, never aliased.
  size_ = other.size_;
  next_same_hash_ = other.next_same_hash_;
  instruction_ = other.instruction_;
  if (copy == StateCopy::kCompact) {
    memo_.assign_compact(other.memo_);
    by_content_.assign_compact(other.by_content_);
  } else {
    memo_ = other.memo_;
    by_content_ = other.by_content_;
  }
  // Every set's members in one allocation: a fresh arena reserves one
  // block of exactly their size instead of its default first block.
  std::size_t members = 0;
  for (const std::uint32_t size : size_) members += size;
  arena_->reserve(members * sizeof(bgp::Community));
  bgp::Community* storage =
      members == 0 ? nullptr : arena_->allocate<bgp::Community>(members);
  data_.assign(other.data_.size(), nullptr);
  for (std::size_t id = 1; id < other.data_.size(); ++id) {
    std::copy_n(other.data_[id], size_[id], storage);
    data_[id] = storage;
    storage += size_[id];
  }
}

// ------------------------------------------------------------ FlatSimContext

FlatSimContext::FlatSimContext(const topo::AsGraph& graph,
                               const PolicySet& policies)
    : view_(graph), policies_(&policies) {
  const std::size_t n = view_.size();
  const std::uint32_t arcs = view_.offsets().back();
  policy_.assign(n, nullptr);
  flags_.assign(n, 0);
  arcs_.assign(arcs, Arc{});
  reverse_.assign(arcs, 0);
  for (Id id = 0; id < n; ++id) compile_as(id);

  // Reverse slots in O(arcs): bucket every arc u->v under v (AsGraph
  // adjacency is symmetric, so v's bucket is the size of its row), then
  // resolve each bucket through a table of v's row positions.
  std::vector<std::uint32_t> fill(view_.offsets().begin(),
                                  view_.offsets().end() - 1);
  std::vector<std::uint32_t> in_slot(arcs);
  std::vector<Id> in_from(arcs);
  for (Id u = 0; u < n; ++u) {
    for (std::uint32_t slot = view_.arcs_begin(u); slot < view_.arcs_end(u);
         ++slot) {
      const std::uint32_t k = fill[view_.arc_to(slot)]++;
      in_slot[k] = slot;
      in_from[k] = u;
    }
  }
  std::vector<std::uint32_t> position(n, 0);
  for (Id v = 0; v < n; ++v) {
    for (std::uint32_t slot = view_.arcs_begin(v); slot < view_.arcs_end(v);
         ++slot) {
      position[view_.arc_to(slot)] = slot;
    }
    for (std::uint32_t k = view_.arcs_begin(v); k < view_.arcs_end(v); ++k) {
      reverse_[in_slot[k]] = position[in_from[k]];
    }
  }

  for (Id id = 0; id < n; ++id) {
    for (std::uint32_t slot = view_.arcs_begin(id);
         slot < view_.arcs_end(id); ++slot) {
      compile_arc(id, slot);
    }
  }
}

const AsPolicy& FlatSimContext::missing_policy(Id id) const {
  const AsNumber as = view_.as_of(id);
  (void)policies_->at(as);  // std::out_of_range, exactly like the seed
  throw std::logic_error("FlatSimContext: policy of " + util::to_string(as) +
                         " added without refresh_policies");
}

void FlatSimContext::compile_as(Id id) {
  const auto it = policies_->by_as.find(view_.as_of(id));
  const AsPolicy* p = it == policies_->by_as.end() ? nullptr : &it->second;
  policy_[id] = p;
  if (p == nullptr) {
    flags_[id] = kNoPolicy;
    return;
  }
  std::uint8_t f = 0;
  if (!p->import.prefix_override.empty()) f |= kPrefixPins;
  if (!p->export_.any_neighbor.empty()) f |= kAnyRules;
  if (!p->conditional.empty() || !p->no_export_targets.empty()) {
    f |= kSenderExtras;
  }
  if (p->community.enabled) f |= kTags;
  flags_[id] = f;
}

void FlatSimContext::compile_arc(Id row, std::uint32_t slot) {
  const Id sender = view_.arc_to(slot);
  const AsNumber row_as = view_.as_of(row);
  const AsNumber sender_as = view_.as_of(sender);
  const RelKind sender_rel = view_.arc_rel(slot);
  Arc arc;
  const AsPolicy* sp = policy_[sender];
  if (sp != nullptr && !sp->export_.per_neighbor.empty()) {
    const auto& per_neighbor = sp->export_.per_neighbor;
    const auto it = per_neighbor.find(row_as);
    if (it != per_neighbor.end()) arc.rules = &it->second;
  }
  if (const AsPolicy* rp = policy_[row]) {
    const ImportPolicy& imp = rp->import;
    arc.pref = imp.base_for(sender_rel);
    if (!imp.neighbor_override.empty()) {
      const auto it = imp.neighbor_override.find(sender_as);
      if (it != imp.neighbor_override.end()) arc.pref = it->second;
    }
    if (rp->community.enabled) {
      arc.tag = rp->community.tag(row_as, sender_as, sender_rel);
    }
  }
  arcs_[slot] = arc;
}

std::optional<std::uint32_t> FlatSimContext::prefix_pin(
    Id receiver, const bgp::Prefix& prefix) const {
  const auto& pins = policy(receiver).import.prefix_override;
  const auto it = pins.find(prefix);
  if (it == pins.end()) return std::nullopt;
  return it->second;
}

void FlatSimContext::refresh_policies(std::span<const AsNumber> changed) {
  for (const AsNumber as : changed) {
    const Id id = view_.id_of(as);
    if (id == topo::GraphView::kInvalidId) continue;
    compile_as(id);
    // The row holds id's import side; the reverse arcs hold its export
    // rules toward each neighbor.
    for (std::uint32_t slot = view_.arcs_begin(id); slot < view_.arcs_end(id);
         ++slot) {
      compile_arc(id, slot);
      compile_arc(view_.arc_to(slot), reverse_[slot]);
    }
  }
}

// ----------------------------------------------------------- FlatRoutingState

void FlatRoutingState::reset(std::size_t n) {
  arena.reset();
  paths.clear();
  comms.clear();
  has_best.assign(n, 0);
  best_rel.assign(n, 0);
  best_path.assign(n, 0);
  best_wire.assign(n, 0);
  best_learned.assign(n, 0);
  best_lp.assign(n, 0);
  best_router.assign(n, 0);
  best_comms.assign(n, 0);
}

void FlatRoutingState::assign_from(const FlatRoutingState& other,
                                   StateCopy copy) {
  arena.reset();
  paths.assign_from(other.paths, copy);
  comms.assign_from(other.comms, copy);
  has_best = other.has_best;
  best_rel = other.best_rel;
  best_path = other.best_path;
  best_wire = other.best_wire;
  best_learned = other.best_learned;
  best_lp = other.best_lp;
  best_router = other.best_router;
  best_comms = other.best_comms;
}

std::size_t FlatRoutingState::bytes() const {
  return has_best.capacity() + best_rel.capacity() +
         sizeof(std::uint32_t) *
             (best_path.capacity() + best_wire.capacity() +
              best_learned.capacity() + best_lp.capacity() +
              best_router.capacity() + best_comms.capacity()) +
         arena.bytes_reserved() + paths.bytes() + comms.bytes();
}

// ------------------------------------------------------------ FixpointQueue

void FixpointQueue::reset(std::size_t n) {
  in_queue.assign(n, 0);
  processed.assign(n, 0);
  ring.resize(n + 1);
  head = 0;
  tail = 0;
}

// --------------------------------------------------------------- FlatScratch

void FlatScratch::note_peak() {
  peak_bytes_ = std::max(peak_bytes_, state_.bytes());
}

// --------------------------------------------------------- the flat fixpoint

namespace {

/// What one neighbor offers a receiver, after the receiver's import.
struct Offer {
  topo::GraphView::Id sender;
  AsNumber sender_as;
  RelKind sender_rel;   // sender, as seen by the receiver
  std::uint32_t path;   // interned wire path (sender prepended)
  std::uint32_t comms;  // interned community set, import tag included
  std::uint32_t lp;     // receiver's local preference
};

/// Calls `sink(offer)` for every neighbor of `receiver` that offers it a
/// route, in CSR (neighbor) order — the flat mirror of the seed engine's
/// testing::PropagationEngine::route_as_received (tests/testing/
/// propagation_reference.h), and the engine's one copy of the
/// export and import rules: Gao-Rexford export, conditional
/// advertisements, community instructions, export rules and prepends, the
/// loop check, then import preference and tagging.  The fixpoint's
/// candidate pull and the looking-glass recorder both run it.  Policies
/// come from the context's compiled arcs; an AsPolicy is read only for
/// an AS whose flags ask for it.  Interns prepend hops and community sets
/// into `s`; never writes a best column.  `failed` is null or non-empty.
template <typename Sink>
void pull_offers(const FlatSimContext& context, const Origination& origination,
                 const FailedEdges* failed, FlatRoutingState& s,
                 topo::GraphView::Id receiver, Sink&& sink) {
  using Id = topo::GraphView::Id;
  using Ctx = FlatSimContext;
  const topo::GraphView& view = context.view();
  const AsNumber receiver_as = view.as_of(receiver);
  const std::uint8_t receiver_flags = context.flags(receiver);
  // The receiver's prefix pin, probed on the first offer that reaches
  // import (an AS without a policy throws there, as the seed does).
  bool import_ready = false;
  std::optional<std::uint32_t> pin;

  for (std::uint32_t slot = view.arcs_begin(receiver);
       slot < view.arcs_end(receiver); ++slot) {
    const Id sender = view.arc_to(slot);
    if (s.has_best[sender] == 0) continue;
    // One CSR read yields both perspectives of the adjacency.
    const RelKind sender_rel = view.arc_rel(slot);  // sender, to receiver
    const RelKind receiver_rel = topo::invert(sender_rel);
    const AsNumber sender_as = view.as_of(sender);

    if (failed != nullptr && failed->is_failed(sender_as, receiver_as)) {
      continue;  // session down
    }

    const std::uint32_t sender_path = s.best_path[sender];
    const bool self_originated = sender_path == PathTable::kEmptyPath;

    // Gao-Rexford relationship rules: self-originated and
    // customer-learned routes go to everyone; peer- and provider-learned
    // routes go to customers only.
    if (!self_originated) {
      const auto learned_rel = static_cast<RelKind>(s.best_rel[sender]);
      if (learned_rel != RelKind::kCustomer &&
          receiver_rel != RelKind::kCustomer) {
        continue;
      }
    }

    // A sender without a policy throws here, where the seed reads it.
    const std::uint8_t sender_flags = context.flags(sender);
    if ((sender_flags & Ctx::kNoPolicy) != 0) (void)context.policy(sender);

    // Conditional advertisement: the backup announcement stays
    // suppressed while the watched session is healthy.
    if (self_originated && (sender_flags & Ctx::kSenderExtras) != 0) {
      bool suppressed = false;
      for (const auto& cond : context.policy(sender).conditional) {
        if (cond.prefix != origination.prefix ||
            cond.advertise_to != receiver_as) {
          continue;
        }
        const bool watch_down =
            failed != nullptr &&
            failed->is_failed(sender_as, cond.watch_provider);
        if (!watch_down) {
          suppressed = true;
          break;
        }
      }
      if (suppressed) continue;
    }

    // Community instructions attached upstream and addressed to sender.
    const std::uint32_t sender_comms = s.best_comms[sender];
    if (s.comms.carries_instruction(sender_comms)) {
      const auto sender_asn = static_cast<std::uint16_t>(sender_as.value());
      if (s.comms.contains(sender_comms, bgp::kNoExport)) continue;
      if (receiver_rel == RelKind::kProvider &&
          s.comms.contains(sender_comms,
                           bgp::Community(sender_asn,
                                          kNoExportUpstreamValue))) {
        continue;
      }
      if ((sender_flags & Ctx::kSenderExtras) != 0) {
        const auto& targets = context.policy(sender).no_export_targets;
        bool no_export_to = false;
        for (std::size_t t = 0; t < targets.size(); ++t) {
          if (targets[t] != receiver_as) continue;
          const auto value = static_cast<std::uint16_t>(kNoExportToBase + t);
          if (s.comms.contains(sender_comms,
                               bgp::Community(sender_asn, value))) {
            no_export_to = true;
            break;
          }
        }
        if (no_export_to) continue;
      }
    }

    // Configured export rules (selective announcement & friends):
    // ExportPolicy::match over the any-neighbor list, then the compiled
    // per-neighbor list.
    const Ctx::Arc& arc = context.arc(slot);
    const ExportRule* rule = nullptr;
    if ((sender_flags & Ctx::kAnyRules) != 0 || arc.rules != nullptr) {
      const AsNumber route_origin =
          self_originated ? sender_as : s.paths.origin(sender_path);
      const auto first_match =
          [&](const std::vector<ExportRule>& rules) -> const ExportRule* {
        for (const ExportRule& r : rules) {
          if (r.matches(origination.prefix, route_origin)) return &r;
        }
        return nullptr;
      };
      if ((sender_flags & Ctx::kAnyRules) != 0) {
        rule = first_match(context.policy(sender).export_.any_neighbor);
      }
      if (rule == nullptr && arc.rules != nullptr) {
        rule = first_match(*arc.rules);
      }
    }

    std::uint32_t wire_comms = sender_comms;
    std::size_t extra_prepends = 0;
    if (rule != nullptr) {
      switch (rule->action) {
        case ExportAction::kDeny:
          continue;  // of the neighbor loop: not announced at all
        case ExportAction::kPrepend:
          extra_prepends = rule->prepend_times;
          break;
        case ExportAction::kTagNoExportUpstream:
          wire_comms = s.comms.add(
              wire_comms,
              bgp::Community(static_cast<std::uint16_t>(receiver_as.value()),
                             kNoExportUpstreamValue));
          break;
        case ExportAction::kTagNoExportTo: {
          // The receiver owns the slot namespace; policy generation has
          // already registered the slot, so look it up read-only.
          const auto& targets = context.policy(receiver).no_export_targets;
          for (std::size_t t = 0; t < targets.size(); ++t) {
            if (targets[t] != rule->target) continue;
            wire_comms = s.comms.add(
                wire_comms,
                bgp::Community(
                    static_cast<std::uint16_t>(receiver_as.value()),
                    static_cast<std::uint16_t>(kNoExportToBase + t)));
            break;
          }
          break;
        }
      }
    }

    // The wire path: the sender's stored one (itself prepended once) plus
    // any extra prepends.
    std::uint32_t wire_path = s.best_wire[sender];
    for (std::size_t k = 0; k < extra_prepends; ++k) {
      wire_path = s.paths.prepend(wire_path, sender_as);
    }

    // Receiver-side: AS-path loop check.  The prepended hops are the
    // sender, never the receiver, so the sender's path decides it.
    if (s.paths.contains(sender_path, receiver_as)) continue;

    // Receiver import policy: local preference + relationship tagging.
    if (!import_ready) {
      if ((receiver_flags & Ctx::kNoPolicy) != 0) {
        (void)context.policy(receiver);
      }
      if ((receiver_flags & Ctx::kPrefixPins) != 0) {
        pin = context.prefix_pin(receiver, origination.prefix);
      }
      import_ready = true;
    }
    const std::uint32_t lp = pin ? *pin : arc.pref;
    if ((receiver_flags & Ctx::kTags) != 0) {
      wire_comms = s.comms.add(wire_comms, arc.tag);
    }

    sink(Offer{sender, sender_as, sender_rel, wire_path, wire_comms, lp});
  }
}

/// A value-typed route from interned attributes; every attribute the flat
/// engine does not track keeps its default (IGP origin, MED 0, eBGP, IGP
/// metric 0), exactly as the reference engine's routes do.
[[nodiscard]] bgp::Route make_route(const Origination& origination,
                                    const FlatRoutingState& s,
                                    std::uint32_t path, AsNumber learned_from,
                                    std::uint32_t local_pref,
                                    std::uint32_t router_id,
                                    std::uint32_t comms) {
  bgp::Route route;
  route.prefix = origination.prefix;
  route.path = s.paths.materialize(path);
  route.learned_from = learned_from;
  route.local_pref = local_pref;
  route.router_id = router_id;
  const auto members = s.comms.members(comms);
  route.communities.assign(members.begin(), members.end());
  return route;
}

/// The best route held by dense id `id` (which must hold one).
[[nodiscard]] bgp::Route best_route(const topo::GraphView& view,
                                    const Origination& origination,
                                    const FlatRoutingState& s,
                                    topo::GraphView::Id id) {
  return make_route(origination, s, s.best_path[id],
                    view.as_of(static_cast<topo::GraphView::Id>(
                        s.best_learned[id])),
                    s.best_lp[id], s.best_router[id], s.best_comms[id]);
}

}  // namespace

FixpointStats run_flat_fixpoint(const FlatSimContext& context,
                                const Origination& origination,
                                const FailedEdges* failed,
                                const PropagationOptions& options,
                                FixpointQueue& queue, FlatRoutingState& s,
                                bool filtered_enqueue) {
  using Id = topo::GraphView::Id;
  const topo::GraphView& view = context.view();
  const Id origin_id = view.id_of(origination.origin);

  const FailedEdges* failures =
      failed != nullptr && !failed->empty() ? failed : nullptr;
  FixpointStats stats;
  stats.order =
      filtered_enqueue ? FixpointOrder::kPruned : FixpointOrder::kExact;

  // Sound pruning test for filtered_enqueue (see the header note): can
  // `current`'s new best possibly change neighbor `m`'s selection?  The
  // optimistic offer uses the exact import preference and a path one hop
  // longer than the sender's best, ranked by the fixpoint's own
  // three-key order.  `slot` is the arc in `current`'s row; the import
  // side lives on its reverse, in `m`'s row.
  const auto offer_can_matter = [&](Id current, Id m, std::uint32_t slot) {
    if (s.best_learned[m] == current) return true;  // dependent: re-pull
    if (s.has_best[current] == 0) return false;     // withdraw, no dependent
    const AsNumber current_as = view.as_of(current);
    if (failures != nullptr &&
        failures->is_failed(current_as, view.as_of(m))) {
      return false;
    }
    const std::uint32_t sender_path = s.best_path[current];
    if (sender_path != PathTable::kEmptyPath &&
        static_cast<RelKind>(s.best_rel[current]) != RelKind::kCustomer &&
        view.arc_rel(slot) != RelKind::kCustomer) {
      return false;  // Gao-Rexford gate: nothing is offered on this arc
    }
    if (s.has_best[m] == 0) return true;
    const std::uint32_t lp = context.import_pref(m, context.reverse(slot),
                                                 origination.prefix);
    if (lp != s.best_lp[m]) return lp > s.best_lp[m];
    const std::uint32_t plen = s.paths.length(sender_path) + 1;
    const std::uint32_t best_plen = s.paths.length(s.best_path[m]);
    if (plen != best_plen) return plen < best_plen;
    return current_as.value() < s.best_router[m];
  };

  while (!queue.empty()) {
    const Id current = queue.ring[queue.head];
    queue.head = (queue.head + 1) % queue.ring.size();
    queue.in_queue[current] = 0;

    // The origin's self route always wins (kSelfLocalPref dominates);
    // skipping it keeps the withdraw logic below simple.
    if (current == origin_id) continue;

    if (queue.processed[current] >= options.max_process_per_as) {
      stats.converged = false;
      continue;
    }
    ++queue.processed[current];
    ++stats.events;

    // Pull every neighbor's offer and keep the running winner.  Among
    // these candidates ORIGIN (IGP), MED (0), eBGP and the IGP metric (0)
    // are constant and the next hop and router id are both the sender,
    // so the 7-step process is (local-pref desc, path length asc, sender
    // AS asc) — a total order, since no two offers share a sender.
    bool have = false;
    bool saw_customer = false;  // for inversion_selections
    Offer best{};
    std::uint32_t best_plen = 0;
    pull_offers(context, origination, failures, s, current,
                [&](const Offer& offer) {
                  if (offer.sender_rel == RelKind::kCustomer) {
                    saw_customer = true;
                  }
                  const std::uint32_t plen = s.paths.length(offer.path);
                  if (have &&
                      (offer.lp != best.lp ? offer.lp < best.lp
                       : plen != best_plen
                           ? plen > best_plen
                           : offer.sender_as.value() >
                                 best.sender_as.value())) {
                    return;
                  }
                  have = true;
                  best = offer;
                  best_plen = plen;
                });

    bool changed = false;
    if (!have) {
      if (s.has_best[current] != 0) {
        s.has_best[current] = 0;
        changed = true;
      }
    } else {
      if (best.sender_rel != RelKind::kCustomer && saw_customer) {
        ++stats.inversion_selections;
      }
      // Interned path/community ids make id equality value equality, so
      // this is exactly the seed's Route value comparison.
      if (s.has_best[current] == 0 || s.best_path[current] != best.path ||
          s.best_lp[current] != best.lp ||
          s.best_learned[current] != best.sender ||
          s.best_comms[current] != best.comms) {
        s.has_best[current] = 1;
        s.best_path[current] = best.path;
        s.best_wire[current] =
            s.paths.prepend(best.path, view.as_of(current));
        s.best_lp[current] = best.lp;
        s.best_learned[current] = best.sender;
        s.best_router[current] = best.sender_as.value();
        s.best_comms[current] = best.comms;
        s.best_rel[current] = static_cast<std::uint8_t>(best.sender_rel);
        changed = true;
      }
    }

    if (changed) {
      for (std::uint32_t slot = view.arcs_begin(current);
           slot < view.arcs_end(current); ++slot) {
        const Id m = view.arc_to(slot);
        if (filtered_enqueue) {
          if (queue.queued(m) || m == origin_id) continue;
          if (!offer_can_matter(current, m, slot)) continue;
        }
        queue.enqueue(m);
      }
    }
  }

  return stats;
}

PrefixRouting materialize_routing(const FlatSimContext& context,
                                  const Origination& origination,
                                  const FlatRoutingState& s, bool converged,
                                  std::size_t process_events) {
  using Id = topo::GraphView::Id;
  const topo::GraphView& view = context.view();
  PrefixRouting out;
  out.origination = origination;
  out.converged = converged;
  out.process_events = process_events;
  for (std::size_t id = 0; id < s.size(); ++id) {
    if (s.has_best[id] == 0) continue;
    out.best.emplace(view.as_of(static_cast<Id>(id)),
                     best_route(view, origination, s, static_cast<Id>(id)));
  }
  return out;
}

std::optional<bgp::Route> flat_route_at(const FlatSimContext& context,
                                        const Origination& origination,
                                        const FlatRoutingState& s,
                                        AsNumber as) {
  const topo::GraphView& view = context.view();
  const topo::GraphView::Id id = view.id_of(as);
  if (id == topo::GraphView::kInvalidId || s.has_best[id] == 0) {
    return std::nullopt;
  }
  return best_route(view, origination, s, id);
}

std::vector<bgp::Route> flat_adj_rib_in(const FlatSimContext& context,
                                        const Origination& origination,
                                        FlatRoutingState& s,
                                        AsNumber receiver) {
  std::vector<bgp::Route> out;
  const topo::GraphView::Id id = context.view().id_of(receiver);
  if (id == topo::GraphView::kInvalidId) return out;
  pull_offers(context, origination, nullptr, s, id, [&](const Offer& offer) {
    out.push_back(make_route(origination, s, offer.path, offer.sender_as,
                             offer.lp, offer.sender_as.value(), offer.comms));
  });
  return out;
}

namespace {

/// The origin AS's dense id; throws when the origin is not in the graph.
[[nodiscard]] topo::GraphView::Id origin_id_of(const FlatSimContext& context,
                                               const Origination& origination) {
  const topo::GraphView::Id id = context.view().id_of(origination.origin);
  util::ensure(id != topo::GraphView::kInvalidId,
               "propagation: origin AS not in graph");
  return id;
}

/// Resets `s` and `queue` and installs the origin's self route
/// (kSelfLocalPref, empty path), enqueueing the origin's neighbors: the
/// cold seed.
void seed_origin(const FlatSimContext& context, const Origination& origination,
                 topo::GraphView::Id origin_id, FixpointQueue& queue,
                 FlatRoutingState& s) {
  const topo::GraphView& view = context.view();
  s.reset(view.size());
  queue.reset(view.size());
  s.has_best[origin_id] = 1;
  s.best_path[origin_id] = PathTable::kEmptyPath;
  s.best_wire[origin_id] =
      s.paths.prepend(PathTable::kEmptyPath, origination.origin);
  s.best_learned[origin_id] = origin_id;
  s.best_lp[origin_id] = kSelfLocalPref;
  s.best_router[origin_id] = origination.origin.value();
  s.best_comms[origin_id] = CommunityTable::kEmptySet;
  for (std::uint32_t slot = view.arcs_begin(origin_id);
       slot < view.arcs_end(origin_id); ++slot) {
    queue.enqueue(view.arc_to(slot));
  }
}

/// The static wedgie oracle (see `converge_cold`): true when an atypical
/// preference or a prefix pin could let a non-customer candidate beat a
/// customer-learned one somewhere above the origin; false proves the
/// origination's fixpoint unique.  Failures only remove candidates, so
/// the verdict holds under any failure set.  `cone` and `in_cone` are the
/// caller's scratch buffers.
[[nodiscard]] bool static_order_sensitive(
    const FlatSimContext& context, const Origination& origination,
    topo::GraphView::Id origin, std::vector<topo::GraphView::Id>& cone,
    std::vector<char>& in_cone) {
  using Id = topo::GraphView::Id;
  const topo::GraphView& view = context.view();

  // Uphill cone: the ASes that can ever hold a customer-learned route for
  // this prefix (closure of the origin over provider edges).
  cone.clear();
  cone.push_back(origin);
  in_cone.assign(view.size(), 0);
  in_cone[origin] = 1;
  for (std::size_t i = 0; i < cone.size(); ++i) {
    const Id c = cone[i];
    for (std::uint32_t s = view.arcs_begin(c); s < view.arcs_end(c); ++s) {
      if (view.arc_rel(s) != RelKind::kProvider) continue;
      const Id p = view.arc_to(s);
      if (in_cone[p] == 0) {
        in_cone[p] = 1;
        cone.push_back(p);
      }
    }
  }

  // Effective preferences come from the context's compiled arcs: the
  // pref on X's arc to a neighbor is X's neighbor override or class base,
  // i.e. ImportPolicy::preference without the prefix pin.
  for (const Id c : cone) {
    for (std::uint32_t s = view.arcs_begin(c); s < view.arcs_end(c); ++s) {
      if (view.arc_rel(s) != RelKind::kProvider) continue;
      // X is a provider of cone member c: the only place a customer-learned
      // candidate (c's offer) can meet a non-customer rival.
      const Id x = view.arc_to(s);
      const std::uint8_t flags = context.flags(x);
      if ((flags & FlatSimContext::kNoPolicy) != 0) continue;
      const bool pinned =
          (flags & FlatSimContext::kPrefixPins) != 0 &&
          context.prefix_pin(x, origination.prefix).has_value();
      const std::uint32_t cust =
          pinned ? 0 : context.arc(context.reverse(s)).pref;
      for (std::uint32_t t = view.arcs_begin(x); t < view.arcs_end(x); ++t) {
        const RelKind rel = view.arc_rel(t);
        if (rel == RelKind::kCustomer) continue;
        // Valley-free gate: a peer of X offers this prefix only when it
        // holds a customer-learned route itself, i.e. it is in the cone.
        // A provider of X can offer whatever it holds.
        if (rel == RelKind::kPeer && in_cone[view.arc_to(t)] == 0) continue;
        if (pinned || context.arc(t).pref >= cust) return true;
      }
    }
  }
  return false;
}

}  // namespace

FixpointStats converge_cold(const FlatSimContext& context,
                            const Origination& origination,
                            const FailedEdges* failed,
                            const PropagationOptions& options,
                            FlatScratch& scratch, FlatRoutingState& s) {
  const topo::GraphView::Id origin_id = origin_id_of(context, origination);
  const bool unique =
      !static_order_sensitive(context, origination, origin_id, scratch.cone_,
                              scratch.in_cone_);
  if (unique) {
    scratch.note_peak();
    seed_origin(context, origination, origin_id, scratch.queue_, s);
    const FixpointStats stats =
        run_flat_fixpoint(context, origination, failed, options,
                          scratch.queue_, s, /*filtered_enqueue=*/true);
    scratch.note_peak();
    if (stats.inversion_selections == 0 && stats.converged) return stats;
  }
  FixpointStats stats =
      converge_exact(context, origination, failed, options, scratch, s);
  stats.pruned_discarded = unique;
  return stats;
}

FixpointStats converge_exact(const FlatSimContext& context,
                             const Origination& origination,
                             const FailedEdges* failed,
                             const PropagationOptions& options,
                             FlatScratch& scratch, FlatRoutingState& s) {
  const topo::GraphView::Id origin_id = origin_id_of(context, origination);
  scratch.note_peak();
  seed_origin(context, origination, origin_id, scratch.queue_, s);
  const FixpointStats stats = run_flat_fixpoint(context, origination, failed,
                                                options, scratch.queue_, s);
  scratch.note_peak();
  return stats;
}

PrefixRouting compute_prefix_flat(const FlatSimContext& context,
                                  const Origination& origination,
                                  const FailedEdges* failed,
                                  const PropagationOptions& options,
                                  FlatScratch& scratch) {
  const FixpointStats stats = converge_cold(context, origination, failed,
                                            options, scratch, scratch.state());
  return materialize_routing(context, origination, scratch.state(),
                             stats.converged, stats.events);
}

// ----------------------------------------------------------------- the batch

PrefixSeeds::PrefixSeeds(const FlatSimContext& context) {
  const topo::GraphView& view = context.view();
  // Each named prefix gets a group in first-naming order; (group, seed)
  // pairs are then bucketed by group, and only each group's few ids are
  // sorted.  A rule toward an AS the graph lacks (kInvalidId) names its
  // prefix without naming a seed.
  std::vector<std::pair<std::uint32_t, Id>> pairs;
  const auto name = [&](const bgp::Prefix& prefix, Id id) {
    const auto group = static_cast<std::uint32_t>(offsets_.size());
    const auto [slot, inserted] = ranges_.try_insert(key_of(prefix), group);
    if (inserted) offsets_.push_back(0);
    if (id != topo::GraphView::kInvalidId) pairs.emplace_back(*slot, id);
  };
  for (Id id = 0; id < view.size(); ++id) {
    const AsPolicy* policy = context.policy_if_present(id);
    if (policy == nullptr) continue;
    for (const auto& pin : policy->import.prefix_override) name(pin.first, id);
    for (const auto& [neighbor, rules] : policy->export_.per_neighbor) {
      for (const ExportRule& rule : rules) {
        if (rule.prefix) name(*rule.prefix, view.id_of(neighbor));
      }
    }
    for (const ExportRule& rule : policy->export_.any_neighbor) {
      if (!rule.prefix) continue;
      name(*rule.prefix, topo::GraphView::kInvalidId);
      for (std::uint32_t slot = view.arcs_begin(id); slot < view.arcs_end(id);
           ++slot) {
        name(*rule.prefix, view.arc_to(slot));
      }
    }
    for (const ConditionalAdvertisement& cond : policy->conditional) {
      name(cond.prefix, view.id_of(cond.advertise_to));
    }
  }
  // Bucket by group (offsets_ counts, then begins), then sort and
  // deduplicate each bucket, packing the buckets down as they shrink.
  const std::size_t groups = offsets_.size();
  offsets_.push_back(0);
  for (const auto& pair : pairs) ++offsets_[pair.first + 1];
  for (std::size_t g = 0; g < groups; ++g) offsets_[g + 1] += offsets_[g];
  ids_.resize(pairs.size());
  {
    std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (const auto& [group, id] : pairs) ids_[fill[group]++] = id;
  }
  std::uint32_t packed = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const auto first = ids_.begin() + offsets_[g];
    const auto last = ids_.begin() + offsets_[g + 1];
    std::sort(first, last);
    offsets_[g] = packed;
    packed = static_cast<std::uint32_t>(
        std::move(first, std::unique(first, last), ids_.begin() + packed) -
        ids_.begin());
  }
  offsets_[groups] = packed;
  ids_.resize(packed);
  // The bases run for a prefix checked to be unnamed, not for a sentinel
  // trusted to be: 0.0.0.0/0, else the first unnamed /32.
  unnamed_ = bgp::Prefix(0, 0);
  for (std::uint32_t address = 0; named(unnamed_); ++address) {
    unnamed_ = bgp::Prefix(address, 32);
  }
}

std::span<const PrefixSeeds::Id> PrefixSeeds::of(
    const bgp::Prefix& prefix) const {
  const std::uint32_t* group = ranges_.find(key_of(prefix));
  if (group == nullptr) return {};
  return std::span<const Id>(ids_).subspan(
      offsets_[*group], offsets_[*group + 1] - offsets_[*group]);
}

BatchStats converge_range(const FlatSimContext& context,
                          const PrefixSeeds& seeds,
                          std::span<const Origination> originations,
                          util::IndexRange range,
                          const PropagationOptions& options,
                          FlatScratch& scratch, const BatchVisit& visit) {
  using Id = topo::GraphView::Id;
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const std::size_t n = context.view().size();
  FlatRoutingState& work = scratch.state_;
  FlatRoutingState& base = scratch.base_;
  FixpointQueue& queue = scratch.queue_;
  BatchStats batch;
  // The origin `base` holds the base of, and whether it converged cleanly;
  // nothing carries over from an earlier range or batch.
  Id base_origin = topo::GraphView::kInvalidId;
  bool base_usable = false;

  for (std::size_t i = range.begin; i < range.end; ++i) {
    const Origination& origination = originations[i];
    const auto oracle_start = Clock::now();
    const Id origin_id = origin_id_of(context, origination);
    const bool unique = !static_order_sensitive(
        context, origination, origin_id, scratch.cone_, scratch.in_cone_);
    const auto start = Clock::now();
    batch.oracle_seconds +=
        std::chrono::duration<double>(start - oracle_start).count();
    if (unique && base_origin != origin_id) {
      const Origination agnostic{seeds.unnamed(), origination.origin};
      util::ensure(!seeds.named(agnostic.prefix),
                   "batch: the base prefix is named by a policy");
      seed_origin(context, agnostic, origin_id, queue, base);
      const FixpointStats converged = run_flat_fixpoint(
          context, agnostic, nullptr, options, queue, base,
          /*filtered_enqueue=*/true);
      base_origin = origin_id;
      base_usable = converged.inversion_selections == 0 && converged.converged;
      ++batch.base_converges;
      batch.base_events += converged.events;
      batch.base_seconds += seconds_since(start);
    }
    const auto run_start = Clock::now();
    FixpointStats stats;
    bool derived = false;
    if (unique && base_usable) {
      work.assign_from(base, StateCopy::kSlots);
      queue.reset(n);
      for (const Id seed : seeds.of(origination.prefix)) {
        if (seed != origin_id) queue.enqueue(seed);
      }
      stats = run_flat_fixpoint(context, origination, nullptr, options, queue,
                                work, /*filtered_enqueue=*/true);
      derived = stats.inversion_selections == 0 && stats.converged;
    }
    if (derived) {
      ++batch.waves;
      batch.wave_events += stats.events;
      batch.wave_seconds += seconds_since(run_start);
    } else {
      // A discarded wave's time counts with the exact run that replaces it.
      stats = converge_exact(context, origination, nullptr, options, scratch,
                             work);
      stats.pruned_discarded = unique;
      if (unique) ++batch.discarded;
      ++batch.exact_runs;
      batch.exact_events += stats.events;
      batch.exact_seconds += seconds_since(run_start);
    }
    scratch.note_peak();
    visit(i, stats, work);
  }
  return batch;
}

// ----------------------------------------------------------- FlatScratchPool

FlatScratchPool::Lease FlatScratchPool::acquire() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      std::unique_ptr<FlatScratch> scratch = std::move(free_.back());
      free_.pop_back();
      return {this, std::move(scratch)};
    }
  }
  return {this, std::make_unique<FlatScratch>()};
}

void FlatScratchPool::release(std::unique_ptr<FlatScratch> scratch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(scratch));
}

}  // namespace bgpolicy::sim
