// The flat propagation core: dense-id state, interned AS paths, and
// arena-backed scratch for `sim::compute_prefix`.
//
// The seed fixpoint (kept verbatim outside the library as
// `testing::compute_prefix_reference`, tests/testing/propagation_reference.h)
// spends its time in hash probes and allocations: every candidate pays
// `unordered_map` lookups for relationships and policies, an AS-path
// vector copy for the prepend, and a `bgp::Route` construction that is
// immediately torn down when the candidate loses.  This engine removes all
// of that while preserving the byte-identical determinism contract:
//
//   * `FlatSimContext` — built once per (graph, policies) pair — holds a
//     `topo::GraphView` (dense AS ids + CSR adjacency, one array read per
//     relationship probe) and the policies compiled onto its arcs: each
//     CSR slot (row = receiver, `arc_to` = sender) carries the receiver's
//     import preference for that sender absent a prefix pin, its
//     relationship tag, and the sender's per-neighbor export rules toward
//     it.  A few per-AS flag bits (prefix pins, any-neighbor rules,
//     conditional adverts / no-export slots, tagging, no policy) say when
//     an offer must consult the `AsPolicy` at all, so a typical offer
//     makes no hash probe.
//   * `PathTable` hash-conses AS paths: a path is a `u32` id whose node
//     stores (front AS, parent id, length, origin AS), so prepend is an
//     O(1) intern, path equality is id equality, and the loop check walks
//     the parent chain.  Equal path *values* always intern to the same id,
//     which is what keeps the flat engine's change detection exactly the
//     seed's value comparison.  Each AS's wire path (its best path with
//     itself prepended once) is stored beside its best, so an offer
//     interns only the extra hops a prepend rule adds.
//   * `CommunityTable` interns community *sets* by content (sorted,
//     deduplicated — Route::add_community semantics), with member storage
//     bump-allocated from a `util::MonotonicArena`; set-id equality is
//     value equality for the same reason.  Each set records whether it
//     carries an export instruction (NO_EXPORT or an action community),
//     so the export gate searches only sets that can hold one.
//   * Routing state is struct-of-arrays indexed by dense id.  Among the
//     engine's candidates ORIGIN, MED, eBGP and IGP metric are constants
//     and the next hop and router id are both the sender, so the 7-step
//     decision process reduces to (local-pref desc, path length asc,
//     sender AS asc); the fixpoint keeps the running winner while the
//     offers stream in.  No `bgp::Route` objects exist until a caller
//     reads routes out of the converged state: one AS's best
//     (`flat_route_at`), one AS's Adj-RIB-In (`flat_adj_rib_in`), or the
//     whole value-typed `PrefixRouting` (`materialize_routing`).
//
// The per-propagation state is split so it can outlive one fixpoint:
// `FlatRoutingState` is the warm half (interning tables + SoA best
// columns) that `sim::DeltaEngine` keeps converged across perturbations,
// the event queue (`FixpointQueue`) belongs to the scratch that runs a
// fixpoint, and `run_flat_fixpoint` is the event loop every program runs.
// `converge_cold` is the cold program for one isolated origination
// (oracle, reset, origin seed, fixpoint): `compute_prefix_flat` and the
// spec Timeline run it into a scratch's own state, the delta engine runs
// it into the scratch and copies the result into a new warm state.
// `converge_exact` is the same program pinned to the exact trajectory (the
// delta engine's in-place replays, churn's cold reference mode, and
// whoever compares events with the reference engine).  The state is reset
// (not freed) between prefixes, so a warmed scratch runs a whole fixpoint
// without touching the global allocator.
//
// The static wedgie oracle (`converge_cold`'s first step) decides each
// origination's event order before its fixpoint starts.  When every AS
// that can hold a customer-learned route for the prefix ranks customers
// strictly above its other candidates (the Gao-Rexford preference
// condition, checked per prefix over the origin's uphill cone), the
// fixpoint is unique, so the pruned fan-out lands on the exact
// trajectory's routes in fewer events.  Otherwise the origination may
// have several stable states, and only the exact trajectory is sure to
// reach the one a cold run reaches.
//
// The batch program (`converge_batch`, the one batch entry of `run_simulation`
// and churn's initial run) converges each origin once.  Import preference
// follows the next-hop AS for nearly every prefix (the paper's Table 2):
// a prefix's policy inputs differ from a prefix no policy names only at
// the few ASes that pin it, receive a rule naming it, or are the target
// of a conditional advert for it (`PrefixSeeds`).  So the runner
// converges an origin's prefix-agnostic base once and derives each of its
// proven-unique prefixes by copying the base and running a pruned wave
// seeded at those ASes; flagged originations keep their exact run.
//
// Concurrency model: the batch runner cuts its origination list into
// contiguous ranges and runs each on one worker; churn's steps shard
// prefixes (`converge_cold`, delta waves) one per task.  The context is
// read-only, and `FlatScratch` is the only per-worker scratch — routing
// states, the queue, the oracle's cone and the delta engine's dirty-path
// marks — so each worker leases one from a `FlatScratchPool` and writes
// only that scratch and the state it converges.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/community.h"
#include "sim/policy.h"
#include "sim/propagation.h"
#include "topology/graph_view.h"
#include "util/arena.h"
#include "util/flat_map.h"
#include "util/parallel.h"

namespace bgpolicy::sim {

/// How a deep copy of a routing state (or one of its tables) lays out its
/// intern maps and community members.
enum class StateCopy : std::uint8_t {
  /// Sized to the content (`util::FlatMap64::assign_compact`), with the
  /// community members in one arena block of exactly their size: a state
  /// that is kept (a new warm state) holds what it uses.
  kCompact,
  /// Slot for slot, into capacity the target already holds: a work state
  /// overwritten again at once (the batch runner's copy of its base) skips
  /// the rehash.
  kSlots,
};

/// Hash-consed AS paths with parent-pointer prepend.  Id 0 is the empty
/// path; every other id names an interned (front AS, parent) node.  Only
/// valid between `clear()` calls of the owning state.
class PathTable {
 public:
  static constexpr std::uint32_t kEmptyPath = 0;

  PathTable() { clear(); }

  void clear();

  /// The interned path `front . parent` (prepend).  Interning by content
  /// means any two equal path values share an id.
  [[nodiscard]] std::uint32_t prepend(std::uint32_t parent, AsNumber front);

  [[nodiscard]] std::uint32_t length(std::uint32_t path) const {
    return length_[path];
  }
  /// Front (next-hop) AS; `path` must not be empty.
  [[nodiscard]] AsNumber front(std::uint32_t path) const {
    return AsNumber(front_[path]);
  }
  /// Parent node (the path without its front hop); kEmptyPath-terminated.
  [[nodiscard]] std::uint32_t parent(std::uint32_t path) const {
    return parent_[path];
  }
  /// Origin (rightmost) AS; `path` must not be empty.
  [[nodiscard]] AsNumber origin(std::uint32_t path) const {
    return AsNumber(origin_[path]);
  }
  /// BGP loop detection: walks the parent chain.
  [[nodiscard]] bool contains(std::uint32_t path, AsNumber as) const;
  /// Rebuilds the value-typed AsPath (front first).
  [[nodiscard]] bgp::AsPath materialize(std::uint32_t path) const;

  /// Deep copy preserving every id.  kCompact sizes the intern map to the
  /// content rather than to the largest path set `other` ever held.
  void assign_from(const PathTable& other, StateCopy copy);

  [[nodiscard]] std::size_t node_count() const { return front_.size(); }
  [[nodiscard]] std::size_t bytes() const {
    return (front_.capacity() + parent_.capacity() + length_.capacity() +
            origin_.capacity()) *
               sizeof(std::uint32_t) +
           intern_.bytes();
  }

 private:
  // Column `i` describes node id `i`; slot 0 is the empty-path dummy.
  std::vector<std::uint32_t> front_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> length_;
  std::vector<std::uint32_t> origin_;
  util::FlatMap64 intern_;  // (parent << 32 | front) -> id, exact key
};

/// Community sets interned by content with Route::add_community semantics
/// (sorted, deduplicated).  Id 0 is the empty set.  Member arrays live in
/// the owning state's arena; `add` results are memoized per (set,
/// community) so repeated tagging along a propagation wave is one probe.
/// Each set is flagged at intern time when it carries an export
/// instruction: NO_EXPORT or an action community (a value in
/// [kNoExportToBase, kNoExportUpstreamValue]).  Relationship tags alone
/// never set the flag.
class CommunityTable {
 public:
  static constexpr std::uint32_t kEmptySet = 0;

  explicit CommunityTable(util::MonotonicArena& arena) : arena_(&arena) {
    clear();
  }

  void clear();

  /// The interned set `set + {community}`.
  [[nodiscard]] std::uint32_t add(std::uint32_t set, bgp::Community community);

  [[nodiscard]] bool contains(std::uint32_t set,
                              bgp::Community community) const;
  /// False when no member of `set` can be an export instruction, so the
  /// export gate skips its searches (always false for the empty set).
  [[nodiscard]] bool carries_instruction(std::uint32_t set) const {
    return instruction_[set] != 0;
  }
  [[nodiscard]] std::span<const bgp::Community> members(
      std::uint32_t set) const {
    return {data_[set], size_[set]};
  }

  /// Deep copy preserving every interned id: the members are copied into
  /// one allocation from this table's own arena (the caller has already
  /// reset it), never aliased from `other` — what makes a warm
  /// `FlatRoutingState` clonable.  The hash maps are laid out as `copy`
  /// says, as `PathTable::assign_from`'s.
  void assign_from(const CommunityTable& other, StateCopy copy);

  [[nodiscard]] std::size_t bytes() const {
    return (data_.capacity() * sizeof(const bgp::Community*)) +
           (size_.capacity() + next_same_hash_.capacity()) *
               sizeof(std::uint32_t) +
           instruction_.capacity() + memo_.bytes() + by_content_.bytes();
  }

 private:
  [[nodiscard]] std::uint32_t intern(std::span<const bgp::Community> set);

  util::MonotonicArena* arena_;
  std::vector<const bgp::Community*> data_;  // per set id; slot 0 empty
  std::vector<std::uint32_t> size_;
  std::vector<std::uint32_t> next_same_hash_;  // content-hash chain
  std::vector<std::uint8_t> instruction_;      // carries_instruction
  util::FlatMap64 memo_;        // (set << 32 | community raw) -> result id
  util::FlatMap64 by_content_;  // content hash -> chain head (compared on walk)
  std::vector<bgp::Community> scratch_;
};

/// Everything the flat propagations need that depends only on the
/// (graph, policies) pair: the dense-id CSR view and the policies compiled
/// onto its arcs.  Build once per scenario and share across any number of
/// concurrent propagations — read-only while any propagation is in
/// flight.  Both references must outlive the context, and every mutation
/// of the PolicySet must be followed by `refresh_policies`.
class FlatSimContext {
 public:
  using Id = topo::GraphView::Id;

  /// Per-AS bits that send the offer code to the AsPolicy; an AS with
  /// none set is fully described by its compiled arcs.
  enum Flag : std::uint8_t {
    kNoPolicy = 1,        ///< no policy: touching it throws (policy())
    kPrefixPins = 2,      ///< import.prefix_override is non-empty
    kAnyRules = 4,        ///< export_.any_neighbor is non-empty
    kSenderExtras = 8,    ///< conditional adverts or no-export-to slots
    kTags = 16,           ///< community.enabled (relationship tagging)
  };

  /// One CSR slot's compiled policy (row = receiver, arc_to = sender).
  struct Arc {
    /// The sender's per-neighbor export rules toward the receiver, or null.
    const std::vector<ExportRule>* rules = nullptr;
    /// The receiver's preference for the sender when no prefix pin
    /// applies: its neighbor override, else its class base.
    std::uint32_t pref = 0;
    /// The receiver's relationship tag for the sender (kTags receivers).
    bgp::Community tag;
  };

  FlatSimContext(const topo::AsGraph& graph, const PolicySet& policies);

  [[nodiscard]] const topo::GraphView& view() const { return view_; }

  [[nodiscard]] std::uint8_t flags(Id id) const { return flags_[id]; }
  [[nodiscard]] const Arc& arc(std::uint32_t slot) const { return arcs_[slot]; }
  /// The slot of the same adjacency in `arc_to(slot)`'s row.
  [[nodiscard]] std::uint32_t reverse(std::uint32_t slot) const {
    return reverse_[slot];
  }

  /// Policy of the AS with dense id `id`; throws exactly like
  /// `PolicySet::at` when the AS has no policy (resolved lazily so ASes
  /// that never touch a route keep the seed's don't-ask-don't-throw
  /// behavior).  A kNoPolicy AS whose policy appeared without a
  /// `refresh_policies` throws too: its compiled arcs are stale.
  [[nodiscard]] const AsPolicy& policy(Id id) const {
    const AsPolicy* p = policy_[id];
    return p != nullptr ? *p : missing_policy(id);
  }

  /// Non-throwing policy probe (the delta engine's frontier seeding asks
  /// about ASes that may have no policy at all).
  [[nodiscard]] const AsPolicy* policy_if_present(Id id) const {
    return policy_[id];
  }

  /// The prefix pin `receiver` (a kPrefixPins AS) sets on `prefix`.
  [[nodiscard]] std::optional<std::uint32_t> prefix_pin(
      Id receiver, const bgp::Prefix& prefix) const;

  /// The preference `receiver` assigns to what the sender at its CSR
  /// `slot` offers for `prefix` — ImportPolicy::preference from the
  /// compiled arc, probing the prefix pins of flagged receivers only.
  [[nodiscard]] std::uint32_t import_pref(Id receiver, std::uint32_t slot,
                                          const bgp::Prefix& prefix) const {
    const std::uint8_t f = flags_[receiver];
    if (f != 0) {
      if ((f & kNoPolicy) != 0) (void)policy(receiver);
      if ((f & kPrefixPins) != 0) {
        if (const auto pin = prefix_pin(receiver, prefix)) return *pin;
      }
    }
    return arcs_[slot].pref;
  }

  /// Recompiles the flags, policy pointer, row and reverse arcs of each
  /// `changed` AS against the owning PolicySet after it mutated in place
  /// (new or removed `by_as` entries, per-neighbor rule lists created or
  /// erased, preferences or tagging edited).  Costs O(degree of the
  /// changed ASes) — nothing sized by the whole policy set is rebuilt — so
  /// per-step churn patches the shared context instead of rebuilding it.
  /// Must not run concurrently with any propagation using this context
  /// (same contract as mutating the PolicySet itself).
  void refresh_policies(std::span<const AsNumber> changed);

 private:
  [[noreturn]] const AsPolicy& missing_policy(Id id) const;
  /// Resolves `id`'s policy pointer and flags from the PolicySet.
  void compile_as(Id id);
  /// Compiles CSR `slot` of `row`'s row from the current policy pointers.
  void compile_arc(Id row, std::uint32_t slot);

  topo::GraphView view_;
  std::vector<const AsPolicy*> policy_;
  std::vector<std::uint8_t> flags_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> reverse_;
  const PolicySet* policies_;
};

/// The warm half of a propagation: interning tables and SoA best-route
/// columns, indexed by dense AS id — what a converged state is, and
/// nothing a running fixpoint alone reads (its queue and per-AS event
/// counts are the scratch's `FixpointQueue`).  `converge_cold` resets one
/// per prefix; `sim::DeltaEngine` keeps one converged per origination and
/// re-seeds only the dirty frontier.  Members are engine internals —
/// mutate only through the propagation entry points below (the delta
/// engine is the one other writer).  Non-copyable because community member
/// storage lives in the arena; use `assign_from` for an explicit deep copy.
struct FlatRoutingState {
  FlatRoutingState() : comms(arena) {}
  FlatRoutingState(const FlatRoutingState&) = delete;
  FlatRoutingState& operator=(const FlatRoutingState&) = delete;

  util::MonotonicArena arena;
  PathTable paths;
  CommunityTable comms;

  // Routing state, indexed by dense AS id.
  std::vector<std::uint8_t> has_best;
  std::vector<std::uint8_t> best_rel;  // RelKind: learned_from as seen by
                                       // the owning AS; valid when the
                                       // best route is not self-originated
  std::vector<std::uint32_t> best_path;
  std::vector<std::uint32_t> best_wire;  // best_path with the AS itself
                                         // prepended once: what it sends
  std::vector<std::uint32_t> best_learned;  // dense id of learned_from
  std::vector<std::uint32_t> best_lp;
  std::vector<std::uint32_t> best_router;
  std::vector<std::uint32_t> best_comms;

  /// Number of dense ids this state covers (0 before the first reset).
  [[nodiscard]] std::size_t size() const { return has_best.size(); }

  /// Clears everything for a cold start over `n` dense ids (keeps
  /// capacity; the arena keeps its blocks).
  void reset(std::size_t n);

  /// Deep copy: every interned id and best column is preserved, and all
  /// storage (community members included) is owned by this state.
  void assign_from(const FlatRoutingState& other,
                   StateCopy copy = StateCopy::kCompact);

  [[nodiscard]] std::size_t bytes() const;
};

/// The event queue of one running fixpoint: a FIFO ring over dense ids
/// with an in-queue mark, and per-AS event counts for the non-convergence
/// cap.  Only a running fixpoint reads it, so it lives in the
/// `FlatScratch` that runs one rather than in the states it converges.
struct FixpointQueue {
  std::vector<std::uint8_t> in_queue;
  std::vector<std::uint32_t> processed;  // events per AS in this run
  std::vector<std::uint32_t> ring;       // capacity n + 1
  std::size_t head = 0;
  std::size_t tail = 0;

  /// Empties the queue and zeroes the event counts over `n` dense ids:
  /// the start of every fixpoint and wave.
  void reset(std::size_t n);

  /// Enqueues `id` if not already queued.
  void enqueue(topo::GraphView::Id id) {
    if (in_queue[id] != 0) return;
    in_queue[id] = 1;
    ring[tail] = id;
    tail = (tail + 1) % ring.size();
  }

  [[nodiscard]] bool queued(topo::GraphView::Id id) const {
    return in_queue[id] != 0;
  }
  [[nodiscard]] bool empty() const { return head == tail; }
};

/// Which fan-out produced a converged state (see `run_flat_fixpoint`).
enum class FixpointOrder : std::uint8_t {
  /// Every neighbor of a changed AS is enqueued: the FIFO trajectory of
  /// `testing::compute_prefix_reference`, event for event.
  kExact,
  /// The pruned fan-out (`filtered_enqueue`), taken only on originations
  /// the static wedgie oracle proved to have one stable state.
  kPruned,
};

/// Outcome of one drained event queue.
struct FixpointStats {
  std::size_t events = 0;
  bool converged = true;
  /// Selections where a non-customer-learned route won while a
  /// customer-learned candidate was on the table.  Under typical
  /// (band-separated) preferences this never happens; a non-zero count
  /// means an atypical assignment was exercised, i.e. the instance may
  /// admit more than one stable fixpoint (an RFC 4264 "wedgie") and a
  /// warm-started replay is not guaranteed to land on the same one as a
  /// cold run.  It is the trigger that sends a pruned run to exact replay.
  std::size_t inversion_selections = 0;
  /// The fan-out of the run these stats count.  From `converge_cold` and
  /// the batch runner, kExact means the oracle flagged the origination or
  /// its pruned run was discarded, i.e. the origination may have several
  /// stable states.
  FixpointOrder order = FixpointOrder::kExact;
  /// True when `converge_cold` or the batch runner discarded a pruned run
  /// (it tripped `inversion_selections` or the per-AS cap) and reran in
  /// exact order; the discarded run's events are not counted.
  bool pruned_discarded = false;
};

/// Drains the event queue until quiescent — the one fixpoint loop shared
/// by `converge_cold` (cold seed), the batch runner (its bases and their
/// prefix waves) and `sim::DeltaEngine` (dirty frontier seed).  The caller
/// has reset and seeded `queue`; its per-AS counts hold this run against
/// `options.max_process_per_as`.
///
/// `filtered_enqueue` prunes the change fan-out: instead of enqueueing
/// every neighbor of a changed AS, each arc is tested with a sound
/// optimistic bound (exact import preference, path one hop longer than
/// the sender's, prepends/denies/loops ignored) against the neighbor's
/// stored best, and the neighbor is enqueued only when the sender's offer
/// could win the decision process, the neighbor's best was learned from
/// the sender, or the neighbor holds no route.  A pruned offer can never
/// be missed later: any worsening of a neighbor's best happens inside a
/// full pull that rescans all of its arcs.  Pruning changes the
/// processing ORDER, so it is only safe when the fixpoint is unique —
/// `converge_cold` and `sim::DeltaEngine`'s frontier waves enable it on
/// originations the static wedgie oracle proved order-insensitive.
[[nodiscard]] FixpointStats run_flat_fixpoint(const FlatSimContext& context,
                                              const Origination& origination,
                                              const FailedEdges* failed,
                                              const PropagationOptions& options,
                                              FixpointQueue& queue,
                                              FlatRoutingState& state,
                                              bool filtered_enqueue = false);

/// Materializes the public value-typed result from a converged state.
[[nodiscard]] PrefixRouting materialize_routing(const FlatSimContext& context,
                                                const Origination& origination,
                                                const FlatRoutingState& state,
                                                bool converged,
                                                std::size_t process_events);

/// Best route of one AS from a converged state without materializing the
/// whole table; nullopt when the AS is unknown or holds no route.
[[nodiscard]] std::optional<bgp::Route> flat_route_at(
    const FlatSimContext& context, const Origination& origination,
    const FlatRoutingState& state, AsNumber as);

/// The Adj-RIB-In of `receiver` in a converged healthy-network state (the
/// looking-glass view): one route per neighbor that offers one, in
/// `receiver`'s neighbor order.  Each route comes from the per-arc offer
/// code the fixpoint pulls its candidates with, so the result equals
/// `testing::PropagationEngine::route_as_received` (tests/testing/
/// propagation_reference.h) over `receiver`'s neighbors.
/// Interns wire paths and community sets into `state`; its best columns
/// are untouched.  Empty when `receiver` is not in the graph.
[[nodiscard]] std::vector<bgp::Route> flat_adj_rib_in(
    const FlatSimContext& context, const Origination& origination,
    FlatRoutingState& state, AsNumber receiver);

class PrefixSeeds;
struct BatchStats;
using BatchVisit = std::function<void(std::size_t index,
                                      const FixpointStats& stats,
                                      FlatRoutingState& state)>;

/// The per-worker propagation scratch, reused (never freed) across
/// prefixes and waves: a routing state for cold callers that keep none of
/// their own (and where the delta engine runs a first converge), the batch
/// runner's prefix-agnostic base, the fixpoint queue every run uses, the
/// static oracle's cone, and the delta engine's dirty-path marks.  Not
/// thread-safe; one propagation at a time.
class FlatScratch {
 public:
  FlatScratch() = default;

  /// The scratch's own routing state: what cold callers converge into and
  /// read; valid until the scratch's next propagation into it.
  [[nodiscard]] FlatRoutingState& state() { return state_; }

  /// High-water mark of the bytes held by the scratch's own routing state.
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }

 private:
  friend class DeltaEngine;
  friend FixpointStats converge_cold(const FlatSimContext& context,
                                     const Origination& origination,
                                     const FailedEdges* failed,
                                     const PropagationOptions& options,
                                     FlatScratch& scratch,
                                     FlatRoutingState& state);
  friend FixpointStats converge_exact(const FlatSimContext& context,
                                      const Origination& origination,
                                      const FailedEdges* failed,
                                      const PropagationOptions& options,
                                      FlatScratch& scratch,
                                      FlatRoutingState& state);
  friend BatchStats converge_range(const FlatSimContext& context,
                                   const PrefixSeeds& seeds,
                                   std::span<const Origination> originations,
                                   util::IndexRange range,
                                   const PropagationOptions& options,
                                   FlatScratch& scratch,
                                   const BatchVisit& visit);

  void note_peak();

  FlatRoutingState state_;
  FlatRoutingState base_;  // the batch runner's current base
  FixpointQueue queue_;
  /// Delta engine: per path-table node, (epoch << 1) | dirty.  Stale
  /// epochs read as unvisited, so no per-wave clearing of the whole array.
  std::vector<std::uint64_t> mark_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> chain_;       // parent-chain walk scratch
  std::vector<topo::GraphView::Id> cone_;  // static-oracle BFS scratch
  std::vector<char> in_cone_;
  std::size_t peak_bytes_ = 0;
};

/// The cold fixpoint in the order the origination's uniqueness allows.
/// First the static wedgie oracle: BFS the origin's uphill cone (the
/// closure over provider edges — by valley-free export, exactly the ASes
/// that can ever hold a customer-learned route for the prefix), then at
/// every provider X of a cone member compare the member's effective
/// import preference at X with every neighbor of X that can offer a
/// non-customer candidate (any provider of X, or a peer of X in the
/// cone).  A rival ranked at or above the customer, or a prefix pin at X
/// (which gives every sender one preference), flags the origination.
/// The preferences are the context's compiled arcs, the ones the fixpoint
/// itself reads.  Then reset `state`, install the origin's self route
/// (kSelfLocalPref, empty path), enqueue its neighbors and run
/// `run_flat_fixpoint`: with the pruned fan-out when the oracle proved
/// the fixpoint unique, in exact order when it flagged the origination.
/// A pruned run that trips `inversion_selections` or the per-AS cap is
/// discarded and rerun in exact order, as a delta wave is; the stats
/// count the kept run and say which order produced it.  Routes equal the
/// exact order's for every input (tests/sim/flat_equivalence_test.cc and
/// the random worlds of tests/sim/oracle_fuzz_test.cc).
///
/// The run for one isolated origination: `compute_prefix_flat` and the
/// spec Timeline read `scratch.state()`, `sim::DeltaEngine` copies it into
/// a new warm state.  A batch of originations takes `converge_batch`,
/// which converges each origin once.  Reentrant across distinct scratches
/// and states: the context is read-only, so any number of concurrent calls
/// may share it.
[[nodiscard]] FixpointStats converge_cold(const FlatSimContext& context,
                                          const Origination& origination,
                                          const FailedEdges* failed,
                                          const PropagationOptions& options,
                                          FlatScratch& scratch,
                                          FlatRoutingState& state);

/// `converge_cold` without the oracle: always the exact FIFO trajectory,
/// so `events` equals `testing::compute_prefix_reference`'s
/// `process_events`.  For the delta engine's in-place exact replays,
/// churn's cold reference mode, and tests and benches that compare
/// trajectories with the reference engine.
[[nodiscard]] FixpointStats converge_exact(const FlatSimContext& context,
                                           const Origination& origination,
                                           const FailedEdges* failed,
                                           const PropagationOptions& options,
                                           FlatScratch& scratch,
                                           FlatRoutingState& state);

/// `converge_cold` followed by `materialize_routing`.  Its routes equal
/// `testing::compute_prefix_reference`'s for every input; its
/// `process_events` does only when the origination ran in exact order
/// (`converge_exact` followed by `materialize_routing` always matches
/// them; golden-tested in tests/sim/flat_equivalence_test.cc).
[[nodiscard]] PrefixRouting compute_prefix_flat(
    const FlatSimContext& context, const Origination& origination,
    const FailedEdges* failed, const PropagationOptions& options,
    FlatScratch& scratch);

/// A mutex-guarded free list of FlatScratch instances for parallel
/// shard-and-merge callers: workers lease a warmed scratch per prefix
/// (acquisition cost is negligible against a fixpoint) so scratch memory
/// scales with worker count, not prefix count, and nothing leaks into
/// thread-locals on long-lived pool threads.
class FlatScratchPool {
 public:
  class Lease {
   public:
    Lease(FlatScratchPool* pool, std::unique_ptr<FlatScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    ~Lease() {
      if (scratch_ != nullptr) pool_->release(std::move(scratch_));
    }
    Lease(Lease&&) = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;

    [[nodiscard]] FlatScratch& operator*() const { return *scratch_; }

   private:
    FlatScratchPool* pool_;
    std::unique_ptr<FlatScratch> scratch_;
  };

  [[nodiscard]] Lease acquire();

 private:
  void release(std::unique_ptr<FlatScratch> scratch);

  std::mutex mutex_;
  std::vector<std::unique_ptr<FlatScratch>> free_;
};

// ------------------------------------------------------------- the batch --

/// Where policy names each prefix: for every prefix some policy keys a
/// rule on, the sorted, deduplicated dense ids of the ASes whose inputs for
/// that prefix differ from a prefix no policy names — every AS that pins
/// it, the receiver of every per-neighbor export rule naming it, every
/// neighbor of an AS with an any-neighbor rule naming it, and the
/// `advertise_to` of every conditional advert naming it.  A snapshot of
/// the context's policies: it lives outside the context, and a batch
/// builds one per run, so no list outlives a policy mutation.
class PrefixSeeds {
 public:
  using Id = topo::GraphView::Id;

  explicit PrefixSeeds(const FlatSimContext& context);

  /// The seed ids of `prefix`; empty when no policy names it.
  [[nodiscard]] std::span<const Id> of(const bgp::Prefix& prefix) const;

  /// True when some policy keys a pin, an export rule or a conditional
  /// advert on `prefix`, whether or not that names an AS of the graph.
  [[nodiscard]] bool named(const bgp::Prefix& prefix) const {
    return ranges_.find(key_of(prefix)) != nullptr;
  }

  /// A prefix no policy names: what the batch runner converges each
  /// origin's prefix-agnostic base for.
  [[nodiscard]] const bgp::Prefix& unnamed() const { return unnamed_; }

 private:
  /// A prefix packed into one map key (never FlatMap64::kEmptyKey).
  [[nodiscard]] static std::uint64_t key_of(const bgp::Prefix& prefix) {
    return (std::uint64_t{prefix.network()} << 8) | prefix.length();
  }

  /// Packed prefix -> its group g; the group's ids are
  /// ids_[offsets_[g], offsets_[g + 1]).
  util::FlatMap64 ranges_;
  std::vector<std::uint32_t> offsets_;
  std::vector<Id> ids_;
  bgp::Prefix unnamed_;
};

/// What a batch (or one range of it) ran, by kind of run.  A base is an
/// origin's prefix-agnostic fixpoint and belongs to no origination, so how
/// many run depends on where the list is cut; waves and exact runs are
/// the originations' own runs, one each, at any cut.  Seconds are summed
/// over the workers; with the oracle's they cover the whole range but the
/// visits.
struct BatchStats {
  double oracle_seconds = 0.0;
  std::size_t base_converges = 0;
  std::size_t base_events = 0;
  double base_seconds = 0.0;
  std::size_t waves = 0;
  std::size_t wave_events = 0;
  double wave_seconds = 0.0;
  std::size_t exact_runs = 0;
  std::size_t exact_events = 0;
  double exact_seconds = 0.0;
  /// Waves (or bases) that tripped `inversion_selections` or the per-AS
  /// cap and were rerun in exact order; their events are not counted.
  std::size_t discarded = 0;
};

/// One contiguous range of a batch, in list order, in one scratch: the
/// static wedgie oracle runs once per origination.  A flagged origination
/// runs in exact order (`converge_exact`).  A proven-unique one is derived
/// from its origin's prefix-agnostic base — the origin's fixpoint for
/// `seeds.unnamed()`, converged with the pruned fan-out the first time
/// the range meets the origin and kept while consecutive originations
/// share it — by a slot copy of the base and a pruned wave
/// (`run_flat_fixpoint` with `filtered_enqueue`) seeded at
/// `seeds.of(prefix)`, the origin excepted.  A base or wave that trips
/// `inversion_selections` or the per-AS cap is discarded for the exact
/// run.  `visit(index, stats, state)` then reads the converged state;
/// the stats count the origination's own run (its wave or its exact run),
/// never a base.  Healthy network only.
///
/// Why a wave lands on the exact order's routes: the oracle's checks for
/// the prefix are its checks for the unnamed prefix plus the prefix pins,
/// so a prefix proven unique proves its base unique.  The base is a stable
/// state whose inputs differ from the prefix's only at the seeds, and a
/// pruned wave from such a state reaches the unique fixpoint — the
/// argument `DeltaEngine`'s frontier waves rest on.
BatchStats converge_range(const FlatSimContext& context,
                          const PrefixSeeds& seeds,
                          std::span<const Origination> originations,
                          util::IndexRange range,
                          const PropagationOptions& options,
                          FlatScratch& scratch, const BatchVisit& visit);

/// Contiguous ranges per worker the batch runner cuts a list into: enough
/// for the dynamic claim to balance ranges of unequal cost, few enough
/// that most originations find their origin's base already converged.
inline constexpr std::size_t kBatchRangesPerThread = 8;

/// The batch runner, shared by `run_simulation` and
/// `ChurnSimulator::run_initial`: cuts `originations` into contiguous
/// ranges (one on a sequential run, `kBatchRangesPerThread` per thread of
/// `pool`), runs each with `converge_range` on one worker in a leased
/// scratch, building a `start()` result through `visit(result, index,
/// stats, state)`, and hands the results to `merge(result)` on the calling
/// thread in range order — so whatever `merge` builds is the same at any
/// thread count.
template <typename Start, typename Visit, typename Merge>
void converge_batch(const FlatSimContext& context, const PrefixSeeds& seeds,
                    std::span<const Origination> originations,
                    const PropagationOptions& options, util::ThreadPool* pool,
                    FlatScratchPool& scratches, Start&& start, Visit&& visit,
                    Merge&& merge) {
  const std::vector<util::IndexRange> ranges = util::split_ranges(
      originations.size(),
      pool == nullptr ? 1 : pool->size() * kBatchRangesPerThread);
  util::shard_and_merge(
      pool, ranges.size(),
      [&](std::size_t r) {
        auto result = start();
        const auto lease = scratches.acquire();
        (void)converge_range(
            context, seeds, originations, ranges[r], options, *lease,
            [&](std::size_t i, const FixpointStats& stats,
                FlatRoutingState& state) { visit(result, i, stats, state); });
        return result;
      },
      [&](std::size_t, auto& result) { merge(result); });
}

}  // namespace bgpolicy::sim
