// A BGP routing table as seen from one vantage point — the unit of input
// for every inference algorithm in the paper ("routing table from the
// viewpoint of AS u", Fig. 4).
//
// Two flavors share this type:
//  * collector tables (Oregon RouteViews style): one route per collector
//    peer per prefix, AS-path only attributes trustworthy;
//  * looking-glass tables: the Adj-RIB-In of a single AS, local-pref and
//    communities visible.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/decision.h"
#include "bgp/prefix.h"
#include "bgp/route.h"
#include "util/ids.h"

namespace bgpolicy::bgp {

class BgpTable {
 public:
  BgpTable() = default;
  explicit BgpTable(util::AsNumber owner) : owner_(owner) {}

  [[nodiscard]] util::AsNumber owner() const { return owner_; }

  /// Adds a route.  If a route from the same neighbor already exists for the
  /// prefix it is replaced (BGP implicit withdraw semantics).
  void add(Route route);

  /// Adds many routes with the same observable semantics as calling add()
  /// on each in order, in time linear in the batch.  A recorded table
  /// arrives prefix by prefix, so the batch is taken one run of same-prefix
  /// routes at a time: one entry lookup and one slot reservation per run,
  /// and an earlier route from the same neighbor is found by scanning the
  /// prefix's slots, which allocates nothing.  A prefix that may hold more
  /// than kBatchScanLimit routes gets a neighbor -> slot index instead,
  /// built once per batch, so no route scans more than kBatchScanLimit
  /// slots.  The batch-load path for recorded tables
  /// (io::deserialize_table, vantage-view construction).
  void add_batch(std::vector<Route> routes);

  /// The most slots add_batch scans for one route (see add_batch).
  static constexpr std::size_t kBatchScanLimit = 64;

  /// Removes the route for `prefix` learned from `neighbor`, if any.
  void withdraw(const Prefix& prefix, util::AsNumber neighbor);

  /// All routes for a prefix (possibly empty).
  [[nodiscard]] std::span<const Route> routes(const Prefix& prefix) const;

  /// Best route per the decision process; nullptr when the prefix is absent.
  [[nodiscard]] const Route* best(const Prefix& prefix) const;

  [[nodiscard]] bool contains(const Prefix& prefix) const;
  [[nodiscard]] std::size_t prefix_count() const { return entries_.size(); }
  [[nodiscard]] std::size_t route_count() const { return route_count_; }

  /// All prefixes, in first-insertion order.  Deterministic iteration is
  /// what lets io-serialized tables round-trip byte-identically and makes
  /// every for_each consumer independent of hash-map layout
  /// (io/artifact_codec.h relies on this).
  [[nodiscard]] std::vector<Prefix> prefixes() const { return order_; }

  /// Calls fn(prefix, all-routes) for every entry, in first-insertion
  /// prefix order.
  void for_each(const std::function<void(const Prefix&,
                                         std::span<const Route>)>& fn) const;

  /// Calls fn(best-route) for every prefix that has at least one route, in
  /// first-insertion prefix order.
  void for_each_best(const std::function<void(const Route&)>& fn) const;

  /// Calls fn(route) with every route moved out, in for_each order, and
  /// leaves the table empty (owner kept) — how sim::merge_sim_chunk
  /// replays a chunk's table into the merged one without copying.
  void drain(const std::function<void(Route&&)>& fn);

 private:
  util::AsNumber owner_;
  std::unordered_map<Prefix, std::vector<Route>> entries_;
  /// Prefixes in first-insertion order (kept in sync with entries_).
  std::vector<Prefix> order_;
  std::size_t route_count_ = 0;
};

}  // namespace bgpolicy::bgp
