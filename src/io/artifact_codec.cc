#include "io/artifact_codec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/artifact_store.h"
#include "io/binary_table.h"

namespace bgpolicy::io {

namespace {

constexpr char kMagic[4] = {'B', 'G', 'P', 'A'};

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint8_t raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    out_->insert(out_->end(), raw, raw + sizeof(T));
  }

  void put_string(std::string_view text) {
    put(static_cast<std::uint64_t>(text.size()));
    put_bytes(text.data(), text.size());
  }

  /// A column of values as laid out in memory, in one copy (AS numbers as
  /// their u32 values).
  template <typename T>
  void put_column(std::span<const T> column) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(column.data(), column.size_bytes());
  }

  [[nodiscard]] std::vector<std::uint8_t>& buffer() { return *out_; }

 private:
  void put_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    out_->insert(out_->end(), bytes, bytes + size);
  }

  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (pos_ + sizeof(T) > bytes_.size()) {
      throw std::invalid_argument("artifact: truncated input");
    }
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  /// A length prefix that still has to fit in the remaining input — the
  /// untrusted-count guard every container read goes through.
  [[nodiscard]] std::size_t get_count(std::size_t min_element_bytes = 1) {
    const std::uint64_t count = get<std::uint64_t>();
    if (count > (bytes_.size() - pos_) / std::max<std::size_t>(
                                             1, min_element_bytes)) {
      throw std::invalid_argument("artifact: implausible element count");
    }
    return static_cast<std::size_t>(count);
  }

  std::string get_string() {
    const std::size_t size = get_count();
    std::string text(reinterpret_cast<const char*>(bytes_.data() + pos_),
                     size);
    pos_ += size;
    return text;
  }

  std::span<const std::uint8_t> get_blob() {
    const std::size_t size = get_count();
    const std::span<const std::uint8_t> blob = bytes_.subspan(pos_, size);
    pos_ += size;
    return blob;
  }

  /// `count` stored values copied into a column: one bounds check and one
  /// copy.
  template <typename T>
  std::vector<T> get_column(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) {
      throw std::invalid_argument("artifact: truncated input");
    }
    std::vector<T> out(count);
    if (count != 0) {
      std::memcpy(out.data(), bytes_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return out;
  }

  /// `count` stored u16 lengths turned into count + 1 offsets; throws
  /// unless they sum to `total`.
  std::vector<std::uint32_t> get_offsets(std::size_t count,
                                         std::uint64_t total) {
    if (count > remaining() / sizeof(std::uint16_t)) {
      throw std::invalid_argument("artifact: truncated input");
    }
    std::vector<std::uint32_t> out(count + 1);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count; ++i) {
      std::uint16_t length;
      std::memcpy(&length, bytes_.data() + pos_, sizeof(length));
      pos_ += sizeof(length);
      sum += length;
      if (sum > total) {
        throw std::invalid_argument("artifact: lengths past their total");
      }
      out[i + 1] = static_cast<std::uint32_t>(sum);
    }
    if (sum != total) {
      throw std::invalid_argument("artifact: lengths short of their total");
    }
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ primitives --

void put_as(Writer& w, util::AsNumber as) { w.put(as.value()); }
util::AsNumber get_as(Reader& r) {
  return util::AsNumber(r.get<std::uint32_t>());
}

void put_as_vector(Writer& w, std::span<const util::AsNumber> ases) {
  w.put(static_cast<std::uint64_t>(ases.size()));
  w.put_column(ases);
}
std::vector<util::AsNumber> get_as_vector(Reader& r) {
  return r.get_column<util::AsNumber>(r.get_count(sizeof(std::uint32_t)));
}

void put_prefix(Writer& w, const bgp::Prefix& prefix) {
  w.put(prefix.network());
  w.put(prefix.length());
}
bgp::Prefix get_prefix(Reader& r) {
  const std::uint32_t network = r.get<std::uint32_t>();
  const std::uint8_t length = r.get<std::uint8_t>();
  if (length > 32) throw std::invalid_argument("artifact: bad prefix length");
  return bgp::Prefix(network, length);
}

void put_rel(Writer& w, topo::RelKind kind) {
  w.put(static_cast<std::uint8_t>(kind));
}
topo::RelKind get_rel(Reader& r) {
  const std::uint8_t raw = r.get<std::uint8_t>();
  if (raw > 2) throw std::invalid_argument("artifact: bad relationship kind");
  return static_cast<topo::RelKind>(raw);
}

void put_table(Writer& w, const bgp::BgpTable& table) {
  // A length-prefixed blob, the table encoded straight into the artifact
  // buffer: the prefix is patched once the table's size is known.
  std::vector<std::uint8_t>& out = w.buffer();
  const std::size_t length_at = out.size();
  w.put(std::uint64_t{0});
  append_table(table, out);
  const std::uint64_t length = out.size() - length_at - sizeof(std::uint64_t);
  std::memcpy(out.data() + length_at, &length, sizeof(length));
}
bgp::BgpTable get_table(Reader& r) {
  // deserialize_table rejects its own corruption (magic, bounds, trailing
  // bytes) with the same invalid_argument contract.
  return deserialize_table(r.get_blob());
}

/// Key-sorted view over an unordered_map's entries (no copies): encoding
/// must be a pure function of content, not of hash-table iteration order.
template <typename Map>
std::vector<const typename Map::value_type*> sorted_entries(const Map& map) {
  std::vector<const typename Map::value_type*> entries;
  entries.reserve(map.size());
  for (const auto& entry : map) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(), [](const auto* a, const auto* b) {
    return a->first < b->first;
  });
  return entries;
}

// -------------------------------------------------------------- as graph --

void put_graph(Writer& w, const topo::AsGraph& graph) {
  put_as_vector(w, graph.ases());
  const auto edges = graph.edges();
  w.put(static_cast<std::uint64_t>(edges.size()));
  for (const topo::EdgeRecord& edge : edges) {
    put_as(w, edge.a);
    put_as(w, edge.b);
    put_rel(w, edge.b_is_to_a);
  }
}

topo::AsGraph get_graph(Reader& r) {
  topo::AsGraph graph;
  for (const auto as : get_as_vector(r)) graph.add_as(as);
  const std::size_t edges = r.get_count(2 * sizeof(std::uint32_t) + 1);
  for (std::size_t i = 0; i < edges; ++i) {
    const util::AsNumber a = get_as(r);
    const util::AsNumber b = get_as(r);
    const topo::RelKind kind = get_rel(r);
    // Replaying the creation-order records reproduces per-node neighbor
    // ordering exactly (topology/as_graph.h EdgeRecord).
    switch (kind) {
      case topo::RelKind::kCustomer: graph.add_provider_customer(a, b); break;
      case topo::RelKind::kPeer: graph.add_peer_peer(a, b); break;
      case topo::RelKind::kProvider:
        throw std::invalid_argument("artifact: bad edge record");
    }
  }
  return graph;
}

// ----------------------------------------------------------- ground truth --

void put_topology(Writer& w, const topo::Topology& topo) {
  put_graph(w, topo.graph);
  const auto tiers = sorted_entries(topo.tier);
  w.put(static_cast<std::uint64_t>(tiers.size()));
  for (const auto* entry : tiers) {
    put_as(w, entry->first);
    w.put(static_cast<std::uint8_t>(entry->second));
  }
  put_as_vector(w, topo.tier1);
  put_as_vector(w, topo.tier2);
  put_as_vector(w, topo.tier3);
  put_as_vector(w, topo.stubs);
}

topo::Topology get_topology(Reader& r) {
  topo::Topology topo;
  topo.graph = get_graph(r);
  const std::size_t tiers = r.get_count(sizeof(std::uint32_t) + 1);
  for (std::size_t i = 0; i < tiers; ++i) {
    const util::AsNumber as = get_as(r);
    const std::uint8_t raw = r.get<std::uint8_t>();
    if (raw < 1 || raw > 4) throw std::invalid_argument("artifact: bad tier");
    topo.tier.emplace(as, static_cast<topo::Tier>(raw));
  }
  topo.tier1 = get_as_vector(r);
  topo.tier2 = get_as_vector(r);
  topo.tier3 = get_as_vector(r);
  topo.stubs = get_as_vector(r);
  return topo;
}

void put_plan(Writer& w, const topo::PrefixPlan& plan) {
  w.put(static_cast<std::uint64_t>(plan.prefixes.size()));
  for (const topo::OriginatedPrefix& op : plan.prefixes) {
    put_prefix(w, op.prefix);
    put_as(w, op.origin);
    w.put(static_cast<std::uint8_t>(op.allocated_from.has_value()));
    if (op.allocated_from) put_as(w, *op.allocated_from);
  }
  const auto blocks = sorted_entries(plan.transit_block);
  w.put(static_cast<std::uint64_t>(blocks.size()));
  for (const auto* entry : blocks) {
    put_as(w, entry->first);
    put_prefix(w, entry->second);
  }
}

topo::PrefixPlan get_plan(Reader& r) {
  topo::PrefixPlan plan;
  const std::size_t prefixes = r.get_count(sizeof(std::uint32_t) * 2 + 2);
  plan.prefixes.reserve(prefixes);
  for (std::size_t i = 0; i < prefixes; ++i) {
    topo::OriginatedPrefix op;
    op.prefix = get_prefix(r);
    op.origin = get_as(r);
    if (r.get<std::uint8_t>() != 0) op.allocated_from = get_as(r);
    // by_origin indexes prefixes in appearance order — the same order
    // allocate_prefixes appends them (prefix_alloc.cc).
    plan.by_origin[op.origin].push_back(plan.prefixes.size());
    plan.prefixes.push_back(op);
  }
  const std::size_t blocks = r.get_count(sizeof(std::uint32_t) * 2 + 1);
  for (std::size_t i = 0; i < blocks; ++i) {
    const util::AsNumber as = get_as(r);
    plan.transit_block.emplace(as, get_prefix(r));
  }
  return plan;
}

void put_export_rule(Writer& w, const sim::ExportRule& rule) {
  w.put(static_cast<std::uint8_t>(rule.prefix.has_value()));
  if (rule.prefix) put_prefix(w, *rule.prefix);
  w.put(static_cast<std::uint8_t>(rule.origin.has_value()));
  if (rule.origin) put_as(w, *rule.origin);
  w.put(static_cast<std::uint8_t>(rule.action));
  put_as(w, rule.target);
  w.put(rule.prepend_times);
}

sim::ExportRule get_export_rule(Reader& r) {
  sim::ExportRule rule;
  if (r.get<std::uint8_t>() != 0) rule.prefix = get_prefix(r);
  if (r.get<std::uint8_t>() != 0) rule.origin = get_as(r);
  const std::uint8_t action = r.get<std::uint8_t>();
  if (action > static_cast<std::uint8_t>(sim::ExportAction::kPrepend)) {
    throw std::invalid_argument("artifact: bad export action");
  }
  rule.action = static_cast<sim::ExportAction>(action);
  rule.target = get_as(r);
  rule.prepend_times = r.get<std::uint8_t>();
  return rule;
}

void put_policy(Writer& w, const sim::AsPolicy& policy) {
  w.put(policy.import.customer_pref);
  w.put(policy.import.peer_pref);
  w.put(policy.import.provider_pref);
  const auto neighbor_overrides =
      sorted_entries(policy.import.neighbor_override);
  w.put(static_cast<std::uint64_t>(neighbor_overrides.size()));
  for (const auto* entry : neighbor_overrides) {
    put_as(w, entry->first);
    w.put(entry->second);
  }
  const auto prefix_overrides = sorted_entries(policy.import.prefix_override);
  w.put(static_cast<std::uint64_t>(prefix_overrides.size()));
  for (const auto* entry : prefix_overrides) {
    put_prefix(w, entry->first);
    w.put(entry->second);
  }

  const auto per_neighbor = sorted_entries(policy.export_.per_neighbor);
  w.put(static_cast<std::uint64_t>(per_neighbor.size()));
  for (const auto* entry : per_neighbor) {
    put_as(w, entry->first);
    w.put(static_cast<std::uint64_t>(entry->second.size()));
    for (const sim::ExportRule& rule : entry->second) put_export_rule(w, rule);
  }
  w.put(static_cast<std::uint64_t>(policy.export_.any_neighbor.size()));
  for (const sim::ExportRule& rule : policy.export_.any_neighbor) {
    put_export_rule(w, rule);
  }

  w.put(static_cast<std::uint8_t>(policy.community.enabled));
  w.put(static_cast<std::uint8_t>(policy.community.published));
  w.put(policy.community.peer_base);
  w.put(policy.community.provider_base);
  w.put(policy.community.customer_base);
  w.put(policy.community.values_per_class);

  put_as_vector(w, policy.no_export_targets);
  w.put(static_cast<std::uint64_t>(policy.conditional.size()));
  for (const sim::ConditionalAdvertisement& cond : policy.conditional) {
    put_prefix(w, cond.prefix);
    put_as(w, cond.advertise_to);
    put_as(w, cond.watch_provider);
  }
}

sim::AsPolicy get_policy(Reader& r) {
  sim::AsPolicy policy;
  policy.import.customer_pref = r.get<std::uint32_t>();
  policy.import.peer_pref = r.get<std::uint32_t>();
  policy.import.provider_pref = r.get<std::uint32_t>();
  const std::size_t neighbor_overrides = r.get_count(8);
  for (std::size_t i = 0; i < neighbor_overrides; ++i) {
    const util::AsNumber as = get_as(r);
    policy.import.neighbor_override.emplace(as, r.get<std::uint32_t>());
  }
  const std::size_t prefix_overrides = r.get_count(9);
  for (std::size_t i = 0; i < prefix_overrides; ++i) {
    const bgp::Prefix prefix = get_prefix(r);
    policy.import.prefix_override.emplace(prefix, r.get<std::uint32_t>());
  }

  const std::size_t per_neighbor = r.get_count(12);
  for (std::size_t i = 0; i < per_neighbor; ++i) {
    const util::AsNumber as = get_as(r);
    auto& rules = policy.export_.per_neighbor[as];
    const std::size_t rule_count = r.get_count(8);
    rules.reserve(rule_count);
    for (std::size_t j = 0; j < rule_count; ++j) {
      rules.push_back(get_export_rule(r));
    }
  }
  const std::size_t any_rules = r.get_count(8);
  policy.export_.any_neighbor.reserve(any_rules);
  for (std::size_t i = 0; i < any_rules; ++i) {
    policy.export_.any_neighbor.push_back(get_export_rule(r));
  }

  policy.community.enabled = r.get<std::uint8_t>() != 0;
  policy.community.published = r.get<std::uint8_t>() != 0;
  policy.community.peer_base = r.get<std::uint16_t>();
  policy.community.provider_base = r.get<std::uint16_t>();
  policy.community.customer_base = r.get<std::uint16_t>();
  policy.community.values_per_class = r.get<std::uint16_t>();

  policy.no_export_targets = get_as_vector(r);
  const std::size_t conditionals = r.get_count(13);
  policy.conditional.reserve(conditionals);
  for (std::size_t i = 0; i < conditionals; ++i) {
    sim::ConditionalAdvertisement cond;
    cond.prefix = get_prefix(r);
    cond.advertise_to = get_as(r);
    cond.watch_provider = get_as(r);
    policy.conditional.push_back(cond);
  }
  return policy;
}

void put_policy_truth(Writer& w, const sim::GroundTruth& truth) {
  w.put(static_cast<std::uint64_t>(truth.origin_units.size()));
  for (const sim::SelectiveUnit& unit : truth.origin_units) {
    put_as(w, unit.origin);
    put_prefix(w, unit.prefix);
    put_as(w, unit.provider);
    w.put(static_cast<std::uint8_t>(unit.withheld));
    w.put(static_cast<std::uint8_t>(unit.via_community));
  }
  w.put(static_cast<std::uint64_t>(truth.prepend_units.size()));
  for (const sim::PrependUnit& unit : truth.prepend_units) {
    put_as(w, unit.origin);
    put_as(w, unit.provider);
    w.put(unit.times);
  }
  w.put(static_cast<std::uint64_t>(truth.intermediate_units.size()));
  for (const sim::IntermediateSelective& unit : truth.intermediate_units) {
    put_as(w, unit.intermediate);
    put_as(w, unit.customer);
    put_as(w, unit.provider);
  }
  w.put(static_cast<std::uint64_t>(truth.split_specifics.size()));
  for (const bgp::Prefix& prefix : truth.split_specifics) {
    put_prefix(w, prefix);
  }
  const auto aggregated = sorted_entries(truth.aggregated_by);
  w.put(static_cast<std::uint64_t>(aggregated.size()));
  for (const auto* entry : aggregated) {
    put_prefix(w, entry->first);
    put_as(w, entry->second);
  }
  w.put(static_cast<std::uint64_t>(truth.peer_withholders.size()));
  for (const auto& [pair, fraction] : truth.peer_withholders) {
    put_as(w, pair.first);
    put_as(w, pair.second);
    w.put(fraction);
  }
}

sim::GroundTruth get_policy_truth(Reader& r) {
  sim::GroundTruth truth;
  const std::size_t origin_units = r.get_count(15);
  truth.origin_units.reserve(origin_units);
  for (std::size_t i = 0; i < origin_units; ++i) {
    sim::SelectiveUnit unit;
    unit.origin = get_as(r);
    unit.prefix = get_prefix(r);
    unit.provider = get_as(r);
    unit.withheld = r.get<std::uint8_t>() != 0;
    unit.via_community = r.get<std::uint8_t>() != 0;
    truth.origin_units.push_back(unit);
  }
  const std::size_t prepend_units = r.get_count(9);
  truth.prepend_units.reserve(prepend_units);
  for (std::size_t i = 0; i < prepend_units; ++i) {
    sim::PrependUnit unit;
    unit.origin = get_as(r);
    unit.provider = get_as(r);
    unit.times = r.get<std::uint8_t>();
    truth.prepend_units.push_back(unit);
  }
  const std::size_t intermediates = r.get_count(12);
  truth.intermediate_units.reserve(intermediates);
  for (std::size_t i = 0; i < intermediates; ++i) {
    sim::IntermediateSelective unit;
    unit.intermediate = get_as(r);
    unit.customer = get_as(r);
    unit.provider = get_as(r);
    truth.intermediate_units.push_back(unit);
  }
  const std::size_t splits = r.get_count(5);
  truth.split_specifics.reserve(splits);
  for (std::size_t i = 0; i < splits; ++i) {
    truth.split_specifics.push_back(get_prefix(r));
  }
  const std::size_t aggregated = r.get_count(9);
  for (std::size_t i = 0; i < aggregated; ++i) {
    const bgp::Prefix prefix = get_prefix(r);
    truth.aggregated_by.emplace(prefix, get_as(r));
  }
  const std::size_t withholders = r.get_count(16);
  truth.peer_withholders.reserve(withholders);
  for (std::size_t i = 0; i < withholders; ++i) {
    const util::AsNumber peer = get_as(r);
    const util::AsNumber target = get_as(r);
    truth.peer_withholders.push_back({{peer, target}, r.get<double>()});
  }
  return truth;
}

void put_ground_truth(Writer& w, const core::GroundTruth& truth) {
  put_topology(w, truth.topo);
  put_plan(w, truth.plan);

  const auto policies = sorted_entries(truth.gen.policies.by_as);
  w.put(static_cast<std::uint64_t>(policies.size()));
  for (const auto* entry : policies) {
    put_as(w, entry->first);
    put_policy(w, entry->second);
  }
  w.put(static_cast<std::uint64_t>(truth.gen.split_extras.size()));
  for (const topo::OriginatedPrefix& op : truth.gen.split_extras) {
    put_prefix(w, op.prefix);
    put_as(w, op.origin);
    w.put(static_cast<std::uint8_t>(op.allocated_from.has_value()));
    if (op.allocated_from) put_as(w, *op.allocated_from);
  }
  put_policy_truth(w, truth.gen.truth);

  w.put(static_cast<std::uint64_t>(truth.originations.size()));
  for (const sim::Origination& origination : truth.originations) {
    put_prefix(w, origination.prefix);
    put_as(w, origination.origin);
  }
}

core::GroundTruth get_ground_truth(Reader& r) {
  core::GroundTruth truth;
  truth.topo = get_topology(r);
  truth.plan = get_plan(r);

  const std::size_t policies = r.get_count(4);
  for (std::size_t i = 0; i < policies; ++i) {
    const util::AsNumber as = get_as(r);
    truth.gen.policies.by_as.emplace(as, get_policy(r));
  }
  const std::size_t extras = r.get_count(10);
  truth.gen.split_extras.reserve(extras);
  for (std::size_t i = 0; i < extras; ++i) {
    topo::OriginatedPrefix op;
    op.prefix = get_prefix(r);
    op.origin = get_as(r);
    if (r.get<std::uint8_t>() != 0) op.allocated_from = get_as(r);
    truth.gen.split_extras.push_back(op);
  }
  truth.gen.truth = get_policy_truth(r);

  const std::size_t originations = r.get_count(9);
  truth.originations.reserve(originations);
  for (std::size_t i = 0; i < originations; ++i) {
    sim::Origination origination;
    origination.prefix = get_prefix(r);
    origination.origin = get_as(r);
    truth.originations.push_back(origination);
  }
  return truth;
}

// ------------------------------------------------------------ sim artifact --

void put_sim_result(Writer& w, const sim::SimResult& sim) {
  put_table(w, sim.collector);
  const auto looking_glass = sorted_entries(sim.looking_glass);
  w.put(static_cast<std::uint64_t>(looking_glass.size()));
  for (const auto* entry : looking_glass) {
    put_as(w, entry->first);
    put_table(w, entry->second);
  }
  const auto best_only = sorted_entries(sim.best_only);
  w.put(static_cast<std::uint64_t>(best_only.size()));
  for (const auto* entry : best_only) {
    put_as(w, entry->first);
    put_table(w, entry->second);
  }
  w.put(static_cast<std::uint64_t>(sim.origination_count));
  w.put(static_cast<std::uint64_t>(sim.unconverged_prefixes));
  w.put(static_cast<std::uint64_t>(sim.process_events));
}

sim::SimResult get_sim_result(Reader& r) {
  sim::SimResult sim;
  sim.collector = get_table(r);
  const std::size_t looking_glass = r.get_count(12);
  for (std::size_t i = 0; i < looking_glass; ++i) {
    const util::AsNumber as = get_as(r);
    sim.looking_glass.emplace(as, get_table(r));
  }
  const std::size_t best_only = r.get_count(12);
  for (std::size_t i = 0; i < best_only; ++i) {
    const util::AsNumber as = get_as(r);
    sim.best_only.emplace(as, get_table(r));
  }
  sim.origination_count = static_cast<std::size_t>(r.get<std::uint64_t>());
  sim.unconverged_prefixes =
      static_cast<std::size_t>(r.get<std::uint64_t>());
  sim.process_events = static_cast<std::size_t>(r.get<std::uint64_t>());
  return sim;
}

void put_sim_artifact(Writer& w, const core::SimArtifact& artifact) {
  put_as(w, artifact.vantage.collector_as);
  put_as_vector(w, artifact.vantage.collector_peers);
  put_as_vector(w, artifact.vantage.looking_glass);
  put_as_vector(w, artifact.vantage.best_only);
  put_sim_result(w, artifact.sim);
}

core::SimArtifact get_sim_artifact(Reader& r) {
  core::SimArtifact artifact;
  artifact.vantage.collector_as = get_as(r);
  artifact.vantage.collector_peers = get_as_vector(r);
  artifact.vantage.looking_glass = get_as_vector(r);
  artifact.vantage.best_only = get_as_vector(r);
  artifact.sim = get_sim_result(r);
  return artifact;
}

// -------------------------------------------------------------- sim chunk --

void put_sim_chunk(Writer& w, const core::SimChunk& chunk) {
  w.put(chunk.begin);
  w.put(chunk.end);
  w.put(chunk.total);
  put_sim_result(w, chunk.partial);
}

core::SimChunk get_sim_chunk(Reader& r) {
  core::SimChunk chunk;
  chunk.begin = r.get<std::uint64_t>();
  chunk.end = r.get<std::uint64_t>();
  chunk.total = r.get<std::uint64_t>();
  if (chunk.begin > chunk.end || chunk.end > chunk.total) {
    throw std::invalid_argument("artifact: bad sim chunk range");
  }
  chunk.partial = get_sim_result(r);
  return chunk;
}

// ------------------------------------------------------------ observations --

void put_flag(Writer& w, bool flag) { w.put(static_cast<std::uint8_t>(flag)); }
bool get_flag(Reader& r) {
  const std::uint8_t raw = r.get<std::uint8_t>();
  if (raw > 1) throw std::invalid_argument("artifact: bad flag");
  return raw != 0;
}

/// The lengths of the slices `offsets` delimit, as u16 values.
void put_lengths(Writer& w, std::span<const std::uint32_t> offsets) {
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    const std::uint32_t length = offsets[i] - offsets[i - 1];
    if (length > 0xFFFF) {
      throw std::length_error("artifact: a path past 65,535 hops");
    }
    w.put(static_cast<std::uint16_t>(length));
  }
}

/// Paths as their count, hop count, lengths and hop buffer.
void put_paths(Writer& w, std::span<const util::AsNumber> hops,
               std::span<const std::uint32_t> offsets) {
  w.put(static_cast<std::uint64_t>(offsets.size() - 1));
  w.put(static_cast<std::uint64_t>(hops.size()));
  put_lengths(w, offsets);
  w.put_column(hops);
}

struct StoredPaths {
  std::vector<util::AsNumber> hops;
  std::vector<std::uint32_t> offsets;
};

StoredPaths get_paths(Reader& r) {
  const std::size_t paths = r.get_count(sizeof(std::uint16_t));
  const std::size_t hop_count = r.get_count(sizeof(std::uint32_t));
  StoredPaths out;
  out.offsets = r.get_offsets(paths, hop_count);
  out.hops = r.get_column<util::AsNumber>(hop_count);
  return out;
}

void put_set(Writer& w, const util::FlatSet64& set) {
  w.put(static_cast<std::uint64_t>(set.keys().size()));
  put_flag(w, set.has_empty_key());
  w.put_column(set.keys());
}

util::FlatSet64 get_set(Reader& r) {
  const std::size_t slots = r.get_count(sizeof(std::uint64_t));
  const bool has_empty_key = get_flag(r);
  return util::FlatSet64::adopt(r.get_column<std::uint64_t>(slots),
                                has_empty_key);
}

void put_map(Writer& w, const util::FlatMap64& map) {
  w.put(static_cast<std::uint64_t>(map.keys().size()));
  w.put_column(map.keys());
  w.put_column(map.values());
}

util::FlatMap64 get_map(Reader& r) {
  const std::size_t slots =
      r.get_count(sizeof(std::uint64_t) + sizeof(std::uint32_t));
  util::FlatMap64::Slots stored;
  stored.keys = r.get_column<std::uint64_t>(slots);
  stored.values = r.get_column<std::uint32_t>(slots);
  return util::FlatMap64::adopt(std::move(stored));
}

void put_observations(Writer& w, const core::Observations& observations) {
  put_as_vector(w, observations.lg_order);
  w.put_string(observations.irr_text);

  w.put(static_cast<std::uint64_t>(observations.irr_objects.size()));
  for (const rpsl::AutNum& aut_num : observations.irr_objects) {
    put_as(w, aut_num.as);
    w.put_string(aut_num.as_name);
    w.put(static_cast<std::uint64_t>(aut_num.imports.size()));
    for (const rpsl::ImportLine& line : aut_num.imports) {
      put_as(w, line.from);
      w.put(static_cast<std::uint8_t>(line.pref.has_value()));
      if (line.pref) w.put(*line.pref);
      w.put_string(line.accept);
    }
    w.put(static_cast<std::uint64_t>(aut_num.exports.size()));
    for (const rpsl::ExportLine& line : aut_num.exports) {
      put_as(w, line.to);
      w.put_string(line.announce);
    }
    w.put(static_cast<std::uint64_t>(aut_num.community_remarks.size()));
    for (const rpsl::CommunityRemark& remark : aut_num.community_remarks) {
      put_rel(w, remark.kind);
      w.put(remark.value_lo);
      w.put(remark.value_hi);
    }
    w.put(aut_num.changed_date);
  }

  // Gao's state and the path index as they are laid out (the file
  // comment of artifact_codec.h).
  const asrel::GaoInference& gao = observations.observed_paths;
  put_paths(w, gao.hops(), gao.offsets());
  put_set(w, gao.edges());
  put_map(w, gao.degrees());
  put_as_vector(w, gao.ases());

  const core::PathIndex& index = observations.paths;
  put_paths(w, index.hops(), index.offsets());
  for (const bgp::Prefix& prefix : index.prefixes()) w.put(prefix.network());
  for (const bgp::Prefix& prefix : index.prefixes()) w.put(prefix.length());
  put_set(w, index.adjacency());
}

core::Observations get_observations(Reader& r) {
  core::Observations observations;
  observations.lg_order = get_as_vector(r);
  observations.irr_text = r.get_string();

  const std::size_t aut_nums = r.get_count(4);
  observations.irr_objects.reserve(aut_nums);
  for (std::size_t i = 0; i < aut_nums; ++i) {
    rpsl::AutNum aut_num;
    aut_num.as = get_as(r);
    aut_num.as_name = r.get_string();
    const std::size_t imports = r.get_count(13);
    aut_num.imports.reserve(imports);
    for (std::size_t j = 0; j < imports; ++j) {
      rpsl::ImportLine line;
      line.from = get_as(r);
      if (r.get<std::uint8_t>() != 0) line.pref = r.get<std::uint32_t>();
      line.accept = r.get_string();
      aut_num.imports.push_back(std::move(line));
    }
    const std::size_t exports = r.get_count(12);
    aut_num.exports.reserve(exports);
    for (std::size_t j = 0; j < exports; ++j) {
      rpsl::ExportLine line;
      line.to = get_as(r);
      line.announce = r.get_string();
      aut_num.exports.push_back(std::move(line));
    }
    const std::size_t remarks = r.get_count(5);
    aut_num.community_remarks.reserve(remarks);
    for (std::size_t j = 0; j < remarks; ++j) {
      rpsl::CommunityRemark remark;
      remark.kind = get_rel(r);
      remark.value_lo = r.get<std::uint16_t>();
      remark.value_hi = r.get<std::uint16_t>();
      aut_num.community_remarks.push_back(remark);
    }
    aut_num.changed_date = r.get<std::uint32_t>();
    observations.irr_objects.push_back(std::move(aut_num));
  }

  StoredPaths gao = get_paths(r);
  util::FlatSet64 edges = get_set(r);
  util::FlatMap64 degree = get_map(r);
  observations.observed_paths = asrel::GaoInference::adopt(
      std::move(gao.hops), std::move(gao.offsets), std::move(edges),
      std::move(degree), get_as_vector(r));

  StoredPaths index = get_paths(r);
  const std::size_t entries = index.offsets.size() - 1;
  const std::vector<std::uint32_t> networks =
      r.get_column<std::uint32_t>(entries);
  const std::vector<std::uint8_t> lengths = r.get_column<std::uint8_t>(entries);
  std::vector<bgp::Prefix> prefixes;
  prefixes.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    if (lengths[i] > 32) {
      throw std::invalid_argument("artifact: bad prefix length");
    }
    prefixes.emplace_back(networks[i], lengths[i]);
    if (prefixes.back().network() != networks[i]) {
      throw std::invalid_argument("artifact: prefix with host bits set");
    }
  }
  observations.paths =
      core::PathIndex::adopt(std::move(index.hops), std::move(index.offsets),
                             std::move(prefixes), get_set(r));
  return observations;
}

// -------------------------------------------------------------- inference --

void put_inference(Writer& w, const core::InferenceProducts& inference) {
  struct Edge {
    util::AsNumber lo;
    util::AsNumber hi;
    asrel::EdgeType type;
  };
  std::vector<Edge> edges;
  edges.reserve(inference.inferred.edge_count());
  inference.inferred.for_each(
      [&](util::AsNumber lo, util::AsNumber hi, asrel::EdgeType type) {
        edges.push_back({lo, hi, type});
      });
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
  });
  w.put(static_cast<std::uint64_t>(edges.size()));
  for (const Edge& edge : edges) {
    put_as(w, edge.lo);
    put_as(w, edge.hi);
    w.put(static_cast<std::uint8_t>(edge.type));
  }

  const auto levels = sorted_entries(inference.tiers.level);
  w.put(static_cast<std::uint64_t>(levels.size()));
  for (const auto* entry : levels) {
    put_as(w, entry->first);
    w.put(static_cast<std::int32_t>(entry->second));
  }
  put_as_vector(w, inference.tiers.tier1);
}

core::InferenceProducts get_inference(Reader& r) {
  core::InferenceProducts inference;
  const std::size_t edges = r.get_count(9);
  for (std::size_t i = 0; i < edges; ++i) {
    const util::AsNumber lo = get_as(r);
    const util::AsNumber hi = get_as(r);
    const std::uint8_t type = r.get<std::uint8_t>();
    if (type > static_cast<std::uint8_t>(asrel::EdgeType::kSibling)) {
      throw std::invalid_argument("artifact: bad edge type");
    }
    inference.inferred.set(lo, hi, static_cast<asrel::EdgeType>(type));
  }
  // The annotated graph is a pure function of the classification; rebuild
  // instead of storing a second copy.
  inference.inferred_graph = inference.inferred.to_graph();

  const std::size_t levels = r.get_count(8);
  for (std::size_t i = 0; i < levels; ++i) {
    const util::AsNumber as = get_as(r);
    inference.tiers.level.emplace(as, r.get<std::int32_t>());
  }
  inference.tiers.tier1 = get_as_vector(r);
  return inference;
}

// --------------------------------------------------------- analysis suite --

void put_analysis_suite(Writer& w, const core::AnalysisSuite& suite) {
  w.put(static_cast<std::uint64_t>(suite.vantages.size()));
  for (const core::VantageAnalysis& v : suite.vantages) {
    put_as(w, v.vantage);
    w.put(static_cast<std::uint8_t>(v.looking_glass));

    put_as(w, v.sa.provider);
    w.put(static_cast<std::uint64_t>(v.sa.customer_prefixes));
    w.put(static_cast<std::uint64_t>(v.sa.sa_count));
    w.put(v.sa.percent_sa);
    w.put(static_cast<std::uint64_t>(v.sa.sa_prefixes.size()));
    for (const core::SaPrefix& sa : v.sa.sa_prefixes) {
      put_prefix(w, sa.prefix);
      put_as(w, sa.origin);
      put_as(w, sa.next_hop);
      put_rel(w, sa.next_hop_rel);
    }

    put_as(w, v.homing.provider);
    w.put(static_cast<std::uint64_t>(v.homing.multihomed_ases));
    w.put(static_cast<std::uint64_t>(v.homing.singlehomed_ases));
    w.put(v.homing.percent_multihomed);
    w.put(v.homing.percent_singlehomed);

    put_as(w, v.causes.provider);
    w.put(static_cast<std::uint64_t>(v.causes.sa_total));
    w.put(static_cast<std::uint64_t>(v.causes.splitting));
    w.put(static_cast<std::uint64_t>(v.causes.aggregating));
    w.put(static_cast<std::uint64_t>(v.causes.identified));
    w.put(static_cast<std::uint64_t>(v.causes.announce_to_direct));
    w.put(static_cast<std::uint64_t>(v.causes.withheld_from_direct));
    w.put(v.causes.percent_identified);
    w.put(v.causes.percent_announce);
    w.put(v.causes.percent_withheld);

    w.put(static_cast<std::uint8_t>(v.import_typicality.has_value()));
    if (v.import_typicality) {
      put_as(w, v.import_typicality->vantage);
      w.put(static_cast<std::uint64_t>(
          v.import_typicality->comparable_prefixes));
      w.put(static_cast<std::uint64_t>(v.import_typicality->typical_prefixes));
      w.put(v.import_typicality->percent_typical);
      const auto class_values =
          sorted_entries(v.import_typicality->class_values);
      w.put(static_cast<std::uint64_t>(class_values.size()));
      for (const auto* entry : class_values) {
        put_rel(w, entry->first);
        w.put(static_cast<std::uint64_t>(entry->second.size()));
        for (const std::uint32_t value : entry->second) w.put(value);
      }
    }

    w.put(static_cast<std::uint8_t>(v.sa_verification.has_value()));
    if (v.sa_verification) {
      put_as(w, v.sa_verification->provider);
      w.put(static_cast<std::uint64_t>(v.sa_verification->sa_total));
      w.put(static_cast<std::uint64_t>(v.sa_verification->verified));
      w.put(v.sa_verification->percent_verified);
      w.put(static_cast<std::uint64_t>(v.sa_verification->step1_failures));
      w.put(static_cast<std::uint64_t>(v.sa_verification->step2_failures));
    }
  }
}

core::AnalysisSuite get_analysis_suite(Reader& r) {
  core::AnalysisSuite suite;
  const std::size_t vantages = r.get_count(64);
  suite.vantages.reserve(vantages);
  for (std::size_t i = 0; i < vantages; ++i) {
    core::VantageAnalysis v;
    v.vantage = get_as(r);
    v.looking_glass = r.get<std::uint8_t>() != 0;

    v.sa.provider = get_as(r);
    v.sa.customer_prefixes = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.sa.sa_count = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.sa.percent_sa = r.get<double>();
    const std::size_t sa_prefixes = r.get_count(14);
    v.sa.sa_prefixes.reserve(sa_prefixes);
    for (std::size_t j = 0; j < sa_prefixes; ++j) {
      core::SaPrefix sa;
      sa.prefix = get_prefix(r);
      sa.origin = get_as(r);
      sa.next_hop = get_as(r);
      sa.next_hop_rel = get_rel(r);
      v.sa.sa_prefixes.push_back(sa);
    }

    v.homing.provider = get_as(r);
    v.homing.multihomed_ases = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.homing.singlehomed_ases =
        static_cast<std::size_t>(r.get<std::uint64_t>());
    v.homing.percent_multihomed = r.get<double>();
    v.homing.percent_singlehomed = r.get<double>();

    v.causes.provider = get_as(r);
    v.causes.sa_total = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.splitting = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.aggregating = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.identified = static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.announce_to_direct =
        static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.withheld_from_direct =
        static_cast<std::size_t>(r.get<std::uint64_t>());
    v.causes.percent_identified = r.get<double>();
    v.causes.percent_announce = r.get<double>();
    v.causes.percent_withheld = r.get<double>();

    if (r.get<std::uint8_t>() != 0) {
      core::ImportTypicality typicality;
      typicality.vantage = get_as(r);
      typicality.comparable_prefixes =
          static_cast<std::size_t>(r.get<std::uint64_t>());
      typicality.typical_prefixes =
          static_cast<std::size_t>(r.get<std::uint64_t>());
      typicality.percent_typical = r.get<double>();
      const std::size_t classes = r.get_count(9);
      for (std::size_t j = 0; j < classes; ++j) {
        const topo::RelKind kind = get_rel(r);
        const std::size_t count = r.get_count(4);
        std::vector<std::uint32_t> values;
        values.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
          values.push_back(r.get<std::uint32_t>());
        }
        typicality.class_values.emplace(kind, std::move(values));
      }
      v.import_typicality = std::move(typicality);
    }

    if (r.get<std::uint8_t>() != 0) {
      core::SaVerification verification;
      verification.provider = get_as(r);
      verification.sa_total = static_cast<std::size_t>(r.get<std::uint64_t>());
      verification.verified = static_cast<std::size_t>(r.get<std::uint64_t>());
      verification.percent_verified = r.get<double>();
      verification.step1_failures =
          static_cast<std::size_t>(r.get<std::uint64_t>());
      verification.step2_failures =
          static_cast<std::size_t>(r.get<std::uint64_t>());
      v.sa_verification = verification;
    }
    suite.vantages.push_back(std::move(v));
  }
  return suite;
}

// ------------------------------------------------------------- framing ----

/// The frame checksum is core::xxh64 of the payload under this seed.
constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;

/// Encodes one artifact: `put` writes the payload behind header bytes
/// reserved at the front of the buffer, which are then filled in place —
/// the payload is written once and never copied.
template <typename T>
std::vector<std::uint8_t> encode_framed(ArtifactKind kind,
                                        void (*put)(Writer&, const T&),
                                        const T& artifact) {
  std::vector<std::uint8_t> bytes(kArtifactHeaderBytes);
  Writer payload_writer(bytes);
  put(payload_writer, artifact);
  const auto payload =
      std::span<const std::uint8_t>(bytes).subspan(kArtifactHeaderBytes);

  std::vector<std::uint8_t> header;
  header.reserve(kArtifactHeaderBytes);
  for (const char c : kMagic) header.push_back(static_cast<std::uint8_t>(c));
  Writer w(header);
  w.put(kArtifactCodecVersion);
  w.put(static_cast<std::uint16_t>(kind));
  w.put(static_cast<std::uint64_t>(payload.size()));
  w.put(core::xxh64(payload, kChecksumSeed));
  std::copy(header.begin(), header.end(), bytes.begin());
  return bytes;
}

/// Validates the header and returns the payload span.  `checksum_matches`
/// is a CheckedArtifact's verdict on these very bytes; without one the
/// payload is hashed here.
std::span<const std::uint8_t> unframe(ArtifactKind kind,
                                      std::span<const std::uint8_t> bytes,
                                      std::optional<bool> checksum_matches) {
  Reader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.get<std::uint8_t>());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::invalid_argument("artifact: bad magic");
  }
  if (r.get<std::uint16_t>() != kArtifactCodecVersion) {
    throw std::invalid_argument("artifact: unsupported codec version");
  }
  const std::uint16_t stored_kind = r.get<std::uint16_t>();
  if (stored_kind != static_cast<std::uint16_t>(kind)) {
    throw std::invalid_argument("artifact: kind mismatch");
  }
  const std::uint64_t payload_size = r.get<std::uint64_t>();
  const std::uint64_t checksum = r.get<std::uint64_t>();
  if (payload_size != bytes.size() - kArtifactHeaderBytes) {
    throw std::invalid_argument("artifact: truncated or oversized payload");
  }
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kArtifactHeaderBytes);
  if (!checksum_matches) {
    checksum_matches = core::xxh64(payload, kChecksumSeed) == checksum;
  }
  if (!*checksum_matches) {
    throw std::invalid_argument("artifact: checksum mismatch");
  }
  return payload;
}

/// Runs a payload decoder with the trailing-bytes check and translates any
/// structural failure (bounds, invariant violations inside replayed
/// builders) into the decoder contract's invalid_argument.
template <typename Fn>
auto decode_frame(ArtifactKind kind, std::span<const std::uint8_t> bytes,
                  std::optional<bool> checksum_matches, Fn&& fn) {
  try {
    Reader r(unframe(kind, bytes, checksum_matches));
    auto value = fn(r);
    if (!r.exhausted()) {
      throw std::invalid_argument("artifact: trailing bytes");
    }
    return value;
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception& error) {
    throw std::invalid_argument(std::string("artifact: corrupt payload (") +
                                error.what() + ")");
  }
}

template <typename Fn>
auto decode_payload(ArtifactKind kind, std::span<const std::uint8_t> bytes,
                    Fn&& fn) {
  return decode_frame(kind, bytes, std::nullopt, fn);
}

/// The verdict and the bytes come from one CheckedArtifact.
template <typename Fn>
auto decode_payload(ArtifactKind kind, const CheckedArtifact& checked,
                    Fn&& fn) {
  return decode_frame(kind, checked.bytes(), checked.checksum_matches(), fn);
}

}  // namespace

CheckedArtifact::CheckedArtifact(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)), digest_(core::store_digest_hex(bytes_)) {
  if (bytes_.size() >= kArtifactHeaderBytes) {
    // The checksum field closes the header (see the layout above).
    std::uint64_t stored = 0;
    std::memcpy(&stored,
                bytes_.data() + kArtifactHeaderBytes - sizeof(stored),
                sizeof(stored));
    checksum_matches_ =
        stored == core::xxh64(std::span<const std::uint8_t>(bytes_).subspan(
                                  kArtifactHeaderBytes),
                              kChecksumSeed);
  }
}

const char* to_string(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kGroundTruth: return "ground_truth";
    case ArtifactKind::kSimArtifact: return "sim_artifact";
    case ArtifactKind::kObservations: return "observations";
    case ArtifactKind::kInferenceProducts: return "inference_products";
    case ArtifactKind::kAnalysisSuite: return "analysis_suite";
    case ArtifactKind::kSimChunk: return "sim_chunk";
  }
  return "?";
}

std::vector<std::uint8_t> encode(const core::GroundTruth& truth) {
  return encode_framed(ArtifactKind::kGroundTruth, put_ground_truth, truth);
}

std::vector<std::uint8_t> encode(const core::SimArtifact& sim) {
  return encode_framed(ArtifactKind::kSimArtifact, put_sim_artifact, sim);
}

std::vector<std::uint8_t> encode(const core::Observations& observations) {
  return encode_framed(ArtifactKind::kObservations, put_observations,
                       observations);
}

std::vector<std::uint8_t> encode(const core::InferenceProducts& inference) {
  return encode_framed(ArtifactKind::kInferenceProducts, put_inference,
                       inference);
}

std::vector<std::uint8_t> encode(const core::AnalysisSuite& suite) {
  return encode_framed(ArtifactKind::kAnalysisSuite, put_analysis_suite,
                       suite);
}

core::GroundTruth decode_ground_truth(std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kGroundTruth, bytes,
                        [](Reader& r) { return get_ground_truth(r); });
}

core::SimArtifact decode_sim_artifact(std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kSimArtifact, bytes,
                        [](Reader& r) { return get_sim_artifact(r); });
}

core::Observations decode_observations(std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kObservations, bytes,
                        [](Reader& r) { return get_observations(r); });
}

core::InferenceProducts decode_inference(std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kInferenceProducts, bytes,
                        [](Reader& r) { return get_inference(r); });
}

core::AnalysisSuite decode_analysis_suite(
    std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kAnalysisSuite, bytes,
                        [](Reader& r) { return get_analysis_suite(r); });
}

std::vector<std::uint8_t> encode(const core::SimChunk& chunk) {
  return encode_framed(ArtifactKind::kSimChunk, put_sim_chunk, chunk);
}

core::SimChunk decode_sim_chunk(std::span<const std::uint8_t> bytes) {
  return decode_payload(ArtifactKind::kSimChunk, bytes,
                        [](Reader& r) { return get_sim_chunk(r); });
}

core::GroundTruth decode_ground_truth(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kGroundTruth, checked,
                        [](Reader& r) { return get_ground_truth(r); });
}

core::Observations decode_observations(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kObservations, checked,
                        [](Reader& r) { return get_observations(r); });
}

core::InferenceProducts decode_inference(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kInferenceProducts, checked,
                        [](Reader& r) { return get_inference(r); });
}

core::AnalysisSuite decode_analysis_suite(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kAnalysisSuite, checked,
                        [](Reader& r) { return get_analysis_suite(r); });
}

core::SimArtifact decode_sim_artifact(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kSimArtifact, checked,
                        [](Reader& r) { return get_sim_artifact(r); });
}

core::SimChunk decode_sim_chunk(const CheckedArtifact& checked) {
  return decode_payload(ArtifactKind::kSimChunk, checked,
                        [](Reader& r) { return get_sim_chunk(r); });
}

std::optional<ArtifactHeader> peek_artifact_header(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kArtifactHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  ArtifactHeader header;
  std::memcpy(&header.version, bytes.data() + 4, sizeof(header.version));
  std::memcpy(&header.kind, bytes.data() + 6, sizeof(header.kind));
  std::memcpy(&header.payload_bytes, bytes.data() + 8,
              sizeof(header.payload_bytes));
  return header;
}

}  // namespace bgpolicy::io
