#include "serve/query.h"

#include <algorithm>
#include <array>
#include <exception>
#include <unordered_set>
#include <utility>

#include "asrel/relationships.h"
#include "asrel/tier_classify.h"
#include "bgp/decision.h"
#include "core/artifact_store.h"
#include "core/path_availability.h"
#include "serve/wire.h"
#include "sim/delta_engine.h"

namespace bgpolicy::serve {

namespace {

using util::AsNumber;

std::vector<std::uint8_t> ok_response(wire::Writer body) {
  wire::Writer out;
  out.put(static_cast<std::uint8_t>(QueryStatus::kOk));
  std::vector<std::uint8_t> result = out.take();
  const std::vector<std::uint8_t> inner = body.take();
  result.insert(result.end(), inner.begin(), inner.end());
  return result;
}

std::vector<std::uint8_t> error_response(std::string_view message) {
  wire::Writer out;
  out.put(static_cast<std::uint8_t>(QueryStatus::kError));
  out.put_string(message);
  return out.take();
}

std::vector<std::uint8_t> answer_server_info(const Snapshot& snapshot) {
  wire::Writer body;
  body.put(snapshot.version);
  body.put_string(snapshot.scenario_name);
  body.put_string(snapshot.scenario_key);
  body.put_string(snapshot.analyses_digest);
  body.put(static_cast<std::uint64_t>(snapshot.analyses.vantages.size()));
  body.put(static_cast<std::uint64_t>(
      snapshot.observations.paths.path_count()));
  body.put(static_cast<std::uint64_t>(
      snapshot.inference.inferred.edge_count()));
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_sa_prevalence(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  wire::Reader r(request);
  const AsNumber vantage(r.get<std::uint32_t>());
  r.expect_end();
  const core::VantageAnalysis* analysis =
      snapshot.analyses.find(vantage);
  if (analysis == nullptr) {
    return error_response("no analysis recorded for AS " +
                          util::to_string(vantage));
  }
  const core::SaAnalysis& sa = analysis->sa;
  wire::Writer body;
  body.put(sa.provider.value());
  body.put(static_cast<std::uint64_t>(sa.customer_prefixes));
  body.put(static_cast<std::uint64_t>(sa.sa_count));
  body.put(sa.percent_sa);
  body.put(static_cast<std::uint32_t>(sa.sa_prefixes.size()));
  for (const core::SaPrefix& entry : sa.sa_prefixes) {
    body.put(entry.prefix.network());
    body.put(entry.prefix.length());
    body.put(entry.origin.value());
    body.put(entry.next_hop.value());
    body.put(static_cast<std::uint8_t>(entry.next_hop_rel));
  }
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_homing(std::span<const std::uint8_t> request,
                                        const Snapshot& snapshot) {
  wire::Reader r(request);
  const std::uint32_t network = r.get<std::uint32_t>();
  const std::uint8_t length = r.get<std::uint8_t>();
  r.expect_end();
  if (length > 32) return error_response("prefix length exceeds 32");
  const bgp::Prefix prefix(network, length);

  // Observed origins of the prefix (rightmost hop of every indexed path),
  // classified by provider count in the *inferred* graph — multihomed at
  // >= 2 providers, the paper's Table 8 criterion.  Several origins means
  // MOAS/anycast.
  std::vector<AsNumber> origins;
  for (const auto path : snapshot.observations.paths.paths_for_prefix(prefix)) {
    if (!path.empty()) origins.push_back(path.back());
  }
  std::sort(origins.begin(), origins.end());
  origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
  if (origins.empty()) {
    return error_response("prefix " + prefix.to_string() +
                          " not observed in any indexed path");
  }
  wire::Writer body;
  body.put(static_cast<std::uint32_t>(origins.size()));
  for (const AsNumber origin : origins) {
    const std::size_t providers =
        snapshot.inference.inferred_graph.providers(origin).size();
    body.put(origin.value());
    body.put(static_cast<std::uint32_t>(providers));
    body.put(static_cast<std::uint8_t>(providers >= 2 ? 1 : 0));
  }
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_causes(std::span<const std::uint8_t> request,
                                        const Snapshot& snapshot) {
  wire::Reader r(request);
  const AsNumber vantage(r.get<std::uint32_t>());
  r.expect_end();
  const core::VantageAnalysis* analysis = snapshot.analyses.find(vantage);
  if (analysis == nullptr) {
    return error_response("no analysis recorded for AS " +
                          util::to_string(vantage));
  }
  const core::CausesAnalysis& causes = analysis->causes;
  wire::Writer body;
  body.put(causes.provider.value());
  body.put(static_cast<std::uint64_t>(causes.sa_total));
  body.put(static_cast<std::uint64_t>(causes.splitting));
  body.put(static_cast<std::uint64_t>(causes.aggregating));
  body.put(static_cast<std::uint64_t>(causes.identified));
  body.put(static_cast<std::uint64_t>(causes.announce_to_direct));
  body.put(static_cast<std::uint64_t>(causes.withheld_from_direct));
  body.put(causes.percent_identified);
  body.put(causes.percent_announce);
  body.put(causes.percent_withheld);
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_path_availability(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  wire::Reader r(request);
  const AsNumber vantage(r.get<std::uint32_t>());
  r.expect_end();
  const auto it = snapshot.sim.sim.looking_glass.find(vantage);
  if (it == snapshot.sim.sim.looking_glass.end()) {
    return error_response("AS " + util::to_string(vantage) +
                          " is not a looking-glass vantage");
  }
  const core::PathAvailability availability = core::analyze_path_availability(
      it->second, vantage, snapshot.inference.inferred_graph);
  wire::Writer body;
  body.put(availability.vantage.value());
  body.put(static_cast<std::uint64_t>(availability.customer_prefixes));
  body.put(availability.mean_available);
  body.put(availability.mean_potential);
  body.put(availability.availability_ratio);
  body.put(static_cast<std::uint64_t>(availability.single_path_prefixes));
  const auto& bins = availability.available_histogram.bins();
  body.put(static_cast<std::uint32_t>(bins.size()));
  for (const auto& [key, weight] : bins) {
    body.put(static_cast<std::int64_t>(key));
    body.put(static_cast<std::uint64_t>(weight));
  }
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_rerun_infer(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  wire::Reader r(request);
  asrel::GaoParams params;
  params.peer_degree_ratio = r.get<double>();
  params.sibling_balance = r.get<double>();
  params.detect_peers = r.get<std::uint8_t>() != 0;
  params.detect_clique = r.get<std::uint8_t>() != 0;
  params.clique_degree_fraction = r.get<double>();
  params.peer_candidate_min_share = r.get<double>();
  r.expect_end();
  // Worker knobs never change products (determinism contract); one query
  // runs sequentially rather than spinning a pool per request.
  params.threads = 1;

  const core::InferenceProducts products =
      core::infer_relationships(snapshot.observations, params);

  std::array<std::uint64_t, 4> edge_counts{};
  products.inferred.for_each(
      [&](AsNumber, AsNumber, asrel::EdgeType type) {
        ++edge_counts[static_cast<std::size_t>(type)];
      });
  std::array<std::uint64_t, 4> level_counts{};
  for (const auto& [as, level] : products.tiers.level) {
    if (level >= 1 && level <= 4) ++level_counts[level - 1];
  }
  const std::string digest =
      core::stable_digest_hex(asrel::canonical_serialize(products.inferred) +
                              asrel::canonical_serialize(products.tiers));

  wire::Writer body;
  body.put(static_cast<std::uint64_t>(products.inferred.edge_count()));
  for (const std::uint64_t count : edge_counts) body.put(count);
  body.put(static_cast<std::uint32_t>(products.tiers.tier1.size()));
  for (const AsNumber as : products.tiers.tier1) body.put(as.value());
  for (const std::uint64_t count : level_counts) body.put(count);
  body.put_string(digest);
  return ok_response(std::move(body));
}

std::vector<std::uint8_t> answer_what_if_failure(
    std::span<const std::uint8_t> request, const Snapshot& snapshot) {
  wire::Reader r(request);
  const AsNumber vantage(r.get<std::uint32_t>());
  const std::uint16_t edge_count = r.get<std::uint16_t>();
  std::vector<std::pair<AsNumber, AsNumber>> edges;
  edges.reserve(edge_count);
  for (std::uint16_t i = 0; i < edge_count; ++i) {
    const AsNumber a(r.get<std::uint32_t>());
    const AsNumber b(r.get<std::uint32_t>());
    edges.emplace_back(a, b);
  }
  const std::uint16_t prefix_count = r.get<std::uint16_t>();
  std::vector<bgp::Prefix> filter;
  filter.reserve(prefix_count);
  for (std::uint16_t i = 0; i < prefix_count; ++i) {
    const std::uint32_t network = r.get<std::uint32_t>();
    const std::uint8_t length = r.get<std::uint8_t>();
    if (length > 32) return error_response("prefix length exceeds 32");
    filter.emplace_back(network, length);
  }
  r.expect_end();

  if (snapshot.what_if == nullptr) {
    return error_response("snapshot has no what-if substrate");
  }
  if (edges.empty()) {
    return error_response("what_if_failure requires at least one edge");
  }
  const core::GroundTruth& truth = snapshot.what_if->truth();
  const topo::AsGraph& graph = truth.topo.graph;
  if (!graph.contains(vantage)) {
    return error_response("AS " + util::to_string(vantage) +
                          " not in ground-truth graph");
  }
  for (const auto& [a, b] : edges) {
    if (!graph.contains(a) || !graph.contains(b)) {
      return error_response("edge endpoint AS " +
                            util::to_string(graph.contains(a) ? b : a) +
                            " not in ground-truth graph");
    }
  }

  // Distinct target prefixes in origination order — the deterministic
  // response order (MOAS prefixes appear once, candidates merged below).
  const std::unordered_set<bgp::Prefix> wanted(filter.begin(), filter.end());
  std::vector<const WhatIfBase::Target*> targets;
  for (const WhatIfBase::Target& target : snapshot.what_if->targets()) {
    if (wanted.empty() || wanted.contains(target.prefix)) {
      targets.push_back(&target);
    }
  }
  if (targets.empty()) {
    return error_response("no matching origination in snapshot");
  }

  sim::Perturbation perturbation;
  perturbation.fail_edges = edges;
  const sim::DeltaEngine& engine = snapshot.what_if->engine();
  sim::FlatScratch scratch;
  sim::DeltaState branch;

  const auto summarize = [](const std::optional<bgp::Route>& route) {
    WhatIfRouteState s;
    if (route.has_value()) {
      s.reachable = true;
      s.via = route->next_hop_as().value_or(route->learned_from).value();
      s.origin = route->origin_as().value();
      s.path_length = static_cast<std::uint32_t>(route->path.length());
    }
    return s;
  };

  std::uint64_t wave_events = 0;
  std::uint32_t reachable_before = 0;
  std::uint32_t reachable_after = 0;
  wire::Writer body;
  body.put(vantage.value());
  body.put(static_cast<std::uint32_t>(edges.size()));
  body.put(static_cast<std::uint32_t>(targets.size()));
  for (const WhatIfBase::Target* target : targets) {
    // MOAS: every active origination of the prefix contributes one
    // candidate per world; decision-process tie-break across them (the
    // same merge core/spec_verify.cc's Timeline does).
    std::vector<bgp::Route> before_cands;
    std::vector<bgp::Route> after_cands;
    for (const std::size_t i : target->originations) {
      const std::shared_ptr<const sim::DeltaState> base =
          snapshot.what_if->base_state(i);
      if (auto route = engine.route_at(*base, vantage)) {
        before_cands.push_back(std::move(*route));
      }
      // Branch a private deep copy and fail the sessions incrementally;
      // the shared base stays pristine for the next query.
      branch.assign_from(*base);
      wave_events += engine.apply(branch, perturbation, scratch).events;
      if (auto route = engine.route_at(branch, vantage)) {
        after_cands.push_back(std::move(*route));
      }
    }
    const auto pick = [](std::vector<bgp::Route>& cands)
        -> std::optional<bgp::Route> {
      if (cands.empty()) return std::nullopt;
      const auto winner = bgp::select_best(cands);
      return cands[winner.value_or(0)];
    };
    const std::optional<bgp::Route> before = pick(before_cands);
    const std::optional<bgp::Route> after = pick(after_cands);
    if (before.has_value()) ++reachable_before;
    if (after.has_value()) ++reachable_after;
    const WhatIfRouteState before_state = summarize(before);
    const WhatIfRouteState after_state = summarize(after);
    body.put(target->prefix.network());
    body.put(target->prefix.length());
    for (const WhatIfRouteState& s : {before_state, after_state}) {
      body.put(static_cast<std::uint8_t>(s.reachable ? 1 : 0));
      body.put(s.via);
      body.put(s.origin);
      body.put(s.path_length);
    }
    body.put(static_cast<std::uint8_t>(before != after ? 1 : 0));
  }

  body.put(wave_events);
  body.put(reachable_before);
  body.put(reachable_after);
  return ok_response(std::move(body));
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kServerInfo:
      return "server_info";
    case QueryKind::kSaPrevalence:
      return "sa_prevalence";
    case QueryKind::kHoming:
      return "homing";
    case QueryKind::kCauses:
      return "causes";
    case QueryKind::kPathAvailability:
      return "path_availability";
    case QueryKind::kRerunInfer:
      return "rerun_infer";
    case QueryKind::kWhatIfFailure:
      return "what_if_failure";
  }
  return "unknown";
}

bool known_kind(std::uint16_t kind) {
  return kind >= static_cast<std::uint16_t>(QueryKind::kServerInfo) &&
         kind <= static_cast<std::uint16_t>(QueryKind::kWhatIfFailure);
}

std::vector<std::uint8_t> encode_server_info_request() { return {}; }

std::vector<std::uint8_t> encode_as_request(util::AsNumber as) {
  wire::Writer w;
  w.put(as.value());
  return w.take();
}

std::vector<std::uint8_t> encode_prefix_request(const bgp::Prefix& prefix) {
  wire::Writer w;
  w.put(prefix.network());
  w.put(prefix.length());
  return w.take();
}

std::vector<std::uint8_t> encode_infer_request(
    const asrel::GaoParams& params) {
  wire::Writer w;
  w.put(params.peer_degree_ratio);
  w.put(params.sibling_balance);
  w.put(static_cast<std::uint8_t>(params.detect_peers ? 1 : 0));
  w.put(static_cast<std::uint8_t>(params.detect_clique ? 1 : 0));
  w.put(params.clique_degree_fraction);
  w.put(params.peer_candidate_min_share);
  return w.take();
}

std::vector<std::uint8_t> encode_what_if_request(
    util::AsNumber vantage,
    std::span<const std::pair<util::AsNumber, util::AsNumber>> edges,
    std::span<const bgp::Prefix> prefixes) {
  wire::Writer w;
  w.put(vantage.value());
  w.put(static_cast<std::uint16_t>(edges.size()));
  for (const auto& [a, b] : edges) {
    w.put(a.value());
    w.put(b.value());
  }
  w.put(static_cast<std::uint16_t>(prefixes.size()));
  for (const bgp::Prefix& prefix : prefixes) {
    w.put(prefix.network());
    w.put(prefix.length());
  }
  return w.take();
}

std::optional<ResponseView> split_response(
    std::span<const std::uint8_t> payload) {
  if (payload.empty()) return std::nullopt;
  ResponseView view;
  if (payload[0] == static_cast<std::uint8_t>(QueryStatus::kOk)) {
    view.status = QueryStatus::kOk;
  } else if (payload[0] == static_cast<std::uint8_t>(QueryStatus::kError)) {
    view.status = QueryStatus::kError;
  } else {
    return std::nullopt;
  }
  view.body = payload.subspan(1);
  return view;
}

std::string decode_error(std::span<const std::uint8_t> body) {
  try {
    wire::Reader r(body);
    std::string message = r.get_string();
    r.expect_end();
    return message;
  } catch (const std::exception&) {
    return {};
  }
}

std::optional<ServerInfo> decode_server_info(
    std::span<const std::uint8_t> body) {
  try {
    wire::Reader r(body);
    ServerInfo info;
    info.version = r.get<std::uint64_t>();
    info.scenario_name = r.get_string();
    info.scenario_key = r.get_string();
    info.analyses_digest = r.get_string();
    info.vantage_count = r.get<std::uint64_t>();
    info.observed_paths = r.get<std::uint64_t>();
    info.inferred_edges = r.get<std::uint64_t>();
    r.expect_end();
    return info;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<WhatIfResult> decode_what_if(
    std::span<const std::uint8_t> body) {
  try {
    wire::Reader r(body);
    WhatIfResult result;
    result.vantage = r.get<std::uint32_t>();
    result.edge_count = r.get<std::uint32_t>();
    const std::uint32_t entry_count = r.get<std::uint32_t>();
    result.entries.reserve(entry_count);
    for (std::uint32_t i = 0; i < entry_count; ++i) {
      WhatIfEntry entry;
      const std::uint32_t network = r.get<std::uint32_t>();
      const std::uint8_t length = r.get<std::uint8_t>();
      if (length > 32) return std::nullopt;
      entry.prefix = bgp::Prefix(network, length);
      for (WhatIfRouteState* side : {&entry.before, &entry.after}) {
        side->reachable = r.get<std::uint8_t>() != 0;
        side->via = r.get<std::uint32_t>();
        side->origin = r.get<std::uint32_t>();
        side->path_length = r.get<std::uint32_t>();
      }
      entry.changed = r.get<std::uint8_t>() != 0;
      result.entries.push_back(entry);
    }
    result.wave_events = r.get<std::uint64_t>();
    result.reachable_before = r.get<std::uint32_t>();
    result.reachable_after = r.get<std::uint32_t>();
    r.expect_end();
    return result;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> answer(QueryKind kind,
                                 std::span<const std::uint8_t> request,
                                 const Snapshot& snapshot) {
  try {
    switch (kind) {
      case QueryKind::kServerInfo: {
        wire::Reader r(request);
        r.expect_end();
        return answer_server_info(snapshot);
      }
      case QueryKind::kSaPrevalence:
        return answer_sa_prevalence(request, snapshot);
      case QueryKind::kHoming:
        return answer_homing(request, snapshot);
      case QueryKind::kCauses:
        return answer_causes(request, snapshot);
      case QueryKind::kPathAvailability:
        return answer_path_availability(request, snapshot);
      case QueryKind::kRerunInfer:
        return answer_rerun_infer(request, snapshot);
      case QueryKind::kWhatIfFailure:
        return answer_what_if_failure(request, snapshot);
    }
    return error_response("unknown query kind");
  } catch (const std::exception& error) {
    return error_response(error.what());
  }
}

}  // namespace bgpolicy::serve
