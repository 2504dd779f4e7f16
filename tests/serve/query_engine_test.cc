// The query engine's determinism contract (ISSUE 8): every query kind's
// response is a pure function of (request, snapshot artifacts), so
// snapshots built at different worker-thread counts answer every query
// with byte-identical payloads — the library half of the acceptance
// criterion that daemon results match direct library calls at any
// --threads value.  Also pins the error paths: unknown vantages,
// unindexed prefixes, and trailing request bytes become kError responses,
// never throws.
#include "serve/query.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/decision.h"
#include "bgp/prefix.h"
#include "bgp/route.h"
#include "core/artifact_store.h"
#include "core/scenario.h"
#include "serve/snapshot.h"
#include "sim/propagation.h"
#include "testing/fixtures.h"
#include "util/ids.h"

namespace bgpolicy::serve {
namespace {

using util::AsNumber;

/// Snapshots of one scenario built at 1 and 3 worker threads (static:
/// built once for the whole suite).
const Snapshot& snapshot_t1() {
  static const std::shared_ptr<Snapshot> snapshot = [] {
    core::Scenario scenario = core::Scenario::small(7);
    scenario.propagation.threads = 1;
    return build_snapshot(scenario);
  }();
  return *snapshot;
}

const Snapshot& snapshot_t3() {
  static const std::shared_ptr<Snapshot> snapshot = [] {
    core::Scenario scenario = core::Scenario::small(7);
    scenario.propagation.threads = 3;
    return build_snapshot(scenario);
  }();
  return *snapshot;
}

std::vector<std::uint8_t> ok_answer(QueryKind kind,
                                    const std::vector<std::uint8_t>& request,
                                    const Snapshot& snapshot) {
  const std::vector<std::uint8_t> payload = answer(kind, request, snapshot);
  const auto view = split_response(payload);
  EXPECT_TRUE(view.has_value());
  EXPECT_EQ(view->status, QueryStatus::kOk)
      << to_string(kind) << ": " << decode_error(view->body);
  return payload;
}

TEST(QueryEngine, SnapshotsBuiltAtAnyThreadCountAnswerIdentically) {
  const Snapshot& a = snapshot_t1();
  const Snapshot& b = snapshot_t3();
  ASSERT_EQ(a.analyses_digest, b.analyses_digest)
      << "artifact determinism broken upstream of the query engine";

  // Every kind, across every vantage the analyses cover plus a few
  // prefixes, byte-compared between the two snapshots.
  std::size_t compared = 0;
  for (const core::VantageAnalysis& vantage : a.analyses.vantages) {
    const std::vector<std::uint8_t> as_request =
        encode_as_request(vantage.vantage);
    for (const QueryKind kind :
         {QueryKind::kSaPrevalence, QueryKind::kCauses}) {
      EXPECT_EQ(ok_answer(kind, as_request, a), ok_answer(kind, as_request, b))
          << to_string(kind) << " for AS " << vantage.vantage.value();
      ++compared;
    }
    if (vantage.looking_glass) {
      EXPECT_EQ(ok_answer(QueryKind::kPathAvailability, as_request, a),
                ok_answer(QueryKind::kPathAvailability, as_request, b));
      ++compared;
    }
  }
  const core::PathIndex& paths = a.observations.paths;
  ASSERT_GT(paths.path_count(), 0u);
  for (std::size_t i = 0; i < paths.path_count();
       i += std::max<std::size_t>(1, paths.path_count() / 16)) {
    const std::vector<std::uint8_t> request =
        encode_prefix_request(paths.prefix_at(i));
    EXPECT_EQ(ok_answer(QueryKind::kHoming, request, a),
              ok_answer(QueryKind::kHoming, request, b));
    ++compared;
  }
  EXPECT_GT(compared, 4u) << "the comparison loop covered almost nothing";
}

TEST(QueryEngine, ServerInfoReflectsSnapshotIdentity) {
  const Snapshot& snapshot = snapshot_t1();
  const std::vector<std::uint8_t> payload =
      ok_answer(QueryKind::kServerInfo, encode_server_info_request(),
                snapshot);
  const auto view = split_response(payload);
  ASSERT_TRUE(view.has_value());
  const auto info = decode_server_info(view->body);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->scenario_name, snapshot.scenario_name);
  EXPECT_EQ(info->scenario_key, snapshot.scenario_key);
  EXPECT_EQ(info->analyses_digest, snapshot.analyses_digest);
  EXPECT_EQ(info->vantage_count, snapshot.analyses.vantages.size());
  EXPECT_EQ(info->observed_paths, snapshot.observations.paths.path_count());
  EXPECT_GT(info->inferred_edges, 0u);
}

TEST(QueryEngine, RerunInferMatchesAcrossSnapshotsAndParams) {
  // What-if re-inference: identical params produce identical bytes on both
  // snapshots; changed params produce a *different* answer (the query
  // actually re-runs inference rather than echoing the snapshot).
  asrel::GaoParams params;
  const std::vector<std::uint8_t> request = encode_infer_request(params);
  const std::vector<std::uint8_t> baseline =
      ok_answer(QueryKind::kRerunInfer, request, snapshot_t1());
  EXPECT_EQ(baseline,
            ok_answer(QueryKind::kRerunInfer, request, snapshot_t3()));

  asrel::GaoParams no_peers = params;
  no_peers.detect_peers = false;
  EXPECT_NE(baseline,
            ok_answer(QueryKind::kRerunInfer,
                      encode_infer_request(no_peers), snapshot_t1()));
}

TEST(QueryEngine, UnknownVantageIsAnErrorResponseNotAThrow) {
  const std::vector<std::uint8_t> request =
      encode_as_request(AsNumber(999'999'999));
  for (const QueryKind kind :
       {QueryKind::kSaPrevalence, QueryKind::kCauses,
        QueryKind::kPathAvailability}) {
    const std::vector<std::uint8_t> payload =
        answer(kind, request, snapshot_t1());
    const auto view = split_response(payload);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->status, QueryStatus::kError) << to_string(kind);
    EXPECT_FALSE(decode_error(view->body).empty());
  }
}

TEST(QueryEngine, UnindexedPrefixIsAnErrorResponse) {
  const std::vector<std::uint8_t> request =
      encode_prefix_request(bgp::Prefix(0x0A0A0A00, 31));
  const auto view =
      split_response(answer(QueryKind::kHoming, request, snapshot_t1()));
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->status, QueryStatus::kError);
}

TEST(QueryEngine, MalformedRequestPayloadIsAnErrorResponse) {
  const Snapshot& snapshot = snapshot_t1();
  // Trailing bytes, truncated payloads, and payloads for the wrong kind
  // all land in kError (the engine's no-throw guarantee toward the loop).
  const std::vector<std::uint8_t> trailing = {1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::uint8_t> truncated = {1};
  for (const QueryKind kind :
       {QueryKind::kServerInfo, QueryKind::kSaPrevalence, QueryKind::kHoming,
        QueryKind::kCauses, QueryKind::kPathAvailability,
        QueryKind::kRerunInfer, QueryKind::kWhatIfFailure}) {
    for (const auto* request : {&trailing, &truncated}) {
      const auto view = split_response(answer(kind, *request, snapshot));
      ASSERT_TRUE(view.has_value());
      EXPECT_EQ(view->status, QueryStatus::kError)
          << to_string(kind) << " with " << request->size()
          << " request bytes";
    }
  }
}

TEST(QueryEngine, KnownKindCoversExactlyTheDispatchableKinds) {
  EXPECT_FALSE(known_kind(0));
  for (std::uint16_t kind = 1; kind <= 7; ++kind) {
    EXPECT_TRUE(known_kind(kind)) << kind;
  }
  EXPECT_FALSE(known_kind(8));
  EXPECT_FALSE(known_kind(static_cast<std::uint16_t>(1 | kResponseBit)));
}

// ------------------------------------------------------- what-if failure --

/// A deterministic (vantage, failed edge) probe: the session between the
/// first origination's origin and that origin's first neighbor, observed
/// from the first analysis vantage.
struct WhatIfProbe {
  AsNumber vantage;
  std::pair<AsNumber, AsNumber> edge;
};

WhatIfProbe make_probe(const Snapshot& snapshot) {
  const core::GroundTruth& truth = *snapshot.truth;
  const sim::Origination& origination = truth.originations.front();
  const auto& neighbors = truth.topo.graph.neighbors(origination.origin);
  WhatIfProbe probe{snapshot.analyses.vantages.front().vantage,
                    {origination.origin, neighbors.front().as}};
  return probe;
}

TEST(QueryEngine, WhatIfFailureIsDeterministicAcrossSnapshots) {
  const Snapshot& a = snapshot_t1();
  const Snapshot& b = snapshot_t3();
  ASSERT_NE(a.what_if, nullptr);
  ASSERT_NE(b.what_if, nullptr);
  const WhatIfProbe probe = make_probe(a);
  const std::vector<std::pair<AsNumber, AsNumber>> edges = {probe.edge};

  // All originated prefixes (empty filter): both snapshots, byte-equal.
  const std::vector<std::uint8_t> request =
      encode_what_if_request(probe.vantage, edges);
  const std::vector<std::uint8_t> payload_a =
      ok_answer(QueryKind::kWhatIfFailure, request, a);
  EXPECT_EQ(payload_a, ok_answer(QueryKind::kWhatIfFailure, request, b));
  // Asking twice must not drift (the base-state cache warms on the first
  // call; branches must never leak back into it).
  EXPECT_EQ(payload_a, ok_answer(QueryKind::kWhatIfFailure, request, a));

  const auto view = split_response(payload_a);
  ASSERT_TRUE(view.has_value());
  const auto result = decode_what_if(view->body);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->vantage, probe.vantage.value());
  EXPECT_EQ(result->edge_count, 1u);
  EXPECT_FALSE(result->entries.empty());
  EXPECT_LE(result->reachable_after, result->entries.size());
}

TEST(QueryEngine, WhatIfFailureMatchesColdRecomputation) {
  const Snapshot& snapshot = snapshot_t1();
  ASSERT_NE(snapshot.what_if, nullptr);
  const core::GroundTruth& truth = *snapshot.truth;
  const WhatIfProbe probe = make_probe(snapshot);
  const std::vector<std::pair<AsNumber, AsNumber>> edges = {probe.edge};

  // All originated prefixes (empty filter).
  const std::vector<std::uint8_t> payload =
      ok_answer(QueryKind::kWhatIfFailure,
                encode_what_if_request(probe.vantage, edges), snapshot);
  const auto view = split_response(payload);
  ASSERT_TRUE(view.has_value());
  const auto result = decode_what_if(view->body);
  ASSERT_TRUE(result.has_value());

  // One entry per distinct prefix, in first-origination order.
  std::vector<bgp::Prefix> prefixes;
  for (const sim::Origination& o : truth.originations) {
    if (std::find(prefixes.begin(), prefixes.end(), o.prefix) ==
        prefixes.end()) {
      prefixes.push_back(o.prefix);
    }
  }
  ASSERT_EQ(result->entries.size(), prefixes.size());

  // Cold ground truth of both worlds in exact order, MOAS-merged the same
  // way.
  const sim::FlatSimContext context(truth.topo.graph, truth.gen.policies);
  sim::FlatScratch scratch;
  const auto cold_best = [&](const bgp::Prefix& prefix,
                             const sim::FailedEdges* failed)
      -> std::optional<bgp::Route> {
    std::vector<bgp::Route> candidates;
    for (const sim::Origination& o : truth.originations) {
      if (o.prefix != prefix) continue;
      const sim::PrefixRouting routing = testing::compute_prefix_exact(
          context, o, failed, {}, scratch);
      if (const bgp::Route* route = routing.best_at(probe.vantage)) {
        candidates.push_back(*route);
      }
    }
    if (candidates.empty()) return std::nullopt;
    return candidates[bgp::select_best(candidates).value_or(0)];
  };
  const auto expect_state = [](const WhatIfRouteState& state,
                               const std::optional<bgp::Route>& route) {
    EXPECT_EQ(state.reachable, route.has_value());
    if (!route.has_value()) return;
    EXPECT_EQ(state.via,
              route->next_hop_as().value_or(route->learned_from).value());
    EXPECT_EQ(state.origin, route->origin_as().value());
    EXPECT_EQ(state.path_length, route->path.length());
  };
  sim::FailedEdges failed;
  failed.fail(probe.edge.first, probe.edge.second);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    SCOPED_TRACE(prefixes[i].to_string());
    const WhatIfEntry& entry = result->entries[i];
    EXPECT_EQ(entry.prefix, prefixes[i]);
    const std::optional<bgp::Route> before = cold_best(prefixes[i], nullptr);
    const std::optional<bgp::Route> after = cold_best(prefixes[i], &failed);
    expect_state(entry.before, before);
    expect_state(entry.after, after);
    EXPECT_EQ(entry.changed, before != after);
  }
}

TEST(QueryEngine, WhatIfFailureErrorPaths) {
  const Snapshot& snapshot = snapshot_t1();
  const WhatIfProbe probe = make_probe(snapshot);
  const std::vector<std::pair<AsNumber, AsNumber>> edges = {probe.edge};

  const auto expect_error = [&](const std::vector<std::uint8_t>& request) {
    // Keep the payload alive: ResponseView::body is a span into it.
    const std::vector<std::uint8_t> payload =
        answer(QueryKind::kWhatIfFailure, request, snapshot);
    const auto view = split_response(payload);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->status, QueryStatus::kError);
    EXPECT_FALSE(decode_error(view->body).empty());
  };
  // No edges.
  expect_error(encode_what_if_request(probe.vantage, {}));
  // More edges than the request's u16 count holds: refused at encoding
  // instead of sent with a wrapped count.
  const std::vector<std::pair<AsNumber, AsNumber>> too_many(65'536,
                                                            probe.edge);
  EXPECT_THROW((void)encode_what_if_request(probe.vantage, too_many),
               std::length_error);
  // Unknown vantage / unknown edge endpoint.
  expect_error(encode_what_if_request(AsNumber(999'999'999), edges));
  const std::vector<std::pair<AsNumber, AsNumber>> bogus_edge = {
      {probe.vantage, AsNumber(999'999'999)}};
  expect_error(encode_what_if_request(probe.vantage, bogus_edge));
  // Prefix filter matching no origination.
  const std::vector<bgp::Prefix> bogus_prefix = {bgp::Prefix(0x0A0A0A00, 30)};
  expect_error(encode_what_if_request(probe.vantage, edges, bogus_prefix));
  // Snapshot without a substrate (a hand-built test snapshot).
  Snapshot bare;
  const std::vector<std::uint8_t> bare_payload = answer(
      QueryKind::kWhatIfFailure, encode_what_if_request(probe.vantage, edges),
      bare);
  const auto view = split_response(bare_payload);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->status, QueryStatus::kError);
}

// ------------------------------------------------------------------ pins --

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

/// Digest of `kind`'s ok-replies to `requests`, concatenated.
std::string replies_digest(
    QueryKind kind, const std::vector<std::vector<std::uint8_t>>& requests,
    const Snapshot& snapshot) {
  std::vector<std::uint8_t> all;
  for (const std::vector<std::uint8_t>& request : requests) {
    const std::vector<std::uint8_t> payload =
        ok_answer(kind, request, snapshot);
    all.insert(all.end(), payload.begin(), payload.end());
  }
  return core::stable_digest_hex(std::span<const std::uint8_t>(all));
}

TEST(QueryEngine, ReplyAndRequestBytesPinned) {
  // One digest per query kind over small(7)'s replies, and the bytes of two
  // requests: a reply or request field written in another order moves a
  // pin.
  const Snapshot& snapshot = snapshot_t1();
  std::vector<std::vector<std::uint8_t>> vantages;
  std::vector<std::vector<std::uint8_t>> looking_glasses;
  for (const core::VantageAnalysis& vantage : snapshot.analyses.vantages) {
    vantages.push_back(encode_as_request(vantage.vantage));
    if (vantage.looking_glass) looking_glasses.push_back(vantages.back());
  }
  std::vector<std::vector<std::uint8_t>> prefixes;
  const core::PathIndex& paths = snapshot.observations.paths;
  for (std::size_t i = 0; i < paths.path_count();
       i += std::max<std::size_t>(1, paths.path_count() / 16)) {
    prefixes.push_back(encode_prefix_request(paths.prefix_at(i)));
  }
  asrel::GaoParams no_peers;
  no_peers.detect_peers = false;
  const WhatIfProbe probe = make_probe(snapshot);
  const std::vector<std::pair<AsNumber, AsNumber>> edges = {probe.edge};

  EXPECT_EQ(replies_digest(QueryKind::kServerInfo,
                           {encode_server_info_request()}, snapshot),
            "1694a39c93517796cbb5091e6c201af9");
  EXPECT_EQ(replies_digest(QueryKind::kSaPrevalence, vantages, snapshot),
            "1009c39aaa53d813e9ed626ecf6b91be");
  EXPECT_EQ(replies_digest(QueryKind::kHoming, prefixes, snapshot),
            "2c6fb4c5a1c5c3fdf95c1448698505d2");
  EXPECT_EQ(replies_digest(QueryKind::kCauses, vantages, snapshot),
            "ab8994be06c36c44343207bb18bc2f21");
  EXPECT_EQ(replies_digest(QueryKind::kPathAvailability, looking_glasses,
                           snapshot),
            "64956ae4d7d9f03bd64319933837f9ba");
  EXPECT_EQ(replies_digest(QueryKind::kRerunInfer,
                           {encode_infer_request(asrel::GaoParams{}),
                            encode_infer_request(no_peers)},
                           snapshot),
            "ab11ac4ee17f225dc9d913cea19a55b2");
  EXPECT_EQ(replies_digest(QueryKind::kWhatIfFailure,
                           {encode_what_if_request(probe.vantage, edges)},
                           snapshot),
            "bcf395b5abba1afa80512113c736cbe3");

  EXPECT_EQ(hex(encode_infer_request(asrel::GaoParams{})),
            "0000000000004e40000000000000e03f0101"
            "9a9999999999c93f1f85eb51b81ed53f");
  const std::vector<bgp::Prefix> filter = {bgp::Prefix(0x0A010000, 16),
                                           bgp::Prefix(0xC0A80100, 24)};
  EXPECT_EQ(hex(encode_what_if_request(AsNumber(7018), edges, filter)),
            "6a1b000001006a1b00000100000002000000010a100001a8c018");
}

}  // namespace
}  // namespace bgpolicy::serve
