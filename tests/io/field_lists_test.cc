// Every stored or served type's one field list, walked field by field
// (util/fields.h, io/archive.h).  Setting any one field to another value
// must move the bytes the archive writes for the type and survive the
// round trip through the checked reader, at the count width of each place
// the type is written: u64 in stored artifacts, u32 in the query
// service's payloads, u16 in its what-if request.  GaoParams' fields must
// also each move the Infer store key and the rerun_infer request.  That
// each list names every member of its struct is checked at compile time,
// next to the list (util::lists_every_member).
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/analysis_suite.h"
#include "core/experiment.h"
#include "io/archive.h"
#include "io/artifact_codec.h"
#include "serve/query.h"
#include "testing/fixtures.h"

namespace bgpolicy::io {
namespace {

using util::AsNumber;

template <typename T>
void change(T& value);

/// Changes the `target`-th field a list visits.
struct ChangeField {
  std::size_t target = 0;
  std::size_t index = 0;

  template <typename T>
  void operator()(const char* /*name*/, T& field) {
    if (index++ == target) change(field);
  }
};

/// Sets `value` to another value of its type: a list type through its
/// first field, a container by one more element.
template <typename T>
void change(T& value) {
  if constexpr (std::is_same_v<T, topo::AsGraph>) {
    value.add_as(AsNumber(static_cast<std::uint32_t>(value.as_count() + 1)));
  } else if constexpr (std::is_same_v<T, bgp::BgpTable>) {
    value.add(testing::make_route(bgp::Prefix(0x0A000000, 8),
                                  {AsNumber(1), AsNumber(2)}));
  } else if constexpr (std::is_same_v<T, asrel::GaoInference>) {
    const std::vector<AsNumber> path = {AsNumber(1), AsNumber(2)};
    value.add_path(path);
  } else if constexpr (std::is_same_v<T, core::PathIndex>) {
    const std::vector<AsNumber> path = {AsNumber(1), AsNumber(2)};
    value.add_path(bgp::Prefix(0x0A000000, 8), path);
  } else if constexpr (archive_detail::Listed<T>) {
    ChangeField first;
    fields(first, value);
  } else if constexpr (std::is_same_v<T, bool>) {
    value = !value;
  } else if constexpr (std::is_enum_v<T>) {
    // The next value in range; a default enum may lie below it (Tier).
    using Raw = std::underlying_type_t<T>;
    const auto [first, last] = enum_range(T{});
    value = value < first || value >= last
                ? first
                : static_cast<T>(static_cast<Raw>(value) + 1);
  } else if constexpr (std::is_arithmetic_v<T>) {
    value = static_cast<T>(value + 1);
  } else if constexpr (std::is_same_v<T, AsNumber>) {
    value = AsNumber(value.value() + 1);
  } else if constexpr (std::is_same_v<T, bgp::Prefix>) {
    value = bgp::Prefix(value.network() + 0x01000000, 8);
  } else if constexpr (std::is_same_v<T, std::string>) {
    value += 'x';
  } else if constexpr (archive_detail::kIs<T, std::vector>) {
    value.emplace_back();
  } else if constexpr (archive_detail::kIs<T, std::optional>) {
    if (value) {
      value.reset();
    } else {
      value.emplace();
    }
  } else if constexpr (archive_detail::kIs<T, std::unordered_map>) {
    typename T::key_type key{};
    while (value.contains(key)) change(key);
    change(value[key]);
  } else {
    static_assert(archive_detail::kIs<T, std::pair>);
    change(value.first);
  }
}

/// The value each walk starts from: a default one, except where the
/// fields constrain one another.
template <typename T>
T base_value() {
  return T{};
}

template <>
core::SimChunk base_value<core::SimChunk>() {
  core::SimChunk chunk;
  chunk.begin = 1;
  chunk.end = 2;
  chunk.total = 3;
  return chunk;
}

/// Each field of T, changed alone, moves T's bytes at count width `Count`
/// and round-trips.
template <typename T, typename Count>
void walk_fields() {
  SCOPED_TRACE(::testing::internal::GetTypeName<T>() + " at " +
               std::to_string(8 * sizeof(Count)) + "-bit counts");
  const std::vector<std::uint8_t> base = write_fields<Count>(base_value<T>());
  EXPECT_EQ(write_fields<Count>(read_fields<T, Count>(base)), base);
  constexpr std::size_t kFields = util::listed_fields<T>();
  static_assert(kFields > 0);
  for (std::size_t i = 0; i < kFields; ++i) {
    T value = base_value<T>();
    ChangeField change_one{i};
    fields(change_one, value);
    const std::vector<std::uint8_t> bytes = write_fields<Count>(value);
    EXPECT_NE(bytes, base) << "field " << i << " left the bytes unmoved";
    EXPECT_EQ(write_fields<Count>(read_fields<T, Count>(bytes)), bytes)
        << "field " << i << " did not round-trip";
  }
}

template <typename... Types>
void walk_stored() {
  (walk_fields<Types, std::uint64_t>(), ...);
}

TEST(FieldLists, EveryStoredFieldMovesTheBytesAndRoundTrips) {
  walk_stored<topo::Topology, topo::OriginatedPrefix, sim::ImportPolicy,
              sim::ExportRule, sim::ExportPolicy, sim::CommunityProfile,
              sim::ConditionalAdvertisement, sim::AsPolicy, sim::PolicySet,
              sim::SelectiveUnit, sim::IntermediateSelective,
              sim::PrependUnit, sim::GroundTruth, sim::GeneratedPolicies,
              sim::Origination>();
  walk_stored<sim::VantageSpec, sim::SimResult, core::SimArtifact,
              core::SimChunk>();
  walk_stored<rpsl::ImportLine, rpsl::ExportLine, rpsl::CommunityRemark,
              rpsl::AutNum, core::Observations, asrel::TierAssignment>();
  walk_stored<core::SaPrefix, core::SaAnalysis, core::HomingDistribution,
              core::CausesAnalysis, core::ImportTypicality,
              core::SaVerification, core::VantageAnalysis,
              core::AnalysisSuite>();
}

TEST(FieldLists, EveryServedFieldMovesTheBytesAndRoundTrips) {
  walk_fields<asrel::GaoParams, std::uint32_t>();
  walk_fields<core::SaAnalysis, std::uint32_t>();
  walk_fields<core::CausesAnalysis, std::uint32_t>();
  walk_fields<serve::ServerInfo, std::uint32_t>();
  walk_fields<serve::WhatIfRouteState, std::uint32_t>();
  walk_fields<serve::WhatIfEntry, std::uint32_t>();
  walk_fields<serve::WhatIfResult, std::uint32_t>();
  walk_fields<serve::WhatIfRequest, std::uint16_t>();
}

TEST(FieldLists, EveryGaoParamMovesTheInferKeyAndTheRequest) {
  const asrel::GaoParams base;
  const std::string base_key = core::infer_store_key("digest", base);
  const std::vector<std::uint8_t> base_request =
      serve::encode_infer_request(base);
  for (std::size_t i = 0; i < util::listed_fields<asrel::GaoParams>(); ++i) {
    asrel::GaoParams params = base;
    ChangeField change_one{i};
    fields(change_one, params);
    EXPECT_NE(core::infer_store_key("digest", params), base_key)
        << "field " << i;
    EXPECT_NE(serve::encode_infer_request(params), base_request)
        << "field " << i;
  }
  // Worker counts are not part of an inference's identity.
  asrel::GaoParams threaded = base;
  threaded.threads = 8;
  EXPECT_EQ(core::infer_store_key("digest", threaded), base_key);
  EXPECT_EQ(serve::encode_infer_request(threaded), base_request);
  EXPECT_EQ(base_key,
            "bgpolicy-artifact/v2|infer|digest|peer_degree_ratio=60;"
            "sibling_balance=0.5;detect_peers=1;detect_clique=1;"
            "clique_degree_fraction=0.2;peer_candidate_min_share=0.33;");
}

TEST(FieldLists, ElementMinimumsComeFromTheLists) {
  // The count guard's per-element minimum: fixed fields at their width,
  // every string, container and optional empty.
  EXPECT_EQ((min_bytes<std::uint64_t, topo::OriginatedPrefix>()), 10u);
  EXPECT_EQ((min_bytes<std::uint64_t, sim::ExportRule>()), 8u);
  // ImportLine's default `accept` is "ANY"; the minimum counts it empty.
  EXPECT_EQ((min_bytes<std::uint64_t, rpsl::ImportLine>()), 13u);
  EXPECT_EQ((min_bytes<std::uint32_t, core::SaPrefix>()), 14u);
  EXPECT_EQ((min_bytes<std::uint16_t, serve::WhatIfRequest>()), 8u);
}

}  // namespace
}  // namespace bgpolicy::io
