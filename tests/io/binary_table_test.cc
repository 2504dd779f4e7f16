#include "io/binary_table.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "testing/experiment_cache.h"

namespace bgpolicy::io {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

bgp::BgpTable sample_table() {
  bgp::BgpTable table{AsNumber(7018)};
  auto r = make_route(Prefix::parse("10.0.0.0/24"),
                      {AsNumber(701), AsNumber(3356)}, 90);
  r.med = 7;
  r.origin = bgp::Origin::kIncomplete;
  r.add_community(bgp::Community(7018, 2000));
  table.add(r);
  table.add(make_route(Prefix::parse("10.1.0.0/16"), {AsNumber(1239)}, 120));
  return table;
}

TEST(BinaryTable, RoundTrip) {
  const auto original = sample_table();
  const auto bytes = serialize_table(original);
  const auto parsed = deserialize_table(bytes);
  EXPECT_EQ(parsed.owner(), original.owner());
  EXPECT_EQ(parsed.route_count(), original.route_count());
  const auto p = Prefix::parse("10.0.0.0/24");
  ASSERT_EQ(parsed.routes(p).size(), 1u);
  const auto& got = parsed.routes(p).front();
  const auto& want = original.routes(p).front();
  EXPECT_EQ(got.path, want.path);
  EXPECT_EQ(got.local_pref, want.local_pref);
  EXPECT_EQ(got.med, want.med);
  EXPECT_EQ(got.origin, want.origin);
  EXPECT_EQ(got.communities, want.communities);
}

TEST(BinaryTable, EncodingMatchesGoldenBytes) {
  // The layout of binary_table.h, little-endian: header, then the /24's
  // route (two hops, one community), then the /16's (one hop, none).
  const std::vector<std::uint8_t> golden = {
      0x42, 0x47, 0x50, 0x54, 0x01, 0x00, 0x6a, 0x1b, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, 0x18, 0xbd,
      0x02, 0x00, 0x00, 0x5a, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x02,
      0x02, 0x00, 0xbd, 0x02, 0x00, 0x00, 0x1c, 0x0d, 0x00, 0x00, 0x01, 0x00,
      0xd0, 0x07, 0x6a, 0x1b, 0x00, 0x00, 0x01, 0x0a, 0x10, 0xd7, 0x04, 0x00,
      0x00, 0x78, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0xd7, 0x04, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(serialize_table(sample_table()), golden);
}

TEST(BinaryTable, AppendTableWritesBehindExistingBytes) {
  const std::vector<std::uint8_t> prefix = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> out = prefix;
  append_table(sample_table(), out);
  std::vector<std::uint8_t> want = prefix;
  const auto table = serialize_table(sample_table());
  want.insert(want.end(), table.begin(), table.end());
  EXPECT_EQ(out, want);
}

TEST(BinaryTable, RejectsCorruptInput) {
  const auto bytes = serialize_table(sample_table());

  // Truncation at every boundary of interest.
  for (const std::size_t cut : std::vector<std::size_t>{
           0, 3, 6, 10, bytes.size() - 1}) {
    const std::span<const std::uint8_t> truncated(bytes.data(), cut);
    EXPECT_THROW(deserialize_table(truncated), std::invalid_argument)
        << "cut at " << cut;
  }

  // Bad magic.
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(deserialize_table(bad_magic), std::invalid_argument);

  // Bad version.
  auto bad_version = bytes;
  bad_version[4] = 0xFF;
  EXPECT_THROW(deserialize_table(bad_version), std::invalid_argument);

  // Trailing garbage.
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(deserialize_table(trailing), std::invalid_argument);
}

TEST(BinaryTable, EmptyTable) {
  const bgp::BgpTable empty{AsNumber(9)};
  const auto parsed = deserialize_table(serialize_table(empty));
  EXPECT_EQ(parsed.owner(), AsNumber(9));
  EXPECT_EQ(parsed.route_count(), 0u);
}

TEST(BinaryTable, PipelineLookingGlassRoundTrips) {
  const auto& exp = bgpolicy::testing::shared_experiment();
  const auto& lg = exp.sim().sim.looking_glass.at(AsNumber(7018));
  const auto parsed = deserialize_table(serialize_table(lg));
  EXPECT_EQ(parsed.route_count(), lg.route_count());
  EXPECT_EQ(parsed.prefix_count(), lg.prefix_count());
  // Best-route agreement on a sample prefix.
  const auto prefixes = lg.prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto* want = lg.best(prefixes.front());
  const auto* got = parsed.best(prefixes.front());
  ASSERT_NE(want, nullptr);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->path, want->path);
}

}  // namespace
}  // namespace bgpolicy::io
