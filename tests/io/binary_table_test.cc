#include "io/binary_table.h"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/scenario.h"
#include "testing/experiment_cache.h"
#include "testing/fixtures.h"

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
  EXPECT_EQ(parsed.routes(p)[0].to_route(), original.routes(p)[0].to_route());
  EXPECT_EQ(serialize_table(parsed), bytes);

  // An adopted table takes adds like the table it was stored from.
  auto grown = parsed;
  auto reference = original;
  for (auto* table : {&grown, &reference}) {
    table->add(make_route(p, {AsNumber(1239), AsNumber(3356)}, 80));
    table->add(make_route(p, {AsNumber(701)}, 95));  // replaces
    table->add(make_route(Prefix::parse("10.2.0.0/16"), {AsNumber(7)}));
  }
  EXPECT_EQ(serialize_table(grown), serialize_table(reference));
  EXPECT_EQ(grown.routes(p).size(), 2u);
}

TEST(BinaryTable, EncodingMatchesGoldenBytes) {
  // The layout of binary_table.h, little-endian: the header, then each
  // column — the /24's row (two hops, one community) before the /16's (one
  // hop, none).
  const std::vector<std::uint8_t> golden = {
      // "BGPT", version 2, owner 7018, 2 prefixes, 2 rows, 3 hops, 1 community
      0x42, 0x47, 0x50, 0x54, 0x02, 0x00, 0x6a, 0x1b, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00,
      // networks, lengths, rows per prefix
      0x00, 0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x18, 0x10, 0x01, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      // learned_from, local_pref, med, origin
      0xbd, 0x02, 0x00, 0x00, 0xd7, 0x04, 0x00, 0x00, 0x5a, 0x00, 0x00, 0x00,
      0x78, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00,
      // hops per row, communities per row
      0x02, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00,
      // hops, communities
      0xbd, 0x02, 0x00, 0x00, 0x1c, 0x0d, 0x00, 0x00, 0xd7, 0x04, 0x00, 0x00,
      0xd0, 0x07, 0x6a, 0x1b};
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

TEST(BinaryTable, EmptyTable) {
  const bgp::BgpTable empty{AsNumber(9)};
  const auto parsed = deserialize_table(serialize_table(empty));
  EXPECT_EQ(parsed.owner(), AsNumber(9));
  EXPECT_EQ(parsed.route_count(), 0u);
}

TEST(BinaryTable, PipelineLookingGlassRoundTrips) {
  const auto& exp = bgpolicy::testing::shared_experiment();
  const auto& lg = exp.sim().sim.looking_glass.at(AsNumber(7018));
  const auto bytes = serialize_table(lg);
  const auto parsed = deserialize_table(bytes);
  EXPECT_EQ(parsed.route_count(), lg.route_count());
  EXPECT_EQ(parsed.prefix_count(), lg.prefix_count());
  EXPECT_EQ(serialize_table(parsed), bytes);
  // Best-route agreement on a sample prefix.
  const auto prefixes = lg.prefixes();
  ASSERT_FALSE(prefixes.empty());
  const auto want = lg.best(prefixes.front());
  const auto got = parsed.best(prefixes.front());
  ASSERT_TRUE(want);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->to_route(), want->to_route());
}

// ------------------------------------------------------- hostile bytes --

/// Where each column of a stored table starts, from its header counts.
struct ColumnOffsets {
  std::size_t networks, lengths, rows, learned_from, local_pref, med, origin,
      hop_counts, community_counts, hops, communities, end;
};

std::uint32_t read_u32(const std::vector<std::uint8_t>& bytes,
                       std::size_t at) {
  std::uint32_t value;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

template <typename T>
void write(std::vector<std::uint8_t>& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

ColumnOffsets column_offsets(const std::vector<std::uint8_t>& bytes) {
  const std::size_t prefixes = read_u32(bytes, 10);
  const std::size_t rows = read_u32(bytes, 14);
  const std::size_t hops = read_u32(bytes, 18);
  const std::size_t communities = read_u32(bytes, 22);
  ColumnOffsets c{};
  c.networks = 26;
  c.lengths = c.networks + 4 * prefixes;
  c.rows = c.lengths + prefixes;
  c.learned_from = c.rows + 4 * prefixes;
  c.local_pref = c.learned_from + 4 * rows;
  c.med = c.local_pref + 4 * rows;
  c.origin = c.med + 4 * rows;
  c.hop_counts = c.origin + rows;
  c.community_counts = c.hop_counts + 2 * rows;
  c.hops = c.community_counts + 2 * rows;
  c.communities = c.hops + 4 * hops;
  c.end = c.communities + 4 * communities;
  return c;
}

/// A small(7) looking-glass table: prefixes with several rows, paths and
/// communities of every length the codec must bound.
const std::vector<std::uint8_t>& small7_table_bytes() {
  static const std::vector<std::uint8_t> bytes = [] {
    const core::Scenario scenario = core::Scenario::small(7);
    const core::GroundTruth truth = core::synthesize(scenario);
    const core::SimArtifact sim = core::simulate(scenario, truth, 1);
    const bgp::BgpTable* largest = &sim.sim.collector;
    for (const auto& [as, table] : sim.sim.looking_glass) {
      if (table.route_count() > largest->route_count()) largest = &table;
    }
    return serialize_table(*largest);
  }();
  return bytes;
}

void expect_rejected(const std::vector<std::uint8_t>& bytes,
                     const std::string& what) {
  EXPECT_THROW((void)deserialize_table(bytes), std::invalid_argument) << what;
}

TEST(BinaryTable, RejectsTruncationAtEveryColumnBoundary) {
  const std::vector<std::uint8_t>& bytes = small7_table_bytes();
  ASSERT_EQ(serialize_table(deserialize_table(bytes)), bytes);
  const ColumnOffsets c = column_offsets(bytes);
  ASSERT_EQ(c.end, bytes.size());
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{6}, std::size_t{10},
        c.networks, c.lengths, c.rows, c.learned_from, c.local_pref, c.med,
        c.origin, c.hop_counts, c.community_counts, c.hops, c.communities,
        c.end - 1}) {
    expect_rejected({bytes.begin(), bytes.begin() + cut},
                    "cut at " + std::to_string(cut));
  }
  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  expect_rejected(trailing, "trailing byte");
}

TEST(BinaryTable, RejectsCorruptHeaders) {
  const std::vector<std::uint8_t>& bytes = small7_table_bytes();
  auto bad_magic = bytes;
  bad_magic[0] = 'X';
  expect_rejected(bad_magic, "magic");
  auto bad_version = bytes;
  bad_version[4] = 0x01;  // the per-route layout's version
  expect_rejected(bad_version, "version");
  // Each count field off by one either way, and past any input.
  for (const std::size_t field : {10, 14, 18, 22}) {
    for (const std::uint32_t delta : {1u, ~0u, 1u << 30}) {
      auto bad = bytes;
      write(bad, field, read_u32(bytes, field) + delta);
      expect_rejected(bad, "count field at " + std::to_string(field));
    }
  }
}

TEST(BinaryTable, RejectsCorruptColumns) {
  const std::vector<std::uint8_t>& bytes = small7_table_bytes();
  const ColumnOffsets c = column_offsets(bytes);
  const std::size_t prefixes = read_u32(bytes, 10);
  const std::size_t rows = read_u32(bytes, 14);
  ASSERT_GT(prefixes, 10u);

  auto long_prefix = bytes;
  long_prefix[c.lengths + 1] = 33;
  expect_rejected(long_prefix, "prefix length 33");
  auto host_bits = bytes;
  write(host_bits, c.networks, read_u32(bytes, c.networks) | 1u);
  expect_rejected(host_bits, "host bits");
  auto same_prefix = bytes;
  std::memcpy(same_prefix.data() + c.networks + 4, bytes.data() + c.networks,
              4);
  same_prefix[c.lengths + 1] = bytes[c.lengths];
  expect_rejected(same_prefix, "a prefix stored twice");
  auto bad_origin = bytes;
  bad_origin[c.origin + rows / 2] = 3;
  expect_rejected(bad_origin, "origin 3");

  // A row range past the row count, and a prefix without rows.
  auto past_rows = bytes;
  write(past_rows, c.rows + 4 * (prefixes - 1),
        read_u32(bytes, c.rows + 4 * (prefixes - 1)) + 1);
  expect_rejected(past_rows, "row range past the row count");
  auto no_rows = bytes;
  const std::uint32_t first_rows = read_u32(bytes, c.rows);
  write(no_rows, c.rows, std::uint32_t{0});
  write(no_rows, c.rows + 4, read_u32(bytes, c.rows + 4) + first_rows);
  expect_rejected(no_rows, "a prefix without rows");

  // A strided sample of per-row lengths: one more or one less than stored
  // makes the lengths miss their arena's size.
  for (const std::size_t column : {c.hop_counts, c.community_counts}) {
    for (std::size_t r = 0; r < rows; r += rows / 7 + 1) {
      for (const int delta : {1, -1}) {
        std::uint16_t length;
        std::memcpy(&length, bytes.data() + column + 2 * r, sizeof(length));
        if (delta < 0 && length == 0) continue;
        auto bad = bytes;
        write(bad, column + 2 * r, static_cast<std::uint16_t>(length + delta));
        expect_rejected(bad, "row length " + std::to_string(r));
      }
    }
  }

  // Communities out of order within a row.
  bool swapped = false;
  for (std::size_t r = 0, at = 0; r < rows && !swapped; ++r) {
    std::uint16_t length;
    std::memcpy(&length, bytes.data() + c.community_counts + 2 * r, 2);
    if (length >= 2) {
      auto unsorted = bytes;
      const std::size_t first = c.communities + 4 * at;
      std::memcpy(unsorted.data() + first, bytes.data() + first + 4, 4);
      std::memcpy(unsorted.data() + first + 4, bytes.data() + first, 4);
      expect_rejected(unsorted, "unsorted communities");
      swapped = true;
    }
    at += length;
  }
  EXPECT_TRUE(swapped);
}

}  // namespace
}  // namespace bgpolicy::io
