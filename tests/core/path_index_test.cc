#include "core/path_index.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "io/artifact_codec.h"
#include "testing/fixtures.h"

namespace bgpolicy::core {
namespace {

using namespace bgpolicy::testing;
using bgp::Prefix;
using util::AsNumber;

const Prefix kP1 = Prefix::parse("10.0.0.0/24");
const Prefix kP2 = Prefix::parse("10.0.1.0/24");

bgp::BgpTable make_table() {
  bgp::BgpTable table{AsNumber(99)};
  table.add(make_route(kP1, {AsNumber(1), AsNumber(2), AsNumber(3)}));
  table.add(make_route(kP1, {AsNumber(4), AsNumber(3)}));
  table.add(make_route(kP2, {AsNumber(1), AsNumber(2), AsNumber(5)}));
  return table;
}

TEST(PathIndex, CountsDistinctPaths) {
  PathIndex index;
  index.add_table(make_table());
  EXPECT_EQ(index.path_count(), 3u);
  // Re-adding the same table adds nothing (dedup by prefix+path).
  index.add_table(make_table());
  EXPECT_EQ(index.path_count(), 3u);
}

TEST(PathIndex, PathsFromOrigin) {
  PathIndex index;
  index.add_table(make_table());
  const auto from3 = index.paths_from_origin(AsNumber(3));
  EXPECT_EQ(from3.size(), 2u);
  const auto from5 = index.paths_from_origin(AsNumber(5));
  ASSERT_EQ(from5.size(), 1u);
  EXPECT_EQ(from5.front().size(), 3u);
  EXPECT_TRUE(index.paths_from_origin(AsNumber(42)).empty());
}

TEST(PathIndex, PathsForPrefix) {
  PathIndex index;
  index.add_table(make_table());
  EXPECT_EQ(index.paths_for_prefix(kP1).size(), 2u);
  EXPECT_EQ(index.paths_for_prefix(kP2).size(), 1u);
  EXPECT_TRUE(index.paths_for_prefix(Prefix::parse("10.9.0.0/24")).empty());
}

TEST(PathIndex, AdjacencyIsOrdered) {
  PathIndex index;
  index.add_table(make_table());
  EXPECT_TRUE(index.has_adjacency(AsNumber(1), AsNumber(2)));
  EXPECT_TRUE(index.has_adjacency(AsNumber(2), AsNumber(3)));
  EXPECT_FALSE(index.has_adjacency(AsNumber(2), AsNumber(1)));
  EXPECT_FALSE(index.has_adjacency(AsNumber(1), AsNumber(3)));
}

TEST(PathIndex, SamePathDifferentPrefixBothIndexed) {
  bgp::BgpTable table{AsNumber(99)};
  table.add(make_route(kP1, {AsNumber(1), AsNumber(2)}));
  table.add(make_route(kP2, {AsNumber(1), AsNumber(2)}));
  PathIndex index;
  index.add_table(table);
  EXPECT_EQ(index.paths_for_prefix(kP1).size(), 1u);
  EXPECT_EQ(index.paths_for_prefix(kP2).size(), 1u);
}

TEST(PathIndex, SelfOriginatedRoutesSkipped) {
  bgp::BgpTable table{AsNumber(99)};
  bgp::Route self;
  self.prefix = kP1;
  self.learned_from = AsNumber(99);
  table.add(self);
  PathIndex index;
  index.add_table(table);
  EXPECT_EQ(index.path_count(), 0u);
}

TEST(PathIndex, AdjacencyThroughTheLargestAsNumber) {
  // A path prepended through AS 4294967295: its self-adjacency key
  // (a << 32) | b is all ones, the flat set's empty-slot marker.
  const AsNumber max_as(4294967295u);
  bgp::BgpTable table{AsNumber(99)};
  table.add(make_route(kP1, {max_as, max_as, AsNumber(7)}));
  PathIndex index;
  index.add_table(table);
  EXPECT_TRUE(index.has_adjacency(max_as, max_as));
  EXPECT_TRUE(index.has_adjacency(max_as, AsNumber(7)));
  EXPECT_FALSE(index.has_adjacency(AsNumber(7), max_as));
  EXPECT_FALSE(index.has_adjacency(AsNumber(7), AsNumber(7)));
  EXPECT_EQ(index.adjacency_count(), 2u);

  // Seen again through a prepended source: one more adjacency, not two.
  const PathIndex::TableSource source{&table, max_as};
  index.add_tables(std::span(&source, 1));
  EXPECT_EQ(index.path_count(), 2u);
  EXPECT_EQ(index.adjacency_count(), 2u);
  EXPECT_TRUE(index.has_adjacency(max_as, max_as));
}

TEST(PathIndex, AddTablesMatchesAddPathWithThePrependedAs) {
  bgp::BgpTable collector = make_table();
  bgp::BgpTable lg{AsNumber(4)};
  lg.add(make_route(kP1, {AsNumber(3)}));
  lg.add(make_route(kP2, {AsNumber(1), AsNumber(2), AsNumber(5)}));
  bgp::Route self;  // self-originated: indexed as the vantage alone
  self.prefix = Prefix::parse("10.0.2.0/24");
  self.learned_from = AsNumber(4);
  lg.add(self);
  const std::vector<PathIndex::TableSource> sources = {
      {&collector, std::nullopt}, {&lg, AsNumber(4)}, {&collector, AsNumber(4)}};
  PathIndex built;
  built.add_tables(sources);

  PathIndex expected;
  expected.add_table(collector);
  for (const PathIndex::TableSource& source : {sources[1], sources[2]}) {
    for (const bgp::TableEntry entry : *source.table) {
      for (const bgp::RouteView route : entry) {
        std::vector<AsNumber> path = {*source.prepend};
        const bgp::HopSpan hops = route.path();
        path.insert(path.end(), hops.begin(), hops.end());
        expected.add_path(entry.prefix(), path);
      }
    }
  }

  ASSERT_EQ(built.path_count(), expected.path_count());
  for (std::size_t i = 0; i < built.path_count(); ++i) {
    EXPECT_EQ(built.prefix_at(i), expected.prefix_at(i)) << "entry " << i;
    EXPECT_TRUE(std::ranges::equal(built.path_at(i), expected.path_at(i)))
        << "entry " << i;
  }
  EXPECT_EQ(built.adjacency_count(), expected.adjacency_count());
  // The collector's paths under the prepended vantage are new observations
  // for kP1/kP2, and `4 3` appears twice but is indexed once.
  EXPECT_EQ(built.paths_for_prefix(kP1).size(), 4u);
  EXPECT_EQ(built.paths_from_origin(AsNumber(4)).size(), 1u);
}

using Paths = std::vector<std::vector<AsNumber>>;

Paths as_lists(const std::vector<std::span<const AsNumber>>& spans) {
  Paths out;
  for (const auto span : spans) out.emplace_back(span.begin(), span.end());
  return out;
}

Paths as_paths(std::initializer_list<std::initializer_list<std::uint32_t>> paths) {
  Paths out;
  for (const auto& path : paths) {
    out.emplace_back();
    for (const std::uint32_t as : path) out.back().emplace_back(as);
  }
  return out;
}

/// An index where kP1 shows up in two separate runs (two tables apart, with
/// kP2 between) and AS 3 originates paths of both prefixes.
PathIndex two_run_index() {
  bgp::BgpTable second{AsNumber(98)};
  second.add(make_route(kP2, {AsNumber(6), AsNumber(3)}));
  second.add(make_route(kP1, {AsNumber(6), AsNumber(2), AsNumber(3)}));
  second.add(make_route(kP1, {AsNumber(4), AsNumber(3)}));  // a duplicate
  PathIndex index;
  index.add_table(make_table());
  index.add_table(second);
  index.add_path(kP1, std::vector<AsNumber>{AsNumber(7), AsNumber(3)});
  return index;
}

/// The index an Observations artifact round-trip rebuilds.
PathIndex decoded(const PathIndex& index) {
  Observations observations;
  observations.paths = index;
  return io::decode_observations(io::encode(observations)).paths;
}

TEST(PathIndex, DecodedIndexAnswersInInsertionOrder) {
  // The lists the vector-per-key index returned, in insertion order.
  const Paths p1 = as_paths({{1, 2, 3}, {4, 3}, {6, 2, 3}, {7, 3}});
  const Paths p2 = as_paths({{1, 2, 5}, {6, 3}});
  const Paths from3 = as_paths({{1, 2, 3}, {4, 3}, {6, 3}, {6, 2, 3}, {7, 3}});
  const Paths from5 = as_paths({{1, 2, 5}});
  const PathIndex built = two_run_index();
  const PathIndex replayed = decoded(built);
  for (const PathIndex* index : {&built, &replayed}) {
    EXPECT_EQ(index->path_count(), 6u);
    EXPECT_EQ(as_lists(index->paths_for_prefix(kP1)), p1);
    EXPECT_EQ(as_lists(index->paths_for_prefix(kP2)), p2);
    EXPECT_EQ(as_lists(index->paths_from_origin(AsNumber(3))), from3);
    EXPECT_EQ(as_lists(index->paths_from_origin(AsNumber(5))), from5);
    EXPECT_TRUE(index->paths_from_origin(AsNumber(42)).empty());
    EXPECT_TRUE(index->paths_for_prefix(Prefix::parse("10.9.0.0/24")).empty());
  }
}

TEST(PathIndex, DecodedIndexStillDeduplicates) {
  PathIndex index = decoded(two_run_index());
  EXPECT_EQ(index.adjacency_count(), two_run_index().adjacency_count());

  // A stored (prefix, path) pair is not indexed twice, through either add.
  index.add_path(kP1, std::vector<AsNumber>{AsNumber(4), AsNumber(3)});
  index.add_table(make_table());
  EXPECT_EQ(index.path_count(), 6u);

  // A new pair appends, last in its lists.
  index.add_path(kP2, std::vector<AsNumber>{AsNumber(8), AsNumber(3)});
  EXPECT_EQ(index.path_count(), 7u);
  EXPECT_EQ(as_lists(index.paths_for_prefix(kP2)),
            as_paths({{1, 2, 5}, {6, 3}, {8, 3}}));
  EXPECT_EQ(as_lists(index.paths_from_origin(AsNumber(3))).back(),
            as_paths({{8, 3}}).front());
  EXPECT_TRUE(index.has_adjacency(AsNumber(8), AsNumber(3)));
  index.add_path(kP2, std::vector<AsNumber>{AsNumber(8), AsNumber(3)});
  EXPECT_EQ(index.path_count(), 7u);
}

PathIndex adopt_with_offsets(const PathIndex& built,
                             std::vector<std::uint32_t> offsets) {
  return PathIndex::adopt({built.hops().begin(), built.hops().end()},
                          std::move(offsets),
                          {built.prefixes().begin(), built.prefixes().end()},
                          built.adjacency());
}

// adopt() takes the stored buffers back as they are and rebuilds the id
// lists (DecodedIndexAnswersInInsertionOrder checks their answers); it
// refuses offsets that leave an entry without hops or miss the hop count.
TEST(PathIndex, AdoptTakesBackTheStoredBuffers) {
  const PathIndex built = two_run_index();
  const std::vector<std::uint32_t> offsets(built.offsets().begin(),
                                           built.offsets().end());
  const PathIndex adopted = adopt_with_offsets(built, offsets);
  ASSERT_EQ(adopted.path_count(), built.path_count());
  for (std::size_t i = 0; i < built.path_count(); ++i) {
    EXPECT_EQ(adopted.prefix_at(i), built.prefix_at(i));
    EXPECT_TRUE(std::ranges::equal(adopted.path_at(i), built.path_at(i)));
  }
  EXPECT_EQ(adopted.adjacency_count(), built.adjacency_count());

  std::vector<std::uint32_t> empty_entry = offsets;
  empty_entry[2] = empty_entry[1];
  EXPECT_THROW((void)adopt_with_offsets(built, empty_entry),
               std::invalid_argument);
  std::vector<std::uint32_t> past_hops = offsets;
  ++past_hops.back();
  EXPECT_THROW((void)adopt_with_offsets(built, past_hops),
               std::invalid_argument);
}

}  // namespace
}  // namespace bgpolicy::core
