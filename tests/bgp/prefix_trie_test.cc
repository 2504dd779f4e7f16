#include "bgp/prefix_trie.h"

#include <gtest/gtest.h>

#include <map>

#include "util/rng.h"

namespace bgpolicy::bgp {
namespace {

TEST(PrefixTrie, InsertOverwritesAndFinds) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.insert(Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Prefix::parse("10.0.0.0/8"), 2));  // overwrite
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_NE(trie.find(Prefix::parse("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(Prefix::parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(Prefix::parse("10.0.0.0/16")), nullptr);
}

TEST(PrefixTrie, DistinguishesLengthsOnSameNetwork) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(Prefix::parse("10.0.0.0/16"), 16);
  trie.insert(Prefix::parse("10.0.0.0/24"), 24);
  EXPECT_EQ(*trie.find(Prefix::parse("10.0.0.0/8")), 8);
  EXPECT_EQ(*trie.find(Prefix::parse("10.0.0.0/16")), 16);
  EXPECT_EQ(*trie.find(Prefix::parse("10.0.0.0/24")), 24);
}

TEST(PrefixTrie, CoveringEnumeration) {
  PrefixTrie<int> trie;
  trie.insert(Prefix::parse("12.0.0.0/8"), 1);
  trie.insert(Prefix::parse("12.10.0.0/16"), 2);
  trie.insert(Prefix::parse("12.10.1.0/24"), 3);
  trie.insert(Prefix::parse("13.0.0.0/8"), 4);

  std::vector<int> seen;
  trie.for_each_covering(Prefix::parse("12.10.1.0/24"),
                         [&](const Prefix&, const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

// Property: trie agrees with a brute-force map on random workloads.
class PrefixTrieProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTrieProperty, MatchesBruteForce) {
  util::Rng rng(GetParam());
  PrefixTrie<std::uint32_t> trie;
  std::map<Prefix, std::uint32_t> reference;

  for (int i = 0; i < 300; ++i) {
    const auto network = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFF));
    const auto length = static_cast<std::uint8_t>(rng.uniform(4, 28));
    const Prefix p(network, length);
    const auto value = static_cast<std::uint32_t>(i);
    trie.insert(p, value);
    reference[p] = value;
  }
  EXPECT_EQ(trie.size(), reference.size());

  // Exact lookups agree.
  for (const auto& [prefix, value] : reference) {
    ASSERT_NE(trie.find(prefix), nullptr);
    EXPECT_EQ(*trie.find(prefix), value);
  }

  // Covering sets agree with brute force for sampled queries.
  for (int q = 0; q < 50; ++q) {
    const auto network = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFF));
    const Prefix query(network, 24);
    std::vector<std::uint32_t> expected;
    for (const auto& [prefix, value] : reference) {
      if (prefix.covers(query)) expected.push_back(value);
    }
    std::vector<std::uint32_t> actual;
    trie.for_each_covering(
        query, [&](const Prefix&, const std::uint32_t& v) { actual.push_back(v); });
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTrieProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bgpolicy::bgp
