#include "util/flat_map.h"

#include <gtest/gtest.h>

namespace bgpolicy::util {
namespace {

TEST(FlatMap64, InsertFindGrowClear) {
  FlatMap64 map;
  EXPECT_EQ(map.find(7), nullptr);
  for (std::uint64_t k = 0; k < 500; ++k) map.insert(k * 3 + 1, k);
  EXPECT_EQ(map.size(), 500u);
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint32_t* hit = map.find(k * 3 + 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, k);
  }
  EXPECT_EQ(map.find(2), nullptr);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(1), nullptr);
  map.insert(1, 42);  // reusable after clear
  ASSERT_NE(map.find(1), nullptr);
}

TEST(FlatMap64, TryInsertKeepsTheFirstValue) {
  FlatMap64 map;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto [value, inserted] = map.try_insert(k << 32, k);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, k);
  }
  for (std::uint64_t k = 0; k < 500; ++k) {
    const auto [value, inserted] = map.try_insert(k << 32, 9999);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, k);
  }
  EXPECT_EQ(map.size(), 500u);
}

TEST(FlatSet64, TakesEveryKeyIncludingTheMapsEmptyMarker) {
  FlatSet64 set;
  EXPECT_FALSE(set.contains(FlatMap64::kEmptyKey));
  EXPECT_TRUE(set.insert(FlatMap64::kEmptyKey));
  EXPECT_FALSE(set.insert(FlatMap64::kEmptyKey));
  EXPECT_TRUE(set.contains(FlatMap64::kEmptyKey));
  for (std::uint64_t k = 0; k < 500; ++k) EXPECT_TRUE(set.insert(k << 32 | k));
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_FALSE(set.insert(k << 32 | k));
    EXPECT_TRUE(set.contains(k << 32 | k));
  }
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 501u);
}

}  // namespace
}  // namespace bgpolicy::util
