#include "util/flat_map.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

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

TEST(FlatMap64, AssignCompactSizesTheCopyToItsContent) {
  // A map cleared and refilled keeps the slots of its largest content; a
  // compact copy holds the same keys in the slots growth from empty gives.
  FlatMap64 long_lived;
  for (std::uint64_t k = 0; k < 5000; ++k) long_lived.insert(k, 0);
  long_lived.clear();
  for (std::uint64_t k = 0; k < 100; ++k) long_lived.insert(k * 7 + 3, k);
  FlatMap64 grown;
  for (std::uint64_t k = 0; k < 100; ++k) grown.insert(k * 7 + 3, k);

  FlatMap64 copy;
  copy.insert(99, 1);  // replaced, not merged
  copy.assign_compact(long_lived);
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(copy.keys().size(), grown.keys().size());
  EXPECT_LT(copy.bytes(), long_lived.bytes());
  EXPECT_EQ(copy.find(99), nullptr);
  for (std::uint64_t k = 0; k < 100; ++k) {
    const std::uint32_t* hit = copy.find(k * 7 + 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, k);
  }

  // A map already at its grown size is copied slot for slot.
  FlatMap64 same;
  same.assign_compact(grown);
  EXPECT_TRUE(std::equal(same.keys().begin(), same.keys().end(),
                         grown.keys().begin(), grown.keys().end()));
  FlatMap64 empty;
  same.assign_compact(empty);
  EXPECT_EQ(same.size(), 0u);
  EXPECT_EQ(same.find(3), nullptr);
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

// The Observations store Gao's edge set and degree map and the path
// index's adjacency set as slot arrays (io/artifact_codec.h), so these
// bytes depend on mix64 and the growth policy: 64 slots, doubled when a
// key would pass 3/4 load.  A change to either moves the Observations
// digest; this pins both.
TEST(FlatMap64, SlotLayoutKnownAnswer) {
  EXPECT_EQ(mix64(0), 0u);
  EXPECT_EQ(mix64(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(mix64(0x0000ffff00000001ULL), 0xf36af21eb9b62a41ULL);

  FlatMap64 map;
  for (std::uint32_t k = 1; k <= 5; ++k) map.insert(k, 10 * k);
  ASSERT_EQ(map.keys().size(), 64u);
  const std::vector<std::pair<std::size_t, std::uint64_t>> occupied = {
      {10, 2}, {20, 4}, {28, 5}, {37, 1}, {48, 3}};
  for (const auto& [slot, key] : occupied) {
    EXPECT_EQ(map.keys()[slot], key);
    EXPECT_EQ(map.values()[slot], 10 * key);
  }
  for (std::uint32_t k = 6; k <= 48; ++k) map.insert(k, k);
  EXPECT_EQ(map.keys().size(), 64u);
  map.insert(49, 49);
  EXPECT_EQ(map.keys().size(), 128u);
}

TEST(FlatMap64, AdoptTakesBackItsOwnSlots) {
  FlatMap64 map;
  for (std::uint64_t k = 0; k < 300; ++k) map.insert(k * 7 + 3, k);
  FlatMap64::Slots slots;
  slots.keys.assign(map.keys().begin(), map.keys().end());
  slots.values.assign(map.values().begin(), map.values().end());
  FlatMap64 adopted = FlatMap64::adopt(std::move(slots));
  EXPECT_EQ(adopted.size(), 300u);
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_NE(adopted.find(k * 7 + 3), nullptr);
    EXPECT_EQ(*adopted.find(k * 7 + 3), k);
  }
  EXPECT_TRUE(std::ranges::equal(adopted.keys(), map.keys()));
  EXPECT_EQ(FlatMap64::adopt({}).size(), 0u);

  FlatSet64 set;
  set.insert(FlatMap64::kEmptyKey);
  set.insert(5);
  const FlatSet64 adopted_set = FlatSet64::adopt(
      {set.keys().begin(), set.keys().end()}, set.has_empty_key());
  EXPECT_TRUE(adopted_set.contains(5));
  EXPECT_TRUE(adopted_set.contains(FlatMap64::kEmptyKey));
  EXPECT_EQ(adopted_set.size(), 2u);
}

TEST(FlatMap64, AdoptRejectsSlotsItCouldNotHold) {
  const auto empty_slots = [](std::size_t n) {
    return FlatMap64::Slots{std::vector<std::uint64_t>(n, FlatMap64::kEmptyKey),
                            std::vector<std::uint32_t>(n, 0)};
  };
  EXPECT_THROW((void)FlatMap64::adopt(empty_slots(48)), std::invalid_argument);
  FlatMap64::Slots uneven = empty_slots(64);
  uneven.values.pop_back();
  EXPECT_THROW((void)FlatMap64::adopt(std::move(uneven)),
               std::invalid_argument);
  // Past 3/4 load: 49 keys in 64 slots, each in its probe slot.
  FlatMap64 full;
  for (std::uint64_t k = 0; k < 48; ++k) full.insert(k, 0);
  FlatMap64::Slots overloaded{{full.keys().begin(), full.keys().end()},
                              {full.values().begin(), full.values().end()}};
  for (std::uint64_t& key : overloaded.keys) {
    if (key == FlatMap64::kEmptyKey) {
      key = 1000;  // not its home slot either way
      break;
    }
  }
  EXPECT_THROW((void)FlatMap64::adopt(std::move(overloaded)),
               std::invalid_argument);
  // Key 1's home is slot 37: elsewhere (behind a free slot) a probe misses
  // it, and twice it is a duplicate.
  FlatMap64::Slots misplaced = empty_slots(64);
  misplaced.keys[40] = 1;
  EXPECT_THROW((void)FlatMap64::adopt(std::move(misplaced)),
               std::invalid_argument);
  FlatMap64::Slots twice = empty_slots(64);
  twice.keys[37] = 1;
  twice.keys[38] = 1;
  EXPECT_THROW((void)FlatMap64::adopt(std::move(twice)),
               std::invalid_argument);
}

}  // namespace
}  // namespace bgpolicy::util
