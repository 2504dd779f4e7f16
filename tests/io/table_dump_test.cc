#include "io/table_dump.h"

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
  auto r1 = make_route(Prefix::parse("10.0.0.0/24"),
                       {AsNumber(701), AsNumber(3356)}, 90);
  r1.med = 5;
  r1.origin = bgp::Origin::kEgp;
  r1.add_community(bgp::Community(7018, 1000));
  r1.add_community(bgp::Community(7018, 4000));
  table.add(r1);
  table.add(make_route(Prefix::parse("10.0.0.0/24"), {AsNumber(1239)}, 100));
  table.add(make_route(Prefix::parse("192.168.0.0/16"), {AsNumber(701)}, 80));
  return table;
}

TEST(TableDump, RoundTripPreservesEverything) {
  const auto original = sample_table();
  const std::string text = dump_table(original);
  const auto parsed = parse_table(text);

  EXPECT_EQ(parsed.owner(), original.owner());
  EXPECT_EQ(parsed.prefix_count(), original.prefix_count());
  EXPECT_EQ(parsed.route_count(), original.route_count());

  const auto p = Prefix::parse("10.0.0.0/24");
  ASSERT_EQ(parsed.routes(p).size(), 2u);
  for (const bgp::RouteView route : original.routes(p)) {
    bool matched = false;
    for (const bgp::RouteView got : parsed.routes(p)) {
      if (got.learned_from() != route.learned_from()) continue;
      matched = true;
      EXPECT_EQ(got.to_route(), route.to_route());
    }
    EXPECT_TRUE(matched);
  }
}

TEST(TableDump, OutputIsSortedAndStable) {
  const std::string a = dump_table(sample_table());
  const std::string b = dump_table(sample_table());
  EXPECT_EQ(a, b);
  // Prefix order: 10.0.0.0/24 before 192.168.0.0/16.
  EXPECT_LT(a.find("10.0.0.0/24"), a.find("192.168.0.0/16"));
}

TEST(TableDump, ParseRejectsMalformedInput) {
  EXPECT_THROW(parse_table(""), std::invalid_argument);
  EXPECT_THROW(parse_table("route 10.0.0.0/24 ..."), std::invalid_argument);
  EXPECT_THROW(parse_table("bgp-table owner"), std::invalid_argument);
  EXPECT_THROW(parse_table("bgp-table owner 1\nnonsense line here x y z"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_table("bgp-table owner 1\nroute 10.0.0.0/24 from 2 lp x"),
      std::invalid_argument);
}

TEST(TableDump, EmptyTableRoundTrips) {
  const bgp::BgpTable empty{AsNumber(42)};
  const auto parsed = parse_table(dump_table(empty));
  EXPECT_EQ(parsed.owner(), AsNumber(42));
  EXPECT_EQ(parsed.prefix_count(), 0u);
}

TEST(TableDump, PipelineCollectorRoundTrips) {
  const auto& exp = bgpolicy::testing::shared_experiment();
  const std::string text = dump_table(exp.sim().sim.collector);
  const auto parsed = parse_table(text);
  EXPECT_EQ(parsed.route_count(), exp.sim().sim.collector.route_count());
  EXPECT_EQ(parsed.prefix_count(), exp.sim().sim.collector.prefix_count());
}

}  // namespace
}  // namespace bgpolicy::io
