#include "io/table_dump.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace bgpolicy::io {

namespace {

using bgp::Origin;

std::string origin_token(Origin origin) {
  switch (origin) {
    case Origin::kIgp: return "igp";
    case Origin::kEgp: return "egp";
    case Origin::kIncomplete: return "incomplete";
  }
  return "igp";
}

Origin parse_origin(std::string_view token) {
  if (token == "igp") return Origin::kIgp;
  if (token == "egp") return Origin::kEgp;
  if (token == "incomplete") return Origin::kIncomplete;
  throw std::invalid_argument("table dump: bad origin token");
}

std::vector<std::string> split(std::string_view line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) out.emplace_back(line.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

std::uint32_t parse_u32(const std::string& token) {
  std::uint32_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    throw std::invalid_argument("table dump: bad number \"" + token + "\"");
  }
  return value;
}

}  // namespace

void dump_table(const bgp::BgpTable& table, std::ostream& out) {
  out << "bgp-table owner " << table.owner().value() << " prefixes "
      << table.prefix_count() << " routes " << table.route_count() << "\n";

  std::vector<bgp::Prefix> prefixes(table.prefixes().begin(),
                                    table.prefixes().end());
  std::sort(prefixes.begin(), prefixes.end());
  for (const auto& prefix : prefixes) {
    const bgp::TableEntry entry = table.routes(prefix);
    std::vector<bgp::RouteView> routes(entry.begin(), entry.end());
    std::sort(routes.begin(), routes.end(),
              [](const bgp::RouteView& a, const bgp::RouteView& b) {
                return a.learned_from() < b.learned_from();
              });
    for (const bgp::RouteView route : routes) {
      out << "route " << prefix << " from " << route.learned_from().value()
          << " lp " << route.local_pref() << " med " << route.med()
          << " origin " << origin_token(route.origin()) << " path";
      for (const auto hop : route.path()) out << ' ' << hop.value();
      if (!route.communities().empty()) {
        out << " community";
        for (const auto c : route.communities()) {
          out << ' ' << c.asn() << ':' << c.value();
        }
      }
      out << "\n";
    }
  }
}

std::string dump_table(const bgp::BgpTable& table) {
  std::ostringstream out;
  dump_table(table, out);
  return out.str();
}

bgp::BgpTable parse_table(std::string_view text) {
  std::optional<bgp::BgpTable> table;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const auto tokens = split(line);
    if (tokens.empty()) {
      if (pos > text.size()) break;
      continue;
    }

    if (tokens[0] == "bgp-table") {
      if (tokens.size() < 3 || tokens[1] != "owner") {
        throw std::invalid_argument("table dump: bad header");
      }
      table.emplace(util::AsNumber(parse_u32(tokens[2])));
    } else if (tokens[0] == "route") {
      if (!table) throw std::invalid_argument("table dump: route before header");
      if (tokens.size() < 10) {
        throw std::invalid_argument("table dump: short route line");
      }
      bgp::Route route;
      route.prefix = bgp::Prefix::parse(tokens[1]);
      std::size_t i = 2;
      const auto expect = [&](const char* keyword) {
        if (i >= tokens.size() || tokens[i] != keyword) {
          throw std::invalid_argument("table dump: expected keyword");
        }
        ++i;
      };
      expect("from");
      route.learned_from = util::AsNumber(parse_u32(tokens[i++]));
      expect("lp");
      route.local_pref = parse_u32(tokens[i++]);
      expect("med");
      route.med = parse_u32(tokens[i++]);
      expect("origin");
      route.origin = parse_origin(tokens[i++]);
      expect("path");
      std::vector<util::AsNumber> hops;
      while (i < tokens.size() && tokens[i] != "community") {
        hops.emplace_back(parse_u32(tokens[i++]));
      }
      route.path = bgp::AsPath(std::move(hops));
      if (i < tokens.size() && tokens[i] == "community") {
        ++i;
        while (i < tokens.size()) {
          route.add_community(bgp::Community::parse(tokens[i++]));
        }
      }
      route.router_id = route.learned_from.value();
      table->add(std::move(route));
    } else {
      throw std::invalid_argument("table dump: unknown line kind");
    }
    if (pos > text.size()) break;
  }
  if (!table) throw std::invalid_argument("table dump: missing header");
  return std::move(*table);
}

}  // namespace bgpolicy::io
