#include "bgp/aspath.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>

namespace bgpolicy::bgp {

AsPath AsPath::parse(std::string_view text) {
  std::vector<AsNumber> hops;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && text[pos] == ' ') ++pos;
    if (pos >= text.size()) break;
    std::uint32_t value = 0;
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr == begin) {
      throw std::invalid_argument("AsPath::parse: malformed path \"" +
                                  std::string(text) + "\"");
    }
    hops.emplace_back(value);
    pos += static_cast<std::size_t>(ptr - begin);
  }
  return AsPath(std::move(hops));
}

bool AsPath::contains(AsNumber as) const {
  return std::find(hops_.begin(), hops_.end(), as) != hops_.end();
}

AsPath AsPath::prepend(AsNumber as, std::size_t times) const {
  std::vector<AsNumber> hops;
  hops.reserve(hops_.size() + times);
  hops.insert(hops.end(), times, as);
  hops.insert(hops.end(), hops_.begin(), hops_.end());
  return AsPath(std::move(hops));
}

std::string AsPath::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(hops_[i].value());
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const AsPath& path) {
  return os << path.to_string();
}

}  // namespace bgpolicy::bgp
