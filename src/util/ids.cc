#include "util/ids.h"

#include <ostream>

namespace bgpolicy::util {

// Built by appending: GCC 12 at -O3 raises a -Werror=restrict false
// positive on `"r" + std::to_string(...)`.
std::string to_string(AsNumber as) {
  std::string out = "AS";
  out += std::to_string(as.value());
  return out;
}

std::string to_string(RouterId router) {
  std::string out = "r";
  out += std::to_string(router.value());
  return out;
}

std::ostream& operator<<(std::ostream& os, AsNumber as) {
  return os << to_string(as);
}

std::ostream& operator<<(std::ostream& os, RouterId router) {
  return os << to_string(router);
}

}  // namespace bgpolicy::util
