#include "bench_common.h"

#include <thread>

namespace bgpolicy::bench {

std::vector<std::size_t> scaling_thread_counts() {
  if (std::thread::hardware_concurrency() == 1) return {1};
  return {1, 2, 4, 8};
}

}  // namespace bgpolicy::bench
