#include "bench_common.h"

#include <chrono>
#include <memory>
#include <thread>

namespace bgpolicy::bench {

const core::Experiment& experiment() {
  static const std::unique_ptr<core::Experiment> instance = [] {
    std::cout << "[bench] simulating the internet2002 scenario "
                 "(topology + policies + propagation + inference)...\n";
    const auto start = std::chrono::steady_clock::now();
    core::RunOptions options;
    options.until = core::Stage::kInfer;
    auto exp = std::make_unique<core::Experiment>(
        core::Scenario::internet2002(), options);
    exp->run();
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    const core::GroundTruth& truth = exp->truth();
    std::cout << "[bench] " << truth.topo.graph.as_count() << " ASs, "
              << truth.originations.size() << " prefixes, "
              << exp->sim().sim.collector.route_count()
              << " collector routes; inference accuracy vs truth "
              << util::fmt(100.0 * exp->inference().inferred.accuracy_against(
                                       truth.topo.graph),
                           2)
              << "%; built in " << elapsed.count() << " ms\n\n";
    return exp;
  }();
  return *instance;
}

void banner(const std::string& experiment, const std::string& paper_claim) {
  std::cout << "================================================================\n"
            << experiment << "\n"
            << "Paper: " << paper_claim << "\n"
            << "================================================================\n";
}

std::vector<std::size_t> scaling_thread_counts() {
  if (std::thread::hardware_concurrency() == 1) return {1};
  return {1, 2, 4, 8};
}

}  // namespace bgpolicy::bench
