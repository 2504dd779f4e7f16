// The repository benchmark's measuring program.  perfbench/run.py builds it
// and maps its record onto the metrics BENCHMARK.json declares; see
// perfbench/README.md for the workloads, metrics and load shape.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file FILE] [--small]
//             [--corrupt-expected] [--expect-analyses HEX]
//             [--expect-watched SCHEDULE:HEX] [--reference]
//
// Prints one JSON record as its last line of output.  --reference prints
// the seed's reference digests instead (perfbench/reference.json).
#include <sched.h>

#include <cstring>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

using namespace perfbench;

const std::vector<std::string> kWorkloads = {"pipeline", "churn",
                                             "serve_light", "serve_mixed"};

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload {pipeline|churn|serve_light|"
               "serve_mixed} --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-file FILE] [--small] [--corrupt-expected]"
               " [--expect-analyses HEX] [--expect-watched SCHEDULE:HEX]"
               " [--reference]\n";
  return 2;
}

/// Threads a workload runs beside the stage knob: the serve workloads'
/// generator plus event-loop thread.
std::size_t load_threads(const std::string& workload) {
  return workload.rfind("serve", 0) == 0 ? 2 : 0;
}

void run_traced(const Options& options, Tracer& tracer, Record& record) {
  // One traced run reports every layer: the requested workload's pass
  // first, then the others' (the serve pair shares one set-up).
  std::vector<std::string> order = {options.workload};
  for (const std::string& name : kWorkloads) {
    if (name != options.workload) order.push_back(name);
  }
  bool serve_done = false;
  for (const std::string& name : order) {
    if (name == "pipeline") pipeline_traced(options, tracer, record);
    if (name == "churn") churn_traced(options, tracer, record);
    if (name.rfind("serve", 0) == 0 && !serve_done) {
      serve_traced(options, tracer, record);
      serve_done = true;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::filesystem::path trace_file;
  bool reference = false;
  bool seed_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") options.workload = value();
      else if (flag == "--seed") {
        options.seed = std::stoull(value());
        seed_set = true;
      } else if (flag == "--seconds") options.seconds = std::stod(value());
      else if (flag == "--trace") options.trace = value() != "0";
      else if (flag == "--work-dir") options.work_dir = value();
      else if (flag == "--trace-file") trace_file = value();
      else if (flag == "--small") options.small = true;
      else if (flag == "--corrupt-expected") options.corrupt_expected = true;
      else if (flag == "--expect-analyses") options.expect_analyses = value();
      else if (flag == "--expect-watched") {
        // SCHEDULE:HEX, once per recorded flip schedule.
        const std::string entry = value();
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) {
          return usage("--expect-watched takes SCHEDULE:HEX");
        }
        options.expect_watched[std::stoull(entry.substr(0, colon))] =
            entry.substr(colon + 1);
      }
      else if (flag == "--reference") reference = true;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception& error) {
      return usage(error.what());
    }
  }
  if (!seed_set || options.work_dir.empty()) {
    return usage("--seed and --work-dir are required");
  }
  options.nproc = online_cpus();
  std::filesystem::create_directories(options.work_dir);

  if (reference) {
    std::cout << "{\"seed\":" << options.seed << ",\"analyses\":"
              << quoted(pipeline_reference(options)) << ",\"watched\":"
              << quoted(churn_cold_reference(options, options.seed)) << "}"
              << std::endl;
    return 0;
  }

  bool known = false;
  for (const std::string& name : kWorkloads) known |= name == options.workload;
  if (!known) return usage(("unknown workload " + options.workload).c_str());
  // Host guard: stage thread knobs are nproc by construction; the serve
  // workloads' generator and event loop must fit beside each other (a
  // traced run includes the serve passes).
  const std::size_t needed =
      options.trace ? load_threads("serve") : load_threads(options.workload);
  if (needed > options.nproc) {
    std::cerr << "perfbench: " << options.workload << " needs " << needed
              << " CPUs (generator + event loop), this host allows "
              << options.nproc << "\n";
    return 3;
  }

  Record record;
  try {
    if (options.trace) {
      Tracer tracer;
      run_traced(options, tracer, record);
      if (!trace_file.empty()) tracer.write_chrome_json(trace_file);
    } else if (options.workload == "pipeline") {
      pipeline_workload(options, record);
    } else if (options.workload == "churn") {
      churn_workload(options, record);
    } else {
      serve_workload(options, options.workload == "serve_mixed", record);
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << " failed: "
              << error.what() << "\n";
    return 1;
  }

  for (const std::string& failure : record.failures) {
    std::cerr << "perfbench: check failed: " << failure << "\n";
  }
  std::cout << "{\"workload\":" << quoted(options.workload)
            << ",\"seed\":" << options.seed
            << ",\"trace\":" << (options.trace ? 1 : 0)
            << ",\"scenario\":" << quoted(options.scenario().name)
            << ",\"host\":{\"nproc\":" << options.nproc
            << ",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency()
            << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
            << ",\"compiler\":" << quoted(std::string("g++ ") + __VERSION__)
            << "},\"attempted\":" << record.attempted
            << ",\"failed\":" << record.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : record.metrics) {
    std::cout << (first ? "" : ",") << quoted(name) << ":{\"value\":"
              << number(metric.value) << ",\"unit\":" << quoted(metric.unit)
              << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
