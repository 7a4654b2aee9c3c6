// adj_bench — one workload of the end-to-end benchmark per process.
//
//   adj_bench --workload adhoc|prepared|serve-rw|restart --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Prints `name value unit measured|modeled` per metric on stderr and,
// as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, and the spans go to DIR/<workload>-<seed>.spans.json.
// Exits 1 when an output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace adj::benchmark {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: adj_bench --workload adhoc|prepared|serve-rw|restart "
               "--seed N --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

void PrintJson(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 != 1 || config.out_dir.empty() ||
      !(config.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);

  RunResult result;
  if (config.workload == "adhoc") {
    result = RunAdhoc(config);
  } else if (config.workload == "prepared") {
    result = RunPrepared(config);
  } else if (config.workload == "serve-rw") {
    result = RunServeRw(config);
  } else if (config.workload == "restart") {
    result = RunRestart(config);
  } else {
    return Usage();
  }

  for (const Metric& m : result.metrics) {
    result.Check(std::isfinite(m.value), m.name + " is not finite");
    std::fprintf(stderr, "%-16s %-36s %-18.9g %-10s %s\n",
                 config.workload.c_str(), m.name.c_str(), m.value,
                 m.unit.c_str(), m.modeled ? "modeled" : "measured");
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", config.workload.c_str(),
                 e.c_str());
  }
  if (!result.correct) {
    result.metrics.clear();  // a failed run reports no numbers
  }
  PrintJson(result);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace adj::benchmark

int main(int argc, char** argv) { return adj::benchmark::Main(argc, argv); }
