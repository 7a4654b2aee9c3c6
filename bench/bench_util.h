#ifndef ADJ_BENCH_BENCH_UTIL_H_
#define ADJ_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "api/api.h"
#include "benchmark/bench.h"
#include "common/logging.h"
#include "core/engine.h"
#include "dataset/builtin.h"
#include "query/queries.h"
#include "storage/catalog.h"

namespace adj::bench {

/// All benches run the paper's workloads at a laptop scale factor.
/// Override with ADJ_BENCH_SCALE (multiplies every dataset's edge
/// budget) and ADJ_BENCH_SERVERS.
inline double ScaleFromEnv(double def = 0.2) {
  const char* s = std::getenv("ADJ_BENCH_SCALE");
  return s != nullptr ? std::atof(s) : def;
}

inline int ServersFromEnv(int def = 4) {
  const char* s = std::getenv("ADJ_BENCH_SERVERS");
  return s != nullptr ? std::atoi(s) : def;
}

/// Median of a timing gate's repetitions (the upper middle value for
/// an even count): one slow or fast outlier cannot move it.
inline double Median(std::vector<double> v) {
  ADJ_CHECK(!v.empty());
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Loads (and caches) a builtin dataset at the bench scale, as an
/// api::Database (relation "G").
class DatasetCache {
 public:
  explicit DatasetCache(double scale) : scale_(scale) {}

  const api::Database& GetDb(const std::string& name) {
    auto it = dbs_.find(name);
    if (it != dbs_.end()) return it->second;
    StatusOr<api::Database> db = api::Database::OpenBuiltin(name, scale_);
    ADJ_CHECK(db.ok()) << db.status();
    return dbs_.emplace(name, std::move(db.value())).first->second;
  }

  /// Raw catalog view, for benches that drive core::Engine directly.
  const storage::Catalog& Get(const std::string& name) {
    return GetDb(name).catalog();
  }

  double scale() const { return scale_; }

 private:
  double scale_;
  std::map<std::string, api::Database> dbs_;
};

/// Engine options used across benches: failure emulation thresholds
/// stand in for the paper's memory-overflow / 12-hour-timeout events,
/// scaled to this machine.
inline core::EngineOptions BenchOptions(int servers) {
  core::EngineOptions opts;
  opts.cluster.num_servers = servers;
  opts.cluster.memory_per_server_bytes = 512ull << 20;
  opts.num_samples = 400;
  // The paper's 12-hour timeout scales to ~40s at our ~1/1100 data
  // scale. Leapfrog streams results, so it is bounded by time; the
  // materializing baselines (SparkSQL, BigJoin) are bounded by rows —
  // the paper's memory-overflow failure mode.
  opts.limits.max_extensions = 4'000'000'000ull;
  opts.limits.max_seconds = 30.0;
  opts.limits.max_materialized_rows = 10'000'000;
  return opts;
}

inline const std::vector<std::string>& AllDatasets() {
  static const std::vector<std::string>* kNames =
      new std::vector<std::string>{"WB", "AS", "WT", "LJ", "EN", "OK"};
  return *kNames;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// "1.23e+04" style compact cell.
inline std::string Num(double v) {
  char buf[32];
  if (v >= 1e5 || (v > 0 && v < 1e-2)) {
    std::snprintf(buf, sizeof(buf), "%.2e", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

/// One Release gate's record: the end-to-end benchmark's RunResult,
/// with `attempted`/`failed` counting the checks run and failed.
struct GateResult : benchmark::RunResult {
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) ++failed;
    benchmark::RunResult::Check(ok, what);
  }
};

/// Ends a gate: prints every metric as `name value unit` and a
/// `FAIL: <what>` line per failed check, writes BENCH_<bench>.json in
/// the schema adj_bench prints (but keeping the metrics when a check
/// failed, so a red run still shows its numbers), and returns the exit
/// code.
inline int FinishGates(const std::string& bench,
                       const benchmark::RunResult& result) {
  std::ofstream json("BENCH_" + bench + ".json");
  json.precision(17);
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const benchmark::Metric& m = result.metrics[i];
    std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json << (i > 0 ? ", " : "") << '"' << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}\n";
  std::fflush(stdout);  // the metrics print before the FAIL lines
  for (const std::string& what : result.errors) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  return result.correct ? 0 : 1;
}

}  // namespace adj::bench

#endif  // ADJ_BENCH_BENCH_UTIL_H_
