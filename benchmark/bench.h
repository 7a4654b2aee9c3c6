// Shared pieces of the end-to-end benchmark: run configuration, the
// metric set a run reports, sample statistics, and the span recorder
// the traced run uses. Everything here is timed from outside the
// engine — the benchmark calls the public API and never reads the
// engine's own (partly modeled) second counters.
#ifndef ADJ_BENCHMARK_BENCH_H_
#define ADJ_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exec/run_report.h"

namespace adj::benchmark {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // spans and temporary files (a snapshot) go here
};

/// One named metric as printed: value, unit, and whether the number is
/// measured wall clock / counted, or comes from the engine's network
/// cost model.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool modeled = false;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks, for stderr
  std::vector<Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
  void Add(const std::string& name, double value, const std::string& unit,
           bool modeled = false) {
    metrics.push_back(Metric{name, value, unit, modeled});
  }
};

// ---------------------------------------------------------------------
// Sample statistics.
// ---------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double GeoMean(const std::vector<double>& v);

/// Latencies of one run, grouped by query: each group repeats one
/// query on one input, so its median is not a mix of different costs.
class LatencyLog {
 public:
  void Add(const std::string& group, double seconds);
  size_t size() const { return all_.size(); }
  const std::vector<double>& all() const { return all_; }
  /// Geometric mean over groups of each group's median latency.
  double GroupGeoMean() const;
  const std::map<std::string, std::vector<double>>& by_group() const {
    return by_group_;
  }

 private:
  std::vector<double> all_;
  std::map<std::string, std::vector<double>> by_group_;
};

/// Peak resident set size of this process, MB (getrusage).
double PeakRssMb();

/// The end-to-end metrics every workload reports, in the order and
/// units BENCHMARK.json lists them. `setup_runs` are the wall times of
/// the repeated set-ups (their median is reported); `wall_s` is the
/// measured window.
void AddEndToEnd(const std::vector<double>& setup_runs, const LatencyLog& ops,
                 double wall_s, RunResult* out);

// ---------------------------------------------------------------------
// Tracing: spans recorded around calls into each layer, kept in memory
// and written out at exit as {op, name, start, end, parent}. Safe to
// record from several threads (the serve-rw reader and writer).
// ---------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    int64_t op = 0;      // the benchmark operation the span belongs to
    std::string name;    // layer.call, e.g. "optimizer.plan"
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int64_t parent = -1;  // index of the enclosing span, -1 for a root
  };

  Tracer() : t0_(Clock::now()) {}

  /// Opens a span and returns its index.
  int64_t Begin(int64_t op, const std::string& name, int64_t parent);
  void End(int64_t span);
  /// Records an already-timed interval.
  int64_t Record(int64_t op, const std::string& name, Clock::time_point start,
                 Clock::time_point end, int64_t parent);

  /// Per span name: calls and summed self time (a span's duration
  /// minus the durations of its direct children).
  struct Totals {
    uint64_t calls = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Totals> Summarize() const;

  bool WriteJson(const std::string& path) const;

 private:
  double Since(Clock::time_point t) const { return SecondsBetween(t0_, t); }

  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, int64_t op, const std::string& name,
        int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(op, name, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// Engine counters summed over the traced operations, read from each
/// operation's RunReport (counts only — never its second fields except
/// the modeled comm, which is reported tagged as modeled).
struct RunCounters {
  uint64_t ops = 0;
  double extensions = 0, simd = 0, scalar = 0, blocks_decoded = 0,
         compressed_bytes = 0, shuffle_tuples = 0, comm_model_s = 0,
         index_builds = 0, index_hits = 0, index_patched = 0,
         delta_rows = 0, index_mmap = 0;
  void Add(const exec::RunReport& report);
};

/// Layer-level facts a workload gathered in its traced run, beside the
/// spans; the zero defaults are what a workload that never enters a
/// layer reports.
struct LayerFacts {
  RunCounters counters;
  double bags_precomputed = 0, plan_flips = 0, bag_bytes = 0;
  double index_resident_bytes = 0, index_evictions = 0;
  double write_p50_s = 0, write_p90_s = 0;
  double plan_hit_ratio = 0, plan_builds = 0, plan_waits = 0,
         reprepared = 0, invalidations = 0, expired = 0, rejected = 0;
  double snapshot_bytes = 0, stored_per_user = 0;
  double latency_p50_s = 0, latency_p90_s = 0, latency_p99_s = 0;
  double generator_lag_p99_s = 0, failed_ratio = 0;
  double trace_overhead = 0;
};

/// Emits every per-layer metric, in BENCHMARK.json's order, from the
/// tracer's spans plus `facts`.
void AddPerLayer(const Tracer& tracer, const LayerFacts& facts,
                 RunResult* out);

/// Fills the percentiles over all operations of a traced run, and its
/// tracing overhead: the geometric mean over groups of
/// median(traced) / median(untraced), minus 1.
void FillRunFacts(const LatencyLog& traced, const LatencyLog& untraced,
                  LayerFacts* facts);

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

RunResult RunAdhoc(const RunConfig& config);
RunResult RunPrepared(const RunConfig& config);
RunResult RunServeRw(const RunConfig& config);
RunResult RunRestart(const RunConfig& config);

}  // namespace adj::benchmark

#endif  // ADJ_BENCHMARK_BENCH_H_
