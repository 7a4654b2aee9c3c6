#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace adj::benchmark {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / double(v.size()));
}

void LatencyLog::Add(const std::string& group, double seconds) {
  all_.push_back(seconds);
  by_group_[group].push_back(seconds);
}

double LatencyLog::GroupGeoMean() const {
  std::vector<double> medians;
  for (const auto& [name, v] : by_group_) medians.push_back(Median(v));
  return GeoMean(medians);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void AddEndToEnd(const std::vector<double>& setup_runs, const LatencyLog& ops,
                 double wall_s, RunResult* out) {
  for (const auto& [name, v] : ops.by_group()) {
    std::fprintf(stderr, "group %-12s ops %-6zu median_s %.6f\n",
                 name.c_str(), v.size(), Median(v));
  }
  out->Add("setup_s", Median(setup_runs), "s");
  out->Add("query_geomean_s", ops.GroupGeoMean(), "s");
  out->Add("throughput_qps", wall_s > 0 ? double(ops.size()) / wall_s : 0.0,
           "1/s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void RunCounters::Add(const exec::RunReport& r) {
  ++ops;
  extensions += double(r.extensions);
  simd += double(r.simd_intersections);
  scalar += double(r.scalar_fallbacks);
  blocks_decoded += double(r.blocks_decoded);
  compressed_bytes += double(r.compressed_bytes);
  shuffle_tuples += double(r.comm.tuple_copies);
  comm_model_s += r.comm.seconds;
  index_builds += double(r.index_builds);
  index_hits += double(r.index_reused);
  index_patched += double(r.index_patched);
  delta_rows += double(r.delta_rows_merged);
  index_mmap += double(r.index_mmap);
}

void AddPerLayer(const Tracer& tracer, const LayerFacts& f, RunResult* out) {
  const RunCounters& c = f.counters;
  const double n = c.ops > 0 ? double(c.ops) : 1.0;
  auto per_op = [&](const char* name, double total, const char* unit) {
    out->Add(name, total / n, unit);
  };
  const std::map<std::string, Tracer::Totals> spans = tracer.Summarize();
  // Mean self time per call of the spans named `name` (0 if none).
  auto mean_self = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : it->second.self_s / double(it->second.calls);
  };
  const double storage_apply = mean_self("storage.apply");
  const double serve_apply = mean_self("serve.apply");

  out->Add("query.parse_s", mean_self("query.parse"), "s");
  out->Add("ghd.search_s", mean_self("ghd.search"), "s");
  out->Add("sampling.sample_s", mean_self("sampling.sample"), "s");
  out->Add("optimizer.plan_s", mean_self("optimizer.plan"), "s");
  out->Add("optimizer.bags_precomputed", f.bags_precomputed, "count/plan");
  out->Add("optimizer.plan_flips", f.plan_flips, "count");
  out->Add("exec.prepare_s", mean_self("exec.prepare"), "s");
  out->Add("exec.bag_bytes", f.bag_bytes, "B/plan");
  out->Add("exec.run_s", mean_self("exec.run"), "s");
  per_op("wcoj.extensions", c.extensions, "count/op");
  per_op("wcoj.simd_intersections", c.simd, "count/op");
  per_op("wcoj.scalar_fallbacks", c.scalar, "count/op");
  per_op("storage.blocks_decoded", c.blocks_decoded, "count/op");
  per_op("storage.compressed_bytes", c.compressed_bytes, "B/op");
  per_op("dist.shuffle_tuples", c.shuffle_tuples, "count/op");
  out->Add("dist.comm_model_s", c.comm_model_s / n, "s/op", /*modeled=*/true);
  per_op("storage.index_builds", c.index_builds, "count/op");
  per_op("storage.index_hits", c.index_hits, "count/op");
  per_op("storage.index_patched", c.index_patched, "count/op");
  per_op("storage.delta_rows_merged", c.delta_rows, "count/op");
  per_op("storage.index_mmap_hits", c.index_mmap, "count/op");
  out->Add("storage.index_resident_bytes", f.index_resident_bytes, "B");
  out->Add("storage.index_evictions", f.index_evictions, "count");
  out->Add("storage.apply_s", storage_apply, "s");
  out->Add("serve.apply_s", serve_apply, "s");
  out->Add("serve.apply_wait_s",
           serve_apply > 0 ? std::max(0.0, serve_apply - storage_apply) : 0.0,
           "s");
  out->Add("serve.write_p50_s", f.write_p50_s, "s");
  out->Add("serve.write_p90_s", f.write_p90_s, "s");
  out->Add("serve.plan_hit_ratio", f.plan_hit_ratio, "ratio");
  out->Add("serve.plan_builds", f.plan_builds, "count");
  out->Add("serve.plan_waits", f.plan_waits, "count");
  out->Add("serve.reprepared", f.reprepared, "count");
  out->Add("serve.invalidations", f.invalidations, "count");
  out->Add("serve.expired", f.expired, "count");
  out->Add("serve.rejected", f.rejected, "count");
  out->Add("api.reprepare_s", mean_self("api.reprepare"), "s");
  out->Add("persist.save_s", mean_self("persist.save"), "s");
  out->Add("persist.open_s", mean_self("persist.open"), "s");
  out->Add("persist.snapshot_bytes", f.snapshot_bytes, "B");
  out->Add("persist.stored_bytes_per_user_byte", f.stored_per_user, "ratio");
  out->Add("bench.latency_p50_s", f.latency_p50_s, "s");
  out->Add("bench.latency_p90_s", f.latency_p90_s, "s");
  out->Add("bench.latency_p99_s", f.latency_p99_s, "s");
  out->Add("bench.generator_lag_p99_s", f.generator_lag_p99_s, "s");
  out->Add("bench.failed_ratio", f.failed_ratio, "ratio");
  out->Add("bench.trace_overhead", f.trace_overhead, "ratio");
}

namespace {

double TraceOverhead(const LatencyLog& traced, const LatencyLog& untraced) {
  std::vector<double> ratios;
  for (const auto& [name, t] : traced.by_group()) {
    auto it = untraced.by_group().find(name);
    if (it == untraced.by_group().end()) continue;
    const double base = Median(it->second);
    if (base > 0) ratios.push_back(Median(t) / base);
  }
  return ratios.empty() ? 0.0 : GeoMean(ratios) - 1.0;
}

}  // namespace

void FillRunFacts(const LatencyLog& traced, const LatencyLog& untraced,
                  LayerFacts* facts) {
  std::vector<double> all = traced.all();
  all.insert(all.end(), untraced.all().begin(), untraced.all().end());
  facts->latency_p50_s = Quantile(all, 0.50);
  // A tail percentile is reported only with ten samples beyond it.
  facts->latency_p90_s = all.size() >= 100 ? Quantile(all, 0.90) : 0.0;
  facts->latency_p99_s = all.size() >= 1000 ? Quantile(all, 0.99) : 0.0;
  facts->trace_overhead = TraceOverhead(traced, untraced);
}

}  // namespace adj::benchmark
