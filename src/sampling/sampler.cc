#include "sampling/sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "common/rng.h"
#include "common/timer.h"
#include "dist/thread_pool.h"

namespace adj::sampling {

int SamplingThreads() { return dist::FanOutThreads(); }

uint64_t ChernoffSampleCount(double p, double delta) {
  if (p <= 0 || delta <= 0 || delta >= 1) return 1;
  return static_cast<uint64_t>(
      std::ceil(0.5 / (p * p) * std::log(2.0 / delta)));
}

StatusOr<SampleEstimate> SampleCardinality(const query::Query& q,
                                           const storage::Catalog& db,
                                           const query::AttributeOrder& order,
                                           const SamplerOptions& options,
                                           const dist::NetworkModel& net,
                                           int num_servers) {
  if (order.empty()) return Status::InvalidArgument("empty order");
  WallTimer timer;
  SampleEstimate est;

  // Resolve tries for the sampling order through the shared index
  // layer: sampling warms exactly the bound indexes the later join
  // will borrow, and repeated sampling passes rebuild nothing.
  const std::vector<int> rank = query::RankOf(order, q.num_attrs());
  std::vector<wcoj::SharedPreparedRelation> prepared;
  std::vector<wcoj::JoinInput> inputs;
  prepared.reserve(q.num_atoms());
  for (const query::Atom& atom : q.atoms()) {
    StatusOr<std::shared_ptr<const storage::Relation>> base =
        db.GetShared(atom.relation);
    if (!base.ok()) return base.status();
    StatusOr<wcoj::SharedPreparedRelation> prep = wcoj::PrepareRelationShared(
        std::move(*base), atom.schema.attrs(), rank, db.index_cache());
    if (!prep.ok()) return prep.status();
    prepared.push_back(std::move(prep.value()));
  }
  for (const wcoj::SharedPreparedRelation& p : prepared) {
    inputs.push_back(wcoj::JoinInput{&p.trie(), p.attrs});
  }

  // val(A): intersect the A-projections of the relations containing A.
  const AttrId attr_a = order[0];
  std::vector<Value> val_a;
  bool first = true;
  for (const wcoj::SharedPreparedRelation& p : prepared) {
    if (p.attrs.empty() || p.attrs[0] != attr_a) continue;
    // A is the first trie level (it ranks first), so level-0 values
    // are exactly the distinct A-projection.
    std::span<const Value> level0 = p.trie().values(0);
    if (first) {
      val_a.assign(level0.begin(), level0.end());
      first = false;
    } else {
      std::vector<Value> merged;
      merged.reserve(std::min(val_a.size(), level0.size()));
      std::set_intersection(val_a.begin(), val_a.end(), level0.begin(),
                            level0.end(), std::back_inserter(merged));
      val_a = std::move(merged);
    }
  }
  if (first) {
    return Status::InvalidArgument(
        "first order attribute appears in no atom");
  }
  est.val_a_size = val_a.size();
  if (val_a.empty()) {
    est.cardinality = 0;
    est.seconds = timer.Seconds();
    return est;
  }

  // Draw k values with replacement, then run the pinned Leapfrogs on
  // the workers. Each worker reuses one bound Leapfrog for every sample
  // index it claims from a shared counter. The time budget is checked
  // before each claimed sample: an exhausted budget truncates the pass
  // and the mean is taken over the samples actually run — sample 0
  // always runs, so a truncated estimate is still an estimate, never a
  // division by zero.
  Rng rng(options.seed);
  const uint64_t k = std::max<uint64_t>(1, options.num_samples);
  std::vector<Value> values(k);
  for (Value& v : values) v = val_a[rng.Uniform(val_a.size())];
  const int threads = dist::FanOutThreads(k);
  // Every worker's Leapfrog and stats are set up here, on the calling
  // thread: the workers' runs then allocate nothing, so their threads
  // never grow heaps of their own, and a bind error surfaces before any
  // run.
  std::vector<wcoj::Leapfrog> leapfrogs;
  std::vector<wcoj::JoinStats> worker_stats(static_cast<size_t>(threads));
  for (wcoj::JoinStats& s : worker_stats) {
    StatusOr<wcoj::Leapfrog> leapfrog =
        wcoj::Leapfrog::Bind(inputs, order, options.per_sample_limits);
    if (!leapfrog.ok()) return leapfrog.status();
    leapfrogs.push_back(std::move(*leapfrog));
    s.tuples_at_level.assign(order.size(), 0);
  }
  std::vector<uint64_t> counts(k, 0);
  std::vector<uint8_t> ran(k, 0);
  std::vector<double> cpu_seconds(static_cast<size_t>(threads), 0.0);
  std::atomic<uint64_t> next{0};
  std::vector<std::function<void()>> tasks;
  for (int w = 0; w < threads; ++w) {
    tasks.push_back([&, w] {
      const ThreadCpuTimer cpu;
      for (uint64_t i = next.fetch_add(1); i < k; i = next.fetch_add(1)) {
        if (i > 0 && timer.Seconds() >= options.max_total_seconds) break;
        ran[i] = 1;
        StatusOr<uint64_t> count = leapfrogs[size_t(w)].Run(
            /*emit=*/nullptr, &worker_stats[size_t(w)], values[i]);
        // A capped sample counts as drawn with a zero count (its
        // partial work still lands in the per-level stats) — a
        // documented bias source; with default (unlimited) limits this
        // never fires.
        if (count.ok()) counts[i] = *count;
      }
      cpu_seconds[size_t(w)] = cpu.Seconds();
    });
  }
  dist::RunTasks(threads, tasks);

  // Integer sums in index and worker order: the same totals whichever
  // worker ran which sample.
  wcoj::JoinStats stats;
  for (const wcoj::JoinStats& s : worker_stats) stats.Merge(s);
  uint64_t sum = 0, drawn = 0;
  std::vector<Value> sampled;
  sampled.reserve(k);
  for (uint64_t i = 0; i < k; ++i) {
    if (ran[i] == 0) continue;
    sum += counts[i];
    ++drawn;
    sampled.push_back(values[i]);
  }
  est.samples = drawn;
  est.cardinality = double(est.val_a_size) * (double(sum) / double(drawn));

  // Scaled per-level counts: X̄ per level times |val(A)|.
  est.est_tuples_at_level.resize(stats.tuples_at_level.size());
  for (size_t i = 0; i < stats.tuples_at_level.size(); ++i) {
    est.est_tuples_at_level[i] =
        double(est.val_a_size) * double(stats.tuples_at_level[i]) /
        double(drawn);
  }

  est.seconds = timer.Seconds();
  // Extensions per CPU second summed over the workers: one core's rate,
  // undiluted when workers outnumber free cores and wait descheduled.
  double cpu_total = 0.0;
  for (const double s : cpu_seconds) cpu_total += s;
  est.beta_extensions_per_s =
      cpu_total > 0 ? double(stats.extensions) / cpu_total : 0.0;

  if (options.distributed) {
    // Sec. IV: before sampling, the database is reduced — shuffle the
    // A-projections, intersect, semijoin-filter with the sampled
    // values, then shuffle only the reduced relations.
    std::sort(sampled.begin(), sampled.end());
    sampled.erase(std::unique(sampled.begin(), sampled.end()),
                  sampled.end());
    uint64_t copies = 0, bytes = 0;
    for (const wcoj::SharedPreparedRelation& p : prepared) {
      if (!p.attrs.empty() && p.attrs[0] == attr_a) {
        // Projection shuffle.
        copies += p.trie().values(0).size();
        bytes += p.trie().values(0).size() * sizeof(Value);
        // Reduced relation shuffle.
        storage::Relation reduced = p.rel().SemiJoinFilter(0, sampled);
        copies += reduced.size();
        bytes += reduced.SizeBytes();
      } else {
        copies += p.rel().size();
        bytes += p.rel().SizeBytes();
      }
    }
    est.comm.tuple_copies = copies;
    est.comm.bytes = bytes;
    est.comm.blocks = uint64_t(num_servers) * q.num_atoms();
    est.comm.seconds =
        dist::PullSeconds(net, est.comm.blocks, bytes, num_servers);
  }
  return est;
}

}  // namespace adj::sampling
