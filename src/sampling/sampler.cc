#include "sampling/sampler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

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

uint64_t CountSemiJoinRows(const storage::Relation& rel,
                           std::span<const Value> keep) {
  const Value* rows = rel.raw().data();
  const uint64_t k = uint64_t(rel.arity());
  const uint64_t n = rel.size();
  // First row in [lo, n) whose leading value is not below `v`
  // (`strictly` = strictly above it): the column is sorted.
  auto bound = [&](uint64_t lo, Value v, bool strictly) {
    uint64_t hi = n;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      const Value x = rows[mid * k];
      if (x < v || (strictly && x == v)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  uint64_t count = 0, lo = 0;
  for (const Value v : keep) {
    lo = bound(lo, v, false);
    const uint64_t hi = bound(lo, v, true);
    count += hi - lo;
    lo = hi;
  }
  return count;
}

namespace {

/// The smallest draw-weighted count sum whose estimate
/// |val(A)| * (sum / k) — the expression the pass returns — reaches
/// `cap`. Max (never stop) for an infinite or NaN cap, and for a cap
/// beyond the sums a double counts exactly.
uint64_t StopSum(double cap, uint64_t val_a, uint64_t k) {
  constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();
  if (cap <= 0) return 0;
  const double x = cap / double(val_a) * double(k);
  if (!(x < 0x1p52)) return kNever;
  auto estimate = [&](uint64_t sum) {
    return double(val_a) * (double(sum) / double(k));
  };
  uint64_t sum = static_cast<uint64_t>(std::ceil(x));
  while (sum > 0 && estimate(sum - 1) >= cap) --sum;
  while (estimate(sum) < cap) ++sum;
  return sum;
}

}  // namespace

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
    est.atom_tuples.push_back(p.trie().NumTuples());
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

  // Draw k values with replacement, then run each distinct value's
  // pinned Leapfrog once on the workers, weighting its count and
  // per-level stats by how often it was drawn: the sums are exactly
  // those of k runs, without repeating any. Each worker reuses one
  // bound Leapfrog for every value it claims from a shared counter,
  // in first-drawn order. The time budget is checked before each
  // claimed value: an exhausted budget truncates the pass and the mean
  // is taken over the draws of the values actually run — the first
  // value always runs, so a truncated estimate is still an estimate,
  // never a division by zero.
  Rng rng(options.seed);
  const uint64_t k = std::max<uint64_t>(1, options.num_samples);
  std::vector<Value> values;    // distinct, in first-drawn order
  std::vector<uint64_t> draws;  // per distinct value
  {
    std::unordered_map<Value, size_t> slot;
    for (uint64_t i = 0; i < k; ++i) {
      const Value v = val_a[rng.Uniform(val_a.size())];
      const auto [it, fresh] = slot.emplace(v, values.size());
      if (fresh) {
        values.push_back(v);
        draws.push_back(0);
      }
      ++draws[it->second];
    }
  }
  // Once the draw-weighted count sum reaches `stop_sum` the estimate
  // has reached the cap: no worker claims another value, and a run is
  // cut at the count that gets the sum there. `found` is the running
  // sum; a worker reads it before a run, so its cut is never early.
  const uint64_t stop_sum =
      StopSum(options.stop_at_cardinality, est.val_a_size, k);
  if (stop_sum == 0) {
    est.bounded = true;
    est.seconds = timer.Seconds();
    return est;
  }
  const bool capped = stop_sum != std::numeric_limits<uint64_t>::max();
  std::atomic<uint64_t> found{0};
  std::atomic<bool> reached{false};
  const uint64_t n = values.size();
  const int threads = dist::FanOutThreads(n);
  // Every worker's Leapfrog and stats are set up here, on the calling
  // thread: the workers' runs then allocate nothing, and a bind error
  // surfaces before any run.
  std::vector<wcoj::Leapfrog> leapfrogs;
  std::vector<wcoj::JoinStats> worker_stats(static_cast<size_t>(threads));
  std::vector<wcoj::JoinStats> run_stats(static_cast<size_t>(threads));
  for (size_t w = 0; w < worker_stats.size(); ++w) {
    StatusOr<wcoj::Leapfrog> leapfrog =
        wcoj::Leapfrog::Bind(inputs, order, options.per_sample_limits);
    if (!leapfrog.ok()) return leapfrog.status();
    leapfrogs.push_back(std::move(*leapfrog));
    worker_stats[w].tuples_at_level.assign(order.size(), 0);
    run_stats[w].tuples_at_level.assign(order.size(), 0);
  }
  std::vector<uint64_t> counts(n, 0);
  std::vector<uint8_t> ran(n, 0);
  std::vector<double> cpu_seconds(static_cast<size_t>(threads), 0.0);
  std::atomic<uint64_t> next{0};
  std::vector<std::function<void()>> tasks;
  for (int w = 0; w < threads; ++w) {
    tasks.push_back([&, w] {
      const ThreadCpuTimer cpu;
      wcoj::JoinStats& run = run_stats[size_t(w)];
      wcoj::JoinStats& acc = worker_stats[size_t(w)];
      for (uint64_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        if (reached.load()) break;
        if (i > 0 && timer.Seconds() >= options.max_total_seconds) break;
        ran[i] = 1;
        std::fill(run.tuples_at_level.begin(), run.tuples_at_level.end(), 0);
        run.extensions = 0;
        uint64_t stop_at = std::numeric_limits<uint64_t>::max();
        if (capped) {
          const uint64_t have = found.load();
          const uint64_t need = have < stop_sum ? stop_sum - have : 1;
          stop_at = (need + draws[i] - 1) / draws[i];
        }
        StatusOr<uint64_t> count = leapfrogs[size_t(w)].Run(
            /*emit=*/nullptr, &run, values[i], stop_at);
        // A capped sample counts as drawn with a zero count (its
        // partial work still lands in the per-level stats) — a
        // documented bias source; with default (unlimited) limits this
        // never fires.
        if (count.ok()) counts[i] = *count;
        if (capped && count.ok() &&
            found.fetch_add(draws[i] * *count) + draws[i] * *count >=
                stop_sum) {
          reached.store(true);
        }
        for (size_t l = 0; l < run.tuples_at_level.size(); ++l) {
          acc.tuples_at_level[l] += draws[i] * run.tuples_at_level[l];
        }
        acc.extensions += run.extensions;  // run, not weighted: for beta
      }
      cpu_seconds[size_t(w)] = cpu.Seconds();
    });
  }
  dist::RunTasks(threads, tasks);

  // Integer sums in index and worker order: the same totals whichever
  // worker ran which value.
  wcoj::JoinStats stats;
  for (const wcoj::JoinStats& s : worker_stats) stats.Merge(s);
  uint64_t sum = 0, drawn = 0;
  std::vector<Value> sampled;
  sampled.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (ran[i] == 0) continue;
    sum += draws[i] * counts[i];
    drawn += draws[i];
    sampled.push_back(values[i]);
  }
  est.samples = drawn;
  // A reached cap takes the counts not found as 0: a lower bound over
  // all k draws. Otherwise no run was cut, and the mean is over the
  // draws of the values run.
  est.bounded = capped && sum >= stop_sum;
  est.cardinality = double(est.val_a_size) *
                    (double(sum) / double(est.bounded ? k : drawn));

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
    uint64_t copies = 0, bytes = 0;
    for (const wcoj::SharedPreparedRelation& p : prepared) {
      if (!p.attrs.empty() && p.attrs[0] == attr_a) {
        // Projection shuffle.
        copies += p.trie().values(0).size();
        bytes += p.trie().values(0).size() * sizeof(Value);
        // Reduced relation shuffle: the rows that keep a sampled
        // value, counted in place.
        const uint64_t reduced = CountSemiJoinRows(p.rel(), sampled);
        copies += reduced;
        bytes += reduced * uint64_t(p.rel().arity()) * sizeof(Value);
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
