#ifndef ADJ_SAMPLING_SAMPLER_H_
#define ADJ_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "query/attribute_order.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "wcoj/leapfrog.h"

namespace adj::sampling {

struct SamplerOptions {
  uint64_t num_samples = 1000;
  uint64_t seed = 42;
  /// Per-sample work cap: one pathological heavy hitter should not
  /// stall the whole estimation.
  wcoj::JoinLimits per_sample_limits;
  /// Account the distributed database-reduction shuffle (Sec. IV,
  /// "Distributed Sampling").
  bool distributed = true;
  /// Total wall-clock budget for this estimation pass. When the clock
  /// runs out mid-loop the sampler stops early and scales the mean by
  /// the samples actually drawn — a coarser estimate, not an error.
  /// SampleEstimate::samples reports the drawn count so callers can
  /// see the truncation. Infinite (default) = draw all num_samples.
  double max_total_seconds = std::numeric_limits<double>::infinity();
  /// Stop-at cardinality: the pass stops once its estimate provably
  /// reaches this value, i.e. once the draw-weighted sum of the counts
  /// found so far, scaled as |val(A)| * sum / k, gets there (a pinned
  /// run is itself cut at the count that would get there). It then
  /// returns that lower bound with SampleEstimate::bounded set.
  /// Infinite (default) = never stop early. A pass that does not reach
  /// the cap returns exactly the estimate of an uncapped pass.
  double stop_at_cardinality = std::numeric_limits<double>::infinity();
};

/// Worker threads of a sampling pass started on this thread:
/// dist::FanOutThreads() — the host's hardware threads, or 1 on a
/// dist::ThreadPool worker (a serve worker, a RunBatch query), where
/// concurrent planners already share the cores. It does not depend on
/// the simulated cluster size.
int SamplingThreads();

/// Outcome of one sampling-based estimation run (Sec. IV).
struct SampleEstimate {
  double cardinality = 0.0;  // estimated |T| = |val(A)| * mean(X)
  /// The pass reached SamplerOptions::stop_at_cardinality and stopped:
  /// `cardinality` is then a lower bound, at least the cap and at most
  /// the uncapped estimate (the counts not yet found are taken as 0).
  /// Which runs finished first depends on the workers' timing, so a
  /// bounded value can differ between two passes; an unbounded one
  /// cannot.
  bool bounded = false;
  uint64_t val_a_size = 0;   // |val(A)|
  uint64_t samples = 0;      // k
  double seconds = 0.0;      // measured sampling wall time
  /// Measured extension rate — the beta the optimizer reuses ("we set
  /// beta_i by reusing statistics gathered during sampling"). Timed in
  /// the workers' thread CPU time, so the rate stays one core's rate
  /// whatever the worker count and however busy the host.
  double beta_extensions_per_s = 0.0;
  /// Scaled per-order-position intermediate counts: estimate of |T_i|
  /// under the order used for sampling.
  std::vector<double> est_tuples_at_level;
  /// Exact distinct tuples of each atom (in atom order): the tuple
  /// count of the index this pass bound for it.
  std::vector<uint64_t> atom_tuples;
  /// Modeled shuffle of the semijoin-reduced database.
  dist::CommStats comm;
};

/// Estimates |Q(D)| by the paper's val(A)-sampling scheme: compute
/// val(A) for A = order[0] by intersecting the A-projections of every
/// relation containing A, draw k values uniformly, run Leapfrog with A
/// pinned to each value, and scale the mean count by |val(A)|.
///
/// The k values are drawn up front from options.seed, with
/// replacement. Each distinct value is run once and its count and
/// per-level stats are weighted by how often it was drawn, so the
/// estimate is exactly that of k runs. The pinned runs are spread over
/// SamplingThreads() workers, on dist::RunTasks' shared pool. Counts
/// are summed as integers, so an untruncated pass returns the same
/// estimate for any worker count; only the timings, a budget-truncated
/// sample set and a bounded (stop-at) estimate can differ.
StatusOr<SampleEstimate> SampleCardinality(const query::Query& q,
                                           const storage::Catalog& db,
                                           const query::AttributeOrder& order,
                                           const SamplerOptions& options,
                                           const dist::NetworkModel& net = {},
                                           int num_servers = 4);

/// Rows of `rel` whose first column holds a value of `keep` — the
/// size of rel.SemiJoinFilter(0, keep), counted by binary search
/// without copying a row. `rel` must be sorted (an index's permuted
/// relation) and `keep` sorted ascending.
uint64_t CountSemiJoinRows(const storage::Relation& rel,
                           std::span<const Value> keep);

/// Chernoff–Hoeffding sample count (Lemma 2): k samples guarantee
/// P(|X̄ - mu| > p*b) < delta for k = ceil(-0.5 p^-2 ln(delta/2))…
/// i.e. k = ceil(0.5 * p^-2 * ln(2/delta)).
uint64_t ChernoffSampleCount(double p, double delta);

}  // namespace adj::sampling

#endif  // ADJ_SAMPLING_SAMPLER_H_
