#ifndef ADJ_API_RESULT_H_
#define ADJ_API_RESULT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/spj.h"
#include "exec/run_report.h"

namespace adj::api {

/// Outcome of one query executed through the facade. Failures are
/// folded in rather than wrapped in StatusOr: a Result always exists,
/// ok() says whether the run produced an answer, and status() carries
/// the error either way — to a serving client, a setup error (unknown
/// relation, malformed query, unknown strategy) and a per-run failure
/// (memory overflow, timeout) are both "this query did not answer".
/// The status *code* still distinguishes them: InvalidArgument /
/// NotFound for setup, ResourceExhausted (memory budget) and
/// DeadlineExceeded (time budget / request deadline) for per-run.
///
/// Cost accessors report the paper's breakdown. optimize_seconds and
/// precompute_seconds are one-time costs: on a prepared (or
/// server-cached) query they are charged to the first successful run
/// only — a 0 there means the plan was reused, not that planning was
/// free (see PreparedQuery and serve::Server).
///
/// Thread-safety: an immutable value once constructed; share freely.
class Result {
 public:
  /// An empty, failed result (what RunBatch slots hold before a worker
  /// fills them).
  Result() : Result(Status::Internal("empty result")) {}
  /// A result that failed before execution.
  explicit Result(Status error) : status_(std::move(error)) {}
  /// A completed run; per-run failures are lifted out of the report.
  explicit Result(core::SpjResult run)
      : status_(run.report.status), run_(std::move(run)) {}

  /// A planning failure with the planning time it burned attributed:
  /// status() carries the error (typically DeadlineExceeded from an
  /// exhausted planning budget) and optimize_seconds() reports the
  /// partial planning cost — a failed cold miss is not free, and the
  /// serve layer surfaces what it cost even though no run happened.
  static Result PlanningFailure(Status error, double planning_seconds) {
    Result r(std::move(error));
    r.run_.report.optimize_s = planning_seconds;
    return r;
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Number of output tuples (distinct projected tuples when the query
  /// projects). 0 on failure.
  uint64_t count() const { return ok() ? run_.projected_count : 0; }

  /// Tuples removed from base relations by selection push-down.
  uint64_t selection_filtered() const { return run_.pushed_down_filtered; }

  /// Strategy that produced the result ("ADJ", "HCubeJ", ...); empty
  /// if the run never started.
  const std::string& strategy() const { return run_.report.method; }

  /// Paper-style cost breakdown, in (modeled + measured) seconds.
  double total_seconds() const { return run_.report.TotalSeconds(); }
  double optimize_seconds() const { return run_.report.optimize_s; }
  double precompute_seconds() const { return run_.report.precompute_s; }
  double communication_seconds() const { return run_.report.comm_s; }
  double computation_seconds() const { return run_.report.comp_s; }

  /// Shared-index-layer accounting for this run: artifacts built vs.
  /// borrowed from the cache. A prepared (or server-cached) query
  /// reports index_builds() == 0 from its second run on — the
  /// observable "no per-run rebuild" guarantee.
  uint64_t index_builds() const { return run_.report.index_builds; }
  uint64_t index_reused() const { return run_.report.index_reused; }
  /// Of index_reused(), how many bindings were served by indexes
  /// mmap-loaded from a snapshot (api::Database::Open) instead of
  /// built in this process — nonzero right after a warm restart.
  uint64_t index_mmap_loaded() const { return run_.report.index_mmap; }
  /// Write provenance: bindings served by delta-patching a cached
  /// index of the pre-write relation version instead of rebuilding it,
  /// and how many delta rows those patches merged. After a
  /// single-relation write, a reprepared query's run reports
  /// index_builds() == 0 with index_patched() > 0 — writes cost
  /// delta-proportional merge work, never a rebuild (docs/UPDATES.md).
  uint64_t index_patched() const { return run_.report.index_patched; }
  uint64_t delta_rows_merged() const { return run_.report.delta_rows_merged; }

  /// Intersection-kernel accounting for this run: 2-way intersections
  /// served by a SIMD kernel (SSE4.2/AVX2) vs the scalar galloping
  /// baseline. scalar_fallbacks() > 0 on SIMD-capable hardware means
  /// dispatch was forced off (or the build lacks the intrinsics).
  uint64_t simd_intersections() const {
    return run_.report.simd_intersections;
  }
  uint64_t scalar_fallbacks() const { return run_.report.scalar_fallbacks; }

  /// Compressed-storage accounting: resident bytes of block-compressed
  /// trie levels across the distinct tries the servers joined (0 when
  /// they are all raw, as every shard trie at 2+ servers is), and how
  /// many compressed blocks the kernels decoded into scratch while
  /// joining.
  uint64_t compressed_bytes() const { return run_.report.compressed_bytes; }
  uint64_t blocks_decoded() const { return run_.report.blocks_decoded; }

  /// Full underlying execution report (shuffle volumes, per-level
  /// intermediate counts, plan description).
  const exec::RunReport& report() const { return run_.report; }

  /// Stable one-line rendering:
  ///   "count=N strategy=S total=T.TTTs (opt=.. pre=.. comm=.. comp=..)"
  /// or "error: <status>".
  std::string ToString() const;

 private:
  Status status_;
  core::SpjResult run_;
};

}  // namespace adj::api

#endif  // ADJ_API_RESULT_H_
