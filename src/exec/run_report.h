#ifndef ADJ_EXEC_RUN_REPORT_H_
#define ADJ_EXEC_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dist/comm_stats.h"

namespace adj::storage {
struct IndexBuildStats;
}  // namespace adj::storage

namespace adj::exec {

/// Outcome of one distributed query execution, broken down the way the
/// paper's Tables II–IV report it. Times:
///  - optimize_s: plan search + sampling (wall clock),
///  - precompute_s: materializing pre-computed relations (modeled comm
///    + max-server measured compute),
///  - comm_s: modeled shuffle cost of the final query,
///  - comp_s: max-server measured join time of the final query,
///  - overhead_s: per-stage scheduling overhead (limits the speed-up
///    of trivial queries, cf. Fig. 11 Q1).
struct RunReport {
  Status status;
  std::string method;
  uint64_t output_count = 0;

  double optimize_s = 0.0;
  double precompute_s = 0.0;
  double comm_s = 0.0;
  double comp_s = 0.0;
  double overhead_s = 0.0;

  dist::CommStats comm;            // final-query shuffle volume
  dist::CommStats precompute_comm; // pre-computing shuffle volume
  uint64_t rounds = 1;             // distributed rounds (1 for one-round)

  /// Per-order-position intermediate tuple counts summed over servers
  /// (|T_i| of the paper; drives Fig. 6 / Fig. 8).
  std::vector<uint64_t> tuples_at_level;
  uint64_t extensions = 0;

  /// Kernel-layer accounting: 2-way intersections served by a SIMD
  /// kernel vs the scalar galloping baseline (see wcoj/intersect.h).
  uint64_t simd_intersections = 0;
  uint64_t scalar_fallbacks = 0;

  /// Compressed-storage accounting: resident bytes of block-compressed
  /// trie levels across the distinct tries the servers joined (0 when
  /// every joined trie is raw, as every shard trie at 2+ servers is),
  /// and compressed blocks decoded into kernel scratch while joining.
  uint64_t compressed_bytes = 0;
  uint64_t blocks_decoded = 0;

  /// Index-layer accounting for this run: artifacts (bound-atom
  /// indexes, shard fragments+tries) this run constructed vs. borrowed
  /// from the shared storage::IndexCache. A prepared query's second
  /// run reports index_builds == 0 — the observable form of "cached
  /// tries end the per-run rebuild".
  uint64_t index_builds = 0;
  uint64_t index_reused = 0;
  /// Of index_reused, how many were adopted from an mmap'ed snapshot
  /// (persist warm restore) rather than built earlier in this process.
  uint64_t index_mmap = 0;
  /// Write provenance: bound artifacts obtained by delta-patching a
  /// cached payload of the pre-write relation version (merge-on-read)
  /// instead of rebuilding, and the delta rows merged doing so. After
  /// a single-relation write, a prepared rerun reports index_builds ==
  /// 0 and index_patched > 0 — the observable form of "a point write
  /// costs delta-proportional merge work, not a rebuild".
  uint64_t index_patched = 0;
  uint64_t delta_rows_merged = 0;

  /// Sets the five index-layer fields above from a run's bind stats.
  void SetIndexStats(const storage::IndexBuildStats& stats);

  std::string plan_description;

  double TotalSeconds() const {
    return optimize_s + precompute_s + comm_s + comp_s + overhead_s;
  }

  bool ok() const { return status.ok(); }

  std::string ToString() const;
};

}  // namespace adj::exec

#endif  // ADJ_EXEC_RUN_REPORT_H_
