#ifndef ADJ_EXEC_HCUBEJ_H_
#define ADJ_EXEC_HCUBEJ_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "dist/hcube.h"
#include "exec/run_report.h"
#include "query/attribute_order.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "wcoj/leapfrog.h"

namespace adj::exec {

/// A query atom bound to its base relation and re-columned for a
/// specific attribute order: columns ascend by order rank and the rows
/// are sorted/deduplicated — ready for HCube and trie building. The
/// relation and trie are borrowed from the catalog's IndexCache
/// (shared, never deep-copied), so every bind of one (relation, column
/// order) returns the pointer-identical index, whatever its labels.
using BoundAtom = wcoj::SharedPreparedRelation;

/// Binds every atom of `q` against `db` and permutes it for `order`,
/// resolving each bind through db.index_cache(). `stats`, when given,
/// records per-atom cache builds vs. hits.
StatusOr<std::vector<BoundAtom>> BindAtomsForOrder(
    const query::Query& q, const storage::Catalog& db,
    const query::AttributeOrder& order,
    storage::IndexBuildStats* stats = nullptr);

struct HCubeJParams {
  /// Share vector; leave empty to have the optimal shares computed
  /// from the bound relation sizes (Eq. 3).
  dist::ShareVector share;
  dist::HCubeVariant variant = dist::HCubeVariant::kPull;
  wcoj::JoinLimits limits;
  /// When true, runs the HCubeJ+Cache baseline: each server memoizes
  /// intersections in whatever memory HCube storage left free.
  bool use_cache = false;
  /// When true, result tuples are gathered into `HCubeJOutput::results`
  /// (used by pre-computation); otherwise results are only counted.
  bool collect_output = false;
  /// Host threads running the simulated servers' joins. 0 (default)
  /// chooses dist::FanOutThreads(): the host's cores, or 1 on a pool
  /// thread. With 2+ threads every server's root values are cut into
  /// weight-balanced morsels (8 per thread over all servers) that any
  /// thread may take, heaviest first; HCubeJ+Cache servers stay whole.
  /// 1 runs each server whole and inline, in server order. A server's
  /// time is the thread CPU time of its morsels summed, so comp_s does
  /// not depend on this setting, and its limits keep their per-server
  /// meaning.
  int worker_threads = 0;
};

/// Solves Eq. (3) for `q` over its bound atoms (`bound[i]` binds
/// atom i) on a cluster configured as `config`: the share vector
/// RunHCubeJ uses when HCubeJParams::share is empty.
StatusOr<dist::ShareVector> OptimalShares(const query::Query& q,
                                          const std::vector<BoundAtom>& bound,
                                          const dist::ClusterConfig& config);

struct HCubeJOutput {
  RunReport report;
  /// Result tuples (schema = attributes in `order` sequence); filled
  /// only when params.collect_output.
  storage::Relation results;
  dist::ShareVector share_used;
};

/// One-round multi-way join (HCubeJ, Sec. II-A): HCube-shuffle all
/// atoms, then run Leapfrog on every server. The paper's
/// communication-first baseline and the execution backend of ADJ's
/// final query.
StatusOr<HCubeJOutput> RunHCubeJ(const query::Query& q,
                                 const storage::Catalog& db,
                                 const query::AttributeOrder& order,
                                 const HCubeJParams& params,
                                 dist::Cluster* cluster);

}  // namespace adj::exec

#endif  // ADJ_EXEC_HCUBEJ_H_
