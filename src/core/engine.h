#ifndef ADJ_CORE_ENGINE_H_
#define ADJ_CORE_ENGINE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "exec/run_report.h"
#include "optimizer/adj_optimizer.h"
#include "optimizer/query_plan.h"
#include "query/attribute_order.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace adj::core {

/// ADJ's planning output plus the bookkeeping the evaluation section
/// reports (Tables II–IV's Optimization column and Fig. 8's selected
/// orders).
struct PlanResult {
  optimizer::QueryPlan plan;
  double optimize_s = 0.0;      // sampling + plan search, wall clock
  double sampling_comm_s = 0.0; // modeled reduced-database shuffle
  double beta_raw = 0.0;        // measured during sampling
  /// EXPLAIN-style rendering of the chosen plan (hypertree, traversal,
  /// per-node estimates, order, predicted costs).
  std::string explanation;
};

/// Everything a planned query needs to execute, built once by
/// Engine::PrepareExecution and reusable across any number of
/// RunPrepared calls: the bag-rewritten query, an execution catalog
/// whose base relations are *aliased* (shared, not copied) from the
/// engine's catalog and whose pre-computed bag relations are
/// materialized exactly once, and the one-time cost of doing so. The
/// aliased entries co-own their relations, so the context stays valid
/// even if the source catalog object is destroyed first.
struct ExecutionContext {
  query::Query query;            // rewritten with __bag atoms
  storage::Catalog db;           // bases aliased, bag relations owned
                                 // (index cache shared with the source)
  query::AttributeOrder order;   // the plan's attribute order
  std::string plan_description;

  /// Bound-atom indexes resolved at Prepare time and *pinned*: holding
  /// the shared handles guarantees the IndexCache cannot sweep them
  /// between runs, so RunPrepared's binds are pure cache hits and the
  /// second run onward performs zero Trie::Build / SortAndDedup calls
  /// on base relations (the shard-level shuffle artifacts are built by
  /// the first run and kept alive through these same pins).
  std::vector<std::shared_ptr<const storage::PreparedIndex>> pinned_indexes;
  uint64_t pinned_index_bytes = 0;
  /// Tuple payload of the bag relations this context materialized.
  uint64_t bag_bytes = 0;

  /// Memory this context keeps resident beyond the base catalog:
  /// pinned index artifacts plus owned bag relations. What a serving
  /// cache charges against its byte budget (serve::PreparedQueryCache).
  uint64_t ResidentBytes() const { return pinned_index_bytes + bag_bytes; }

  /// Per-run failure hit while materializing bags (memory/time limits).
  /// When set, RunPrepared reports it without executing; the costs
  /// below then cover the bags that succeeded before the failure.
  Status precompute_status;
  /// One-time bag-materialization cost — charge it to exactly one run.
  double precompute_s = 0.0;
  dist::CommStats precompute_comm;
  /// Index work done while pinning this context's bound atoms: after a
  /// write, binds against the written relation resolve by delta-
  /// patching the pre-write artifacts (storage::IndexCache merge-on-
  /// read) — the delta-proportional cost of refreshing a prepared
  /// query. One-time, so charged with the rest of the prepare cost.
  uint64_t prepare_index_patched = 0;
  uint64_t prepare_delta_rows = 0;

  /// Adds the one-time pre-computation cost to `report` (first-run
  /// attribution).
  void ChargePrecompute(exec::RunReport* report) const {
    report->precompute_s += precompute_s;
    report->precompute_comm.Add(precompute_comm);
    report->index_patched += prepare_index_patched;
    report->delta_rows_merged += prepare_delta_rows;
  }
};

/// Query-execution engine over one catalog: run a natural-join query
/// on a simulated cluster under any registered strategy, returning the
/// paper-style cost breakdown. (Clients normally go through the
/// api::Database / api::Session facade, which layers sessions,
/// prepared queries, and batch execution on top of this class.)
///
/// Typical use:
///   storage::Catalog db;
///   Status s = db.Apply(
///       storage::WriteBatch().Create("G", *dataset::MakeBuiltin("LJ")));
///   query::Query q = *query::MakeBenchmarkQuery(5);
///   Engine engine(&db);
///   exec::RunReport r = *engine.Run(q, Strategy::kCoOpt, {});
class Engine {
 public:
  explicit Engine(const storage::Catalog* db) : db_(db) {}

  /// Executes `q` under strategy `s`. The returned report's `status`
  /// carries per-run failures (memory/time), while the outer Status
  /// carries setup errors (unknown relation, malformed query).
  StatusOr<exec::RunReport> Run(const query::Query& q, Strategy s,
                                const EngineOptions& options);

  /// Same, dispatching by StrategyRegistry name — the five paper
  /// strategies under their StrategyName()s plus anything registered
  /// at runtime. NotFound for unregistered names.
  StatusOr<exec::RunReport> Run(const query::Query& q,
                                const std::string& strategy,
                                const EngineOptions& options);

  /// ADJ's planning stage only (GHD + sampling + Alg. 2) — used by
  /// the optimizer-focused benches.
  StatusOr<PlanResult> Plan(const query::Query& q,
                            const EngineOptions& options);

  /// Executes an already-computed ADJ plan: materializes the plan's
  /// pre-computed bags and runs the final one-round join, charging the
  /// pre-computation to the returned report. Leaves the report's
  /// optimize_s at zero — the caller owns charging plan time. One-shot
  /// convenience over PrepareExecution + RunPrepared; serving paths
  /// that re-execute one plan should hold the ExecutionContext instead.
  StatusOr<exec::RunReport> ExecutePlan(const query::Query& q,
                                        const optimizer::QueryPlan& plan,
                                        const EngineOptions& options);

  /// Delta-aware re-preparation input: a context previously built for
  /// the same (q, plan) plus the set of this engine's catalog names
  /// whose content changed since. PrepareExecution aliases every bag
  /// whose source atoms are all unchanged straight out of `prev`
  /// instead of re-materializing it, so refreshing a prepared query
  /// after a point write costs only the bags the write actually feeds
  /// (api::Session::Reprepare drives this from per-relation versions).
  struct PrepareReuse {
    const ExecutionContext* prev = nullptr;
    std::set<std::string> changed;  // atom relation names rewritten
  };

  /// One-time setup of plan execution: rewrites `q` with the plan's
  /// pre-computed bags, builds the execution catalog (base relations
  /// aliased from this engine's catalog at zero copy cost, bag
  /// relations materialized now), and records the materialization
  /// cost. The outer Status carries setup errors (unknown relation);
  /// bag-materialization failures land in the context's
  /// precompute_status, mirroring the per-run failure channel.
  /// `reuse`, when given, re-aliases still-valid bags from a prior
  /// context (see PrepareReuse) — their cost is not re-charged.
  StatusOr<ExecutionContext> PrepareExecution(
      const query::Query& q, const optimizer::QueryPlan& plan,
      const EngineOptions& options, const PrepareReuse* reuse = nullptr);

  /// The run step: executes the context's final one-round join
  /// (RunHCubeJ) on a fresh simulated cluster. Touches no base
  /// relations beyond the context's aliases and re-materializes
  /// nothing, so it is O(query), not O(dataset) — call it any number
  /// of times. The report excludes the one-time pre-computation cost;
  /// attribute that to one run via ExecutionContext::ChargePrecompute.
  StatusOr<exec::RunReport> RunPrepared(const ExecutionContext& ctx,
                                        const EngineOptions& options);

  /// The comm-first baseline's attribute-order selection: best
  /// sketch-scored order among *all* n! orders ("All-Selected" in
  /// Fig. 8).
  StatusOr<query::AttributeOrder> SelectCommFirstOrder(
      const query::Query& q) const;

  /// Strategy building blocks — the StrategyRegistry's default entries
  /// (kept public so runtime-registered strategies can compose them).
  StatusOr<exec::RunReport> RunCoOpt(const query::Query& q,
                                     const EngineOptions& options);
  StatusOr<exec::RunReport> RunCommFirst(const query::Query& q,
                                         const EngineOptions& options,
                                         bool cached);

  const storage::Catalog& db() const { return *db_; }

 private:
  const storage::Catalog* db_;
};

}  // namespace adj::core

#endif  // ADJ_CORE_ENGINE_H_
