#ifndef ADJ_API_PREPARED_QUERY_H_
#define ADJ_API_PREPARED_QUERY_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "api/result.h"
#include "core/engine.h"
#include "core/options.h"
#include "query/query.h"

namespace adj::api {

/// A query planned once and executable many times — the serving
/// pattern the facade exists for. Session::Prepare runs ADJ's full
/// planning stage (GHD search, sampling, Alg. 2), pushes equality
/// selections down into a private reduced catalog, and builds the
/// plan's ExecutionContext up front: base relations aliased (shared,
/// never copied) into the execution catalog and the plan's
/// pre-computed bags materialized exactly once. Run() then only
/// executes the final one-round join — no re-planning, no
/// base-relation copies, no bag re-materialization — so repeated
/// execution is O(query), not O(dataset). The one-time planning and
/// pre-computation costs are charged to the first successful Run()
/// (optimize_s / precompute_s) so totals stay honest; every later run
/// — including runs of copies, which share the charge — reports both
/// as 0.
///
/// Proper projections are not supported (Prepare fails); prepared
/// queries always execute under ADJ co-optimization, which is the only
/// strategy with a plan to cache.
///
/// Not thread-safe — use one PreparedQuery per client thread (they are
/// copyable, and copies share the reduced catalog).
class PreparedQuery {
 public:
  /// An unprepared query; Run() fails. Exists so StatusOr/containers
  /// can hold PreparedQuery — real instances come from
  /// Session::Prepare.
  PreparedQuery() = default;

  /// The (selection-rewritten) join body the cached plan executes.
  const query::Query& query() const { return query_; }

  /// EXPLAIN-style rendering of the cached plan (hypertree, traversal,
  /// per-node estimates, predicted costs).
  const std::string& explanation() const { return planned_.explanation; }

  /// One-time planning cost paid at Prepare time (plan search +
  /// sampling, wall clock). 0 after Session::Reprepare — a refresh
  /// reuses the stored plan instead of searching again.
  double planning_seconds() const { return planned_.optimize_s; }

  /// The catalog relations this plan reads, each with the
  /// relation_version() it was prepared against — the plan's freshness
  /// certificate. The plan remains valid exactly as long as every
  /// listed name still has its listed version; a write to any other
  /// relation cannot stale it. serve::PreparedQueryCache validates
  /// entries against this map, and Session::Reprepare uses the
  /// mismatched names to refresh only the delta-proportional part of
  /// the context.
  const std::map<std::string, uint64_t>& dependency_versions() const {
    return dep_versions_;
  }

  /// Memory this prepared query keeps resident between runs as
  /// measured at Prepare time: the bound-atom index artifacts its
  /// ExecutionContext pins plus its materialized bag relations. What
  /// serve::PreparedQueryCache charges against its byte budget.
  /// Copies share the context, so they report (and cost) the same
  /// bytes once. NOT included: the per-server shard artifacts the
  /// first Run() builds into the shared storage::IndexCache — those
  /// are accounted (and LRU-evictable when idle) under the index
  /// cache's own budget (serve::ServerOptions::index_cache_budget_bytes).
  uint64_t resident_bytes() const {
    return ctx_ != nullptr ? ctx_->ResidentBytes() : 0;
  }

  /// Executes the cached plan against the session's catalog, under the
  /// engine options snapshotted at Prepare time.
  Result Run();

  /// Same, but with `limits` overriding the snapshot's
  /// wcoj::JoinLimits for this run only — how a serving layer maps a
  /// per-request deadline or memory budget onto a shared cached plan
  /// (serve::Server sets limits.max_seconds to the request's remaining
  /// deadline). The plan itself is unaffected; limit trips surface as
  /// DeadlineExceeded / ResourceExhausted in the Result.
  Result Run(const wcoj::JoinLimits& limits);

 private:
  Result RunWithOptions(const core::EngineOptions& options);

  friend class Session;

  PreparedQuery(core::SpjQuery spj, query::Query query,
                uint64_t selection_filtered,
                std::map<std::string, uint64_t> dep_versions,
                core::PlanResult planned,
                std::shared_ptr<const core::ExecutionContext> ctx,
                core::EngineOptions options)
      : spj_(std::move(spj)),
        query_(std::move(query)),
        selection_filtered_(selection_filtered),
        dep_versions_(std::move(dep_versions)),
        planned_(std::move(planned)),
        ctx_(std::move(ctx)),
        options_(std::move(options)),
        prepared_(true) {}

  // The original parsed SPJ query (pre-push-down) — what Reprepare
  // re-pushes selections from after a write.
  core::SpjQuery spj_;
  query::Query query_;
  uint64_t selection_filtered_ = 0;
  // Source-catalog relation name -> relation_version() at Prepare.
  std::map<std::string, uint64_t> dep_versions_;
  core::PlanResult planned_;
  // Built once at Prepare time and shared across copies: everything a
  // run needs — the execution catalog's aliased entries co-own their
  // relations, so no separate catalog handle is kept. Read-only, so
  // concurrent runs of copies are safe.
  std::shared_ptr<const core::ExecutionContext> ctx_;
  core::EngineOptions options_;  // snapshot of the session's options
  bool prepared_ = false;
  // Shared across copies so the one-time planning + pre-computation
  // cost is charged to exactly one run no matter which copy executes
  // first.
  std::shared_ptr<std::atomic<bool>> planning_charged_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace adj::api

#endif  // ADJ_API_PREPARED_QUERY_H_
