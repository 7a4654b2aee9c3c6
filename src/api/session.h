#ifndef ADJ_API_SESSION_H_
#define ADJ_API_SESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/prepared_query.h"
#include "api/result.h"
#include "core/options.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace adj::api {

/// One query of a Session::RunBatch call.
struct BatchQuery {
  std::string text;      // SPJ query text, as for Session::Run
  std::string strategy;  // empty → the session's default strategy
};

/// A client's handle for issuing queries against a Database: carries
/// the per-client default EngineOptions (cluster size, sampling
/// budget, limits) and default strategy. Cheap to create — open one
/// per client.
///
/// Thread-safety: the const methods (Run, Prepare, RunBatch) only
/// read the shared catalog (and keep it alive), so any number of
/// sessions — and concurrent calls on *one* session — execute safely
/// in parallel; serve::Server relies on this, Prepare()ing on several
/// workers at once. The mutators (options(), set_default_strategy)
/// are for setup: configure before issuing queries, not while a
/// RunBatch or another thread's call is in flight.
///
/// Error folding: Run and RunBatch never fail out-of-band — every
/// outcome, setup error or per-run failure, arrives folded into an
/// api::Result (see Result). Only Prepare returns StatusOr, because
/// there is no PreparedQuery to hand back when planning fails.
class Session {
 public:
  explicit Session(std::shared_ptr<const storage::Catalog> db)
      : db_(std::move(db)) {}

  /// The session's default engine options, applied to every query it
  /// issues (including prepared ones, snapshotted at Prepare time).
  core::EngineOptions& options() { return options_; }
  const core::EngineOptions& options() const { return options_; }

  /// Default strategy for calls that don't name one — any
  /// core::StrategyRegistry name ("ADJ" initially).
  void set_default_strategy(std::string name) {
    default_strategy_ = std::move(name);
  }
  const std::string& default_strategy() const { return default_strategy_; }

  /// Parses and executes SPJ text, e.g. "G(a,b) G(b,c) | b=3 | a".
  /// Queries with a proper projection must materialize output and
  /// always execute via the one-round HCubeJ collector regardless of
  /// `strategy` (Result::strategy() reports the executor actually
  /// used); see core::RunSpj.
  Result Run(const std::string& query_text) const {
    return Run(query_text, default_strategy_);
  }
  Result Run(const std::string& query_text,
             const std::string& strategy) const;

  /// Executes an already-parsed natural-join query.
  Result Run(const query::Query& q, const std::string& strategy) const;

  /// Plans `query_text` once (ADJ planning + selection push-down) for
  /// repeated execution — see PreparedQuery.
  StatusOr<PreparedQuery> Prepare(const std::string& query_text) const;

  /// True iff every relation `prepared` reads still has the version it
  /// was prepared against — i.e. no write since Prepare can affect its
  /// answer. Writes to relations the query does not read never stale
  /// it.
  bool IsFresh(const PreparedQuery& prepared) const;

  /// Refreshes a prepared query staled by writes, at delta cost
  /// instead of plan cost: the stored plan is reused verbatim (no GHD
  /// search, no sampling — planning_seconds() is 0 on the result), the
  /// selection push-down re-scans only the written relations, bags fed
  /// exclusively by unchanged relations are aliased from the stale
  /// context, and index binds against the written relations resolve by
  /// delta-patching their cached artifacts (Result::index_patched)
  /// rather than rebuilding. If `prepared` is already fresh, returns a
  /// copy of it unchanged. The refreshed query re-pins its indexes at
  /// the current relation versions, so its dependency_versions() map
  /// is current.
  StatusOr<PreparedQuery> Reprepare(const PreparedQuery& prepared) const;

  /// Executes `queries` concurrently through dist::RunTasks (the
  /// calling thread and the process-wide pool) against the shared
  /// read-only catalog; the returned vector aligns index-wise with
  /// `queries` (failures folded into each Result). At most `threads`
  /// run at once, and never more than the pool's workers plus the
  /// caller; threads <= 0 picks min(#queries, hardware threads).
  std::vector<Result> RunBatch(const std::vector<BatchQuery>& queries,
                               int threads = 0) const;

 private:
  std::shared_ptr<const storage::Catalog> db_;
  core::EngineOptions options_;
  std::string default_strategy_ = "ADJ";
};

}  // namespace adj::api

#endif  // ADJ_API_SESSION_H_
