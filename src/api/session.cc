#include "api/session.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "core/engine.h"
#include "core/spj.h"
#include "dist/thread_pool.h"
#include "wcoj/intersect.h"

namespace adj::api {

Result Session::Run(const std::string& query_text,
                    const std::string& strategy) const {
  StatusOr<core::SpjQuery> spj = core::ParseSpj(query_text);
  if (!spj.ok()) return Result(spj.status());
  StatusOr<core::SpjResult> run = core::RunSpj(*db_, *spj, strategy, options_);
  if (!run.ok()) return Result(run.status());
  return Result(std::move(run.value()));
}

Result Session::Run(const query::Query& q,
                    const std::string& strategy) const {
  core::Engine engine(db_.get());
  StatusOr<exec::RunReport> report = engine.Run(q, strategy, options_);
  if (!report.ok()) return Result(report.status());
  core::SpjResult run;
  run.report = std::move(report.value());
  run.projected_count = run.report.output_count;
  return Result(std::move(run));
}

StatusOr<PreparedQuery> Session::Prepare(const std::string& query_text) const {
  StatusOr<core::SpjQuery> spj = core::ParseSpj(query_text);
  if (!spj.ok()) return spj.status();
  if (spj->HasProperProjection()) {
    return Status::InvalidArgument(
        "prepared queries do not support proper projections yet; "
        "run the projecting query through Session::Run");
  }

  // The plan's freshness certificate: every relation the query reads,
  // at the version it has right now. A later write bumps the touched
  // names' versions, which is how caches (and Reprepare) see exactly
  // which prepared queries it staled.
  std::map<std::string, uint64_t> deps;
  for (int i = 0; i < spj->join.num_atoms(); ++i) {
    const std::string& name = spj->join.atom(i).relation;
    deps[name] = db_->VersionOf(name);
  }

  // Selections are pushed down once, here, into a catalog the prepared
  // query owns — every later Run() starts from the reduced database.
  std::shared_ptr<const storage::Catalog> db = db_;
  query::Query join = spj->join;
  uint64_t filtered = 0;
  if (!spj->selections.empty()) {
    StatusOr<core::PushedDown> pushed = core::PushDownSelections(*db_, *spj);
    if (!pushed.ok()) return pushed.status();
    filtered = pushed->filtered;
    join = std::move(pushed->query);
    db = std::make_shared<const storage::Catalog>(std::move(pushed->catalog));
  }

  core::Engine engine(db.get());
  StatusOr<core::PlanResult> planned = engine.Plan(join, options_);
  if (!planned.ok()) return planned.status();

  // Build the execution context now — base relations aliased into the
  // execution catalog, pre-computed bags materialized once — so every
  // Run() is just the final join round. A bag-materialization failure
  // (memory/time limits) is a per-run failure and stays folded into
  // the runs' Results, matching direct execution.
  StatusOr<core::ExecutionContext> ctx =
      engine.PrepareExecution(join, planned->plan, options_);
  if (!ctx.ok()) return ctx.status();
  // Surface the pinned-index footprint in the EXPLAIN rendering: the
  // artifacts below stay resident in the shared index cache, so every
  // run binds without building (the per-server shard artifacts are
  // built once, by the first run).
  size_t mmap_loaded = 0;
  size_t compressed = 0;
  uint64_t compressed_bytes = 0;
  std::set<const storage::Trie*> counted_tries;
  for (const auto& index : ctx->pinned_indexes) {
    if (index == nullptr || index->trie == nullptr) continue;
    if (index->trie->mmap_backed()) ++mmap_loaded;
    if (index->trie->any_compressed() &&
        counted_tries.insert(index->trie.get()).second) {
      ++compressed;
      compressed_bytes += index->trie->CompressedBytes();
    }
  }
  planned->explanation +=
      "pinned indexes: " + std::to_string(ctx->pinned_indexes.size()) +
      " (" + std::to_string(mmap_loaded) + " mmap-loaded from snapshot, " +
      std::to_string(ctx->ResidentBytes()) +
      " bytes resident; every run binds prebuilt, shard indexes build "
      "once on the first run)\n";
  if (compressed > 0) {
    planned->explanation +=
        "compressed tries: " + std::to_string(compressed) + " (" +
        std::to_string(compressed_bytes) +
        " bytes encoded; kernels intersect blocks directly via the "
        "skip table)\n";
  }
  planned->explanation +=
      std::string("intersection kernel: ") +
      wcoj::intersect::KernelName(wcoj::intersect::ActiveKernel()) +
      " (runtime CPU dispatch; join loops run allocation-free out of a "
      "per-executor arena)\n";
  return PreparedQuery(
      std::move(spj.value()), std::move(join), filtered, std::move(deps),
      std::move(planned.value()),
      std::make_shared<const core::ExecutionContext>(std::move(ctx.value())),
      options_);
}

bool Session::IsFresh(const PreparedQuery& prepared) const {
  for (const auto& [name, version] : prepared.dep_versions_) {
    if (db_->VersionOf(name) != version) return false;
  }
  return true;
}

StatusOr<PreparedQuery> Session::Reprepare(const PreparedQuery& stale) const {
  if (!stale.prepared_) {
    return Status::InvalidArgument(
        "cannot reprepare a default-constructed PreparedQuery");
  }
  // Which of the plan's dependencies moved since it was prepared?
  std::set<std::string> changed;
  std::map<std::string, uint64_t> deps;
  for (const auto& [name, version] : stale.dep_versions_) {
    const uint64_t now = db_->VersionOf(name);
    deps[name] = now;
    if (now != version) changed.insert(name);
  }
  if (changed.empty()) return stale;  // still fresh — share everything

  // Re-push selections, filtering only the rows written since the
  // stale versions; filtered copies no written row reaches are aliased
  // from the stale context so their cached indexes keep binding by
  // identity.
  const core::SpjQuery& spj = stale.spj_;
  std::shared_ptr<const storage::Catalog> db = db_;
  query::Query join = spj.join;
  uint64_t filtered = 0;
  if (!spj.selections.empty()) {
    core::PushDownReuse push_reuse;
    push_reuse.prev = stale.ctx_ != nullptr ? &stale.ctx_->db : nullptr;
    push_reuse.changed = &changed;
    push_reuse.versions = &stale.dep_versions_;
    StatusOr<core::PushedDown> pushed =
        core::PushDownSelections(*db_, spj, &push_reuse);
    if (!pushed.ok()) return pushed.status();
    filtered = pushed->filtered;
    join = std::move(pushed->query);
    db = std::make_shared<const storage::Catalog>(std::move(pushed->catalog));
  }

  // Rebuild the execution context under the *stored* plan — no GHD
  // search, no sampling. Bags fed only by unchanged relations are
  // aliased from the stale context; the changed names (mapped through
  // the push-down rename, which the rewritten join preserves
  // atom-by-atom) force re-materialization of exactly the bags the
  // write feeds.
  core::Engine::PrepareReuse reuse;
  reuse.prev = stale.ctx_.get();
  for (int i = 0; i < spj.join.num_atoms(); ++i) {
    if (changed.count(spj.join.atom(i).relation) > 0) {
      reuse.changed.insert(join.atom(i).relation);
    }
  }

  core::Engine engine(db.get());
  core::PlanResult planned = stale.planned_;  // the plan is reused verbatim
  planned.optimize_s = 0.0;
  StatusOr<core::ExecutionContext> ctx =
      engine.PrepareExecution(join, planned.plan, stale.options_, &reuse);
  if (!ctx.ok()) return ctx.status();
  planned.explanation +=
      "reprepared: " + std::to_string(changed.size()) +
      " changed relation(s); plan reused, unchanged bags aliased, "
      "changed-relation indexes refresh by delta patching\n";
  return PreparedQuery(
      spj, std::move(join), filtered, std::move(deps), std::move(planned),
      std::make_shared<const core::ExecutionContext>(std::move(ctx.value())),
      stale.options_);
}

std::vector<Result> Session::RunBatch(const std::vector<BatchQuery>& queries,
                                      int threads) const {
  std::vector<Result> results(queries.size());
  if (queries.empty()) return results;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = int(std::min<size_t>(queries.size(), hw > 0 ? hw : 4));
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    tasks.push_back([this, &queries, &results, i] {
      const BatchQuery& bq = queries[i];
      results[i] =
          Run(bq.text, bq.strategy.empty() ? default_strategy_ : bq.strategy);
    });
  }
  dist::RunTasks(threads, tasks);
  return results;
}

}  // namespace adj::api
