// Coverage for the plan-once / execute-many split: Engine's
// PrepareExecution builds an ExecutionContext whose base relations are
// aliased (never copied) from the engine's catalog and whose bags are
// materialized exactly once; RunPrepared re-executes it at O(query)
// cost. These tests pin the zero-copy contract down to pointer
// equality, which the api-level tests cannot reach.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/engine.h"
#include "core/spj.h"
#include "dataset/generators.h"
#include "exec/hcubej.h"
#include "optimizer/share_optimizer.h"
#include "query/query.h"
#include "wcoj/naive_join.h"

namespace adj::core {
namespace {

constexpr char kTriangle[] = "G(a,b) G(b,c) G(a,c)";

storage::Catalog SmallCatalog(uint64_t seed, uint64_t nodes = 30,
                              uint64_t edges = 150) {
  Rng rng(seed);
  storage::Catalog db;
  EXPECT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(nodes, edges, rng))).ok());
  return db;
}

EngineOptions FastOptions() {
  EngineOptions options;
  options.cluster.num_servers = 4;
  options.num_samples = 64;
  return options;
}

TEST(PrepareExecutionTest, AliasesBaseRelationsByPointer) {
  storage::Catalog db = SmallCatalog(1);
  Engine engine(&db);
  query::Query q = *query::Query::Parse(kTriangle);
  StatusOr<PlanResult> planned = engine.Plan(q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();

  // With pre-computation disabled every atom references the base
  // relation, so the execution catalog must hold the engine catalog's
  // physical relation — same pointer, not a copy.
  optimizer::QueryPlan plan = planned->plan;
  std::fill(plan.precompute.begin(), plan.precompute.end(), false);
  StatusOr<ExecutionContext> ctx = engine.PrepareExecution(q, plan,
                                                           FastOptions());
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  ASSERT_TRUE(ctx->db.Contains("G"));
  EXPECT_EQ(*ctx->db.Get("G"), *db.Get("G"));
  EXPECT_TRUE(ctx->precompute_status.ok());
  EXPECT_EQ(ctx->precompute_s, 0.0);
  EXPECT_EQ(ctx->precompute_comm.bytes, 0u);
}

TEST(PrepareExecutionTest, RepeatedRunsMatchOracleWithoutSetupCost) {
  storage::Catalog db = SmallCatalog(2);
  Engine engine(&db);
  query::Query q = *query::Query::Parse(kTriangle);
  StatusOr<storage::Relation> oracle = wcoj::NaiveJoin(q, db);
  ASSERT_TRUE(oracle.ok());

  StatusOr<PlanResult> planned = engine.Plan(q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();
  StatusOr<ExecutionContext> ctx =
      engine.PrepareExecution(q, planned->plan, FastOptions());
  ASSERT_TRUE(ctx.ok()) << ctx.status();

  for (int run = 0; run < 3; ++run) {
    StatusOr<exec::RunReport> report = engine.RunPrepared(*ctx, FastOptions());
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->ok()) << report->status;
    EXPECT_EQ(report->output_count, oracle->size()) << "run " << run;
    // The run step pays only the final join round: planning and bag
    // pre-computation cost belong to the context, not the run.
    EXPECT_EQ(report->optimize_s, 0.0);
    EXPECT_EQ(report->precompute_s, 0.0);
    EXPECT_EQ(report->precompute_comm.bytes, 0u);
  }
}

TEST(PrepareExecutionTest, ForcedBagIsMaterializedOnceAndChargedOnce) {
  storage::Catalog db = SmallCatalog(3, 40, 250);
  Engine engine(&db);
  query::Query q = *query::Query::Parse("G(a,b) G(b,c) G(c,d)");
  StatusOr<storage::Relation> oracle = wcoj::NaiveJoin(q, db);
  ASSERT_TRUE(oracle.ok());

  StatusOr<PlanResult> planned = engine.Plan(q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();
  // Force the first bag to be pre-computed regardless of what the
  // adaptive optimizer chose, so the materialization path is always on.
  optimizer::QueryPlan plan = planned->plan;
  ASSERT_FALSE(plan.precompute.empty());
  plan.precompute[0] = true;

  StatusOr<ExecutionContext> ctx = engine.PrepareExecution(q, plan,
                                                           FastOptions());
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  EXPECT_TRUE(ctx->db.Contains("__bag0"));
  // Materialization cost is real (it includes the per-stage overhead)
  // and recorded on the context for first-run attribution.
  EXPECT_GT(ctx->precompute_s, 0.0);

  StatusOr<exec::RunReport> rerun = engine.RunPrepared(*ctx, FastOptions());
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_TRUE(rerun->ok()) << rerun->status;
  EXPECT_EQ(rerun->output_count, oracle->size());
  EXPECT_EQ(rerun->precompute_s, 0.0);
  EXPECT_EQ(rerun->precompute_comm.bytes, 0u);

  // The one-shot ExecutePlan wrapper charges the same one-time cost.
  StatusOr<exec::RunReport> oneshot = engine.ExecutePlan(q, plan,
                                                         FastOptions());
  ASSERT_TRUE(oneshot.ok()) << oneshot.status();
  ASSERT_TRUE(oneshot->ok()) << oneshot->status;
  EXPECT_EQ(oneshot->output_count, oracle->size());
  EXPECT_GT(oneshot->precompute_s, 0.0);
}

/// Eq. (3) solved afresh over the relations `ctx` pins (one pinned
/// index per atom of the rewritten query, in atom order).
dist::ShareVector FreshShares(const ExecutionContext& ctx,
                              const EngineOptions& options) {
  std::vector<optimizer::ShareInput> inputs;
  for (int i = 0; i < ctx.query.num_atoms(); ++i) {
    const storage::Relation& rel = *ctx.pinned_indexes[size_t(i)]->rel;
    inputs.push_back({ctx.query.atom(i).schema.Mask(), rel.size(),
                      rel.SizeBytes()});
  }
  StatusOr<dist::ShareVector> share = optimizer::OptimizeShares(
      inputs, ctx.query.num_attrs(), options.cluster);
  EXPECT_TRUE(share.ok()) << share.status();
  return share.ok() ? *share : dist::ShareVector{};
}

TEST(PrepareExecutionTest, SharesSolvedOncePerContext) {
  storage::Catalog db = SmallCatalog(5, 60, 300);
  Engine engine(&db);
  const EngineOptions options = FastOptions();
  query::Query q = *query::Query::Parse(kTriangle);
  StatusOr<PlanResult> planned = engine.Plan(q, options);
  ASSERT_TRUE(planned.ok()) << planned.status();
  StatusOr<ExecutionContext> ctx =
      engine.PrepareExecution(q, planned->plan, options);
  ASSERT_TRUE(ctx.ok()) << ctx.status();
  ASSERT_EQ(ctx->pinned_indexes.size(), size_t(ctx->query.num_atoms()));
  EXPECT_EQ(ctx->share.p, FreshShares(*ctx, options).p);

  // Runs shuffle under the context's vector rather than re-solving:
  // swap in another valid vector and the run's traffic follows it.
  dist::ShareVector skewed;
  skewed.p.assign(size_t(q.num_attrs()), 1);
  skewed.p[0] = 4;
  ASSERT_NE(ctx->share.p, skewed.p);
  ctx->share = skewed;
  StatusOr<exec::RunReport> run = engine.RunPrepared(*ctx, options);
  ASSERT_TRUE(run.ok() && run->ok());
  dist::Cluster cluster(options.cluster);
  exec::HCubeJParams params;
  params.share = skewed;
  StatusOr<exec::HCubeJOutput> direct =
      exec::RunHCubeJ(ctx->query, ctx->db, ctx->order, params, &cluster);
  ASSERT_TRUE(direct.ok() && direct->report.ok());
  EXPECT_EQ(direct->share_used.p, skewed.p);
  EXPECT_EQ(run->comm.tuple_copies, direct->report.comm.tuple_copies);
  EXPECT_EQ(run->output_count, direct->report.output_count);

  // A write that grows |G| re-solves: the new context (what Reprepare
  // builds) holds the vector for the new sizes.
  Rng rng(6);
  const storage::Relation extra = dataset::ErdosRenyi(200, 2000, rng);
  storage::WriteBatch grow;
  for (uint64_t r = 0; r < extra.size(); ++r) {
    const std::span<const Value> row = extra.Row(r);
    grow.Insert("G", std::vector<Value>(row.begin(), row.end()));
  }
  ASSERT_TRUE(db.Apply(grow).ok());
  StatusOr<ExecutionContext> after =
      engine.PrepareExecution(q, planned->plan, options);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->pinned_indexes[0]->rel->size(),
            ctx->pinned_indexes[0]->rel->size());
  EXPECT_EQ(after->share.p, FreshShares(*after, options).p);
}

TEST(PrepareExecutionTest, ContextOutlivesSourceCatalog) {
  // Aliased entries co-own their relations: run a context after the
  // engine's catalog object is destroyed.
  EngineOptions options = FastOptions();
  query::Query q = *query::Query::Parse(kTriangle);
  uint64_t oracle_count = 0;
  StatusOr<ExecutionContext> ctx = [&]() -> StatusOr<ExecutionContext> {
    storage::Catalog db = SmallCatalog(4);
    oracle_count = wcoj::NaiveJoin(q, db)->size();
    Engine engine(&db);
    StatusOr<PlanResult> planned = engine.Plan(q, options);
    if (!planned.ok()) return planned.status();
    return engine.PrepareExecution(q, planned->plan, options);
  }();
  ASSERT_TRUE(ctx.ok()) << ctx.status();

  storage::Catalog empty;
  Engine engine(&empty);
  StatusOr<exec::RunReport> report = engine.RunPrepared(*ctx, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->ok()) << report->status;
  EXPECT_EQ(report->output_count, oracle_count);
}

TEST(PushDownSelectionsTest, AliasesUntouchedAtoms) {
  Rng rng(5);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(40, 250, rng))).ok());
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "H", dataset::ErdosRenyi(40, 250, rng))).ok());

  // The selection touches only G: H must be aliased, not copied.
  StatusOr<SpjQuery> selected = ParseSpj("G(a,b) H(b,c) | a=1");
  ASSERT_TRUE(selected.ok());
  StatusOr<PushedDown> pushed = PushDownSelections(db, *selected);
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_TRUE(pushed->catalog.Contains("G__sel0"));
  ASSERT_TRUE(pushed->catalog.Contains("H"));
  EXPECT_EQ(*pushed->catalog.Get("H"), *db.Get("H"));

  // Selection-free push-down (the serving hot path) aliases everything
  // and filters nothing.
  StatusOr<SpjQuery> plain = ParseSpj("G(a,b) H(b,c)");
  ASSERT_TRUE(plain.ok());
  StatusOr<PushedDown> aliased = PushDownSelections(db, *plain);
  ASSERT_TRUE(aliased.ok()) << aliased.status();
  EXPECT_EQ(aliased->filtered, 0u);
  EXPECT_EQ(*aliased->catalog.Get("G"), *db.Get("G"));
  EXPECT_EQ(*aliased->catalog.Get("H"), *db.Get("H"));
}

}  // namespace
}  // namespace adj::core
