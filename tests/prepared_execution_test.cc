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
