#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/engine.h"
#include "dataset/builtin.h"
#include "dataset/generators.h"
#include "dist/thread_pool.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::core {
namespace {

storage::Catalog SmallDb(uint64_t seed, uint64_t nodes = 30,
                         uint64_t edges = 150) {
  Rng rng(seed);
  storage::Catalog db;
  EXPECT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(nodes, edges, rng))).ok());
  return db;
}

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.cluster.num_servers = 4;
  opts.num_samples = 64;
  return opts;
}

/// End-to-end equivalence: all five strategies return the oracle count
/// on every evaluated query.
class StrategyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, Strategy>> {};

TEST_P(StrategyEquivalenceTest, CountMatchesOracle) {
  const int qi = std::get<0>(GetParam());
  const Strategy strategy = std::get<1>(GetParam());
  auto q = query::MakeBenchmarkQuery(qi);
  ASSERT_TRUE(q.ok());
  storage::Catalog db = SmallDb(uint64_t(qi));
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());

  Engine engine(&db);
  auto report = engine.Run(*q, strategy, FastOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->ok()) << report->status;
  EXPECT_EQ(report->output_count, naive->size())
      << "Q" << qi << " " << StrategyName(strategy);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategiesAllQueries, StrategyEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(Strategy::kCoOpt,
                                         Strategy::kCommFirst,
                                         Strategy::kCachedCommFirst,
                                         Strategy::kBinaryJoin,
                                         Strategy::kBigJoin)));

/// The same equivalence on a second random graph and the easy queries.
class EasyQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(EasyQueryTest, CoOptMatchesOracle) {
  const int qi = GetParam();
  auto q = query::MakeBenchmarkQuery(qi);
  storage::Catalog db = SmallDb(uint64_t(100 + qi), 40, 250);
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  Engine engine(&db);
  auto report = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

INSTANTIATE_TEST_SUITE_P(Easy, EasyQueryTest,
                         ::testing::Values(7, 8, 9, 10, 11));

TEST(EngineTest, PlanIsValidForPaperQuery) {
  storage::Catalog db = SmallDb(42, 60, 500);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto planned = engine.Plan(*q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();
  const optimizer::QueryPlan& plan = planned->plan;
  EXPECT_EQ(plan.order.size(), size_t(q->num_attrs()));
  EXPECT_TRUE(ghd::IsValidOrder(plan.decomp, *q, plan.order));
  EXPECT_GT(planned->optimize_s, 0.0);
}

TEST(EngineTest, ExhaustivePlannerAgreesOnCount) {
  storage::Catalog db = SmallDb(43);
  auto q = query::MakeBenchmarkQuery(5);
  auto naive = wcoj::NaiveJoin(*q, db);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.use_exhaustive_planner = true;
  auto report = engine.Run(*q, Strategy::kCoOpt, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

TEST(EngineTest, ExactEstimatePlannerAgreesOnCount) {
  storage::Catalog db = SmallDb(44);
  auto q = query::MakeBenchmarkQuery(4);
  auto naive = wcoj::NaiveJoin(*q, db);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.use_exact_estimates = true;
  auto report = engine.Run(*q, Strategy::kCoOpt, opts);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_EQ(report->output_count, naive->size());
}

TEST(EngineTest, ReportBreaksDownCosts) {
  storage::Catalog db = SmallDb(45, 60, 600);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto report = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_GT(report->optimize_s, 0.0);
  EXPECT_GT(report->comm_s, 0.0);
  EXPECT_GE(report->comp_s, 0.0);
  EXPECT_GT(report->TotalSeconds(), 0.0);
  EXPECT_FALSE(report->plan_description.empty());
}

TEST(EngineTest, TimeLimitEmulatesTimeout) {
  storage::Catalog db = SmallDb(46, 300, 8000);
  auto q = query::MakeBenchmarkQuery(3);
  Engine engine(&db);
  EngineOptions opts = FastOptions();
  opts.limits.max_extensions = 1000;  // emulate memory pressure
  auto report = engine.Run(*q, Strategy::kCommFirst, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(EngineTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(Strategy::kCoOpt), "ADJ");
  EXPECT_STREQ(StrategyName(Strategy::kCommFirst), "HCubeJ");
  EXPECT_STREQ(StrategyName(Strategy::kCachedCommFirst), "HCubeJ+Cache");
  EXPECT_STREQ(StrategyName(Strategy::kBinaryJoin), "SparkSQL");
  EXPECT_STREQ(StrategyName(Strategy::kBigJoin), "BigJoin");
}

TEST(EngineTest, CommFirstOrderCoversAllAttrs) {
  storage::Catalog db = SmallDb(47);
  auto q = query::MakeBenchmarkQuery(6);
  Engine engine(&db);
  auto order = engine.SelectCommFirstOrder(*q);
  ASSERT_TRUE(order.ok());
  EXPECT_EQ(order->size(), size_t(q->num_attrs()));
}

TEST(EngineTest, DeterministicAcrossRuns) {
  storage::Catalog db = SmallDb(48);
  auto q = query::MakeBenchmarkQuery(5);
  Engine engine(&db);
  auto a = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  auto b = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->output_count, b->output_count);
  EXPECT_EQ(a->comm.tuple_copies, b->comm.tuple_copies);
}

/// Sampling on the host's cores (planning off a pool) and serially
/// (planning on a pool worker, as serve workers and RunBatch do) yields
/// the same plan: the estimates are identical, and beta is timed in
/// thread CPU time, so it does not fall with the worker count.
TEST(EngineTest, PlanIndependentOfSamplingThreads) {
  storage::Catalog db = SmallDb(49, 60, 500);
  for (const int qi : {3, 5, 6}) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    Engine engine(&db);
    auto parallel = engine.Plan(*q, FastOptions());
    StatusOr<PlanResult> serial = Status::Internal("not run");
    dist::ThreadPool pool(1);  // a batch task plans serially
    pool.ForkJoin({[&] { serial = engine.Plan(*q, FastOptions()); }});
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_TRUE(serial.ok()) << serial.status();
    EXPECT_GT(parallel->beta_raw, 0.0);
    EXPECT_GT(serial->beta_raw, 0.0);
    const optimizer::QueryPlan& a = parallel->plan;
    const optimizer::QueryPlan& b = serial->plan;
    EXPECT_EQ(a.order, b.order) << "Q" << qi;
    EXPECT_EQ(a.traversal, b.traversal) << "Q" << qi;
    EXPECT_EQ(a.precompute, b.precompute) << "Q" << qi;
    ASSERT_EQ(a.decomp.bags.size(), b.decomp.bags.size()) << "Q" << qi;
    for (size_t v = 0; v < a.decomp.bags.size(); ++v) {
      EXPECT_EQ(a.decomp.bags[v].atoms, b.decomp.bags[v].atoms) << "Q" << qi;
    }
  }
}

TEST(EngineTest, SingleAtomEstimateIsDistinctTupleCount) {
  // A base loaded unsorted keeps its duplicate rows, so its size()
  // overcounts; a one-atom sub-query's estimate is the distinct tuple
  // count, read from the index the main sampling pass bound. Skewed
  // out-degrees keep a sampled estimate away from the exact count.
  storage::Relation g(storage::Schema({0, 1}));
  for (Value a = 0; a < 10; ++a) {
    for (Value j = 0; j < 2 * a + 2; ++j) g.Append({a, (a * 7 + j) % 30});
  }
  const uint64_t rows = g.size();
  for (uint64_t r = rows; r-- > rows / 2;) {
    const Value a = g.At(r, 0), b = g.At(r, 1);
    g.Append({a, b});
  }
  storage::Relation distinct = g;
  distinct.SortAndDedup();
  ASSERT_LT(distinct.size(), g.size());
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create("G", g)).ok());
  ASSERT_FALSE((*db.Get("G"))->IsSortedUnique());

  auto q = query::Query::Parse("G(a,b) G(b,c)");  // one atom per bag
  ASSERT_TRUE(q.ok());
  Engine engine(&db);
  auto planned = engine.Plan(*q, FastOptions());
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(planned->plan.decomp.num_bags(), 2);
  char want[64];
  std::snprintf(want, sizeof(want), "est|R_v|=%.3g ",
                double(distinct.size()));
  size_t at = 0;
  for (int bag = 0; bag < 2; ++bag) {
    at = planned->explanation.find(want, at);
    ASSERT_NE(at, std::string::npos) << want << "\n"
                                     << planned->explanation;
    ++at;
  }

  // The cost model prices the atoms at 110 distinct tuples, not 165
  // rows: the plan's modeled shuffle is the deduplicated relation's.
  storage::Catalog deduped;
  ASSERT_TRUE(deduped.Apply(storage::WriteBatch().Create("G", distinct)).ok());
  Engine deduped_engine(&deduped);
  auto deduped_plan = deduped_engine.Plan(*q, FastOptions());
  ASSERT_TRUE(deduped_plan.ok()) << deduped_plan.status();
  EXPECT_GT(planned->plan.est_comm_s, 0.0);
  EXPECT_EQ(planned->plan.est_comm_s, deduped_plan->plan.est_comm_s);
}

TEST(EngineTest, BuiltinDatasetSmokeRun) {
  auto g = dataset::MakeBuiltin("WB", 0.05);
  ASSERT_TRUE(g.ok());
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(storage::WriteBatch().Create("G", std::move(g.value()))).ok());
  auto q = query::MakeBenchmarkQuery(1);
  Engine engine(&db);
  auto adj = engine.Run(*q, Strategy::kCoOpt, FastOptions());
  auto hcj = engine.Run(*q, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(adj.ok() && hcj.ok());
  ASSERT_TRUE(adj->ok() && hcj->ok());
  EXPECT_EQ(adj->output_count, hcj->output_count);
  EXPECT_GT(adj->output_count, 0u);
}

}  // namespace
}  // namespace adj::core
