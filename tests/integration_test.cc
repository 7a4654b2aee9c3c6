#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

#include "common/rng.h"
#include "core/engine.h"
#include "dataset/builtin.h"
#include "dataset/generators.h"
#include "dist/thread_pool.h"
#include "query/queries.h"
#include "sampling/sampler.h"
#include "sampling/sketch_estimator.h"
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

/// A plan's decisions and modeled costs, the costs in hex so that a
/// changed estimate shows even where rounding would hide it.
std::string PlanSignature(const optimizer::QueryPlan& plan,
                          const query::Query& q) {
  std::string out = "bags=";
  for (const ghd::Bag& bag : plan.decomp.bags) {
    out += std::to_string(bag.atoms) + ",";
  }
  out += " trav=";
  for (const int v : plan.traversal) {
    out += std::to_string(v) + (plan.precompute[size_t(v)] ? "*," : ",");
  }
  out += " ord=" + query::OrderToString(plan.order, q);
  char costs[128];
  std::snprintf(costs, sizeof(costs), " cost=%a/%a/%a", plan.est_precompute_s,
                plan.est_comm_s, plan.est_comp_s);
  return out + costs;
}

/// Plans of Q1-Q6 on RMAT graphs, recorded before the plan search
/// capped its estimates: bounding a sub-query's sampling pass must
/// leave every decision and every modeled cost bit-identical. Both
/// betas are fixed, so no timing enters the costs.
TEST(EngineTest, GoldenPlansOnRmat) {
  const std::map<std::string, std::string> golden = {
    {"Q1/seed1",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08c58be5d1d68p-5/0x1.5e9e1b089a027p-11"},
    {"Q2/seed1",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0cf9d6a3c3c7ap-5/0x1.3b40b34e76859p-9"},
    {"Q3/seed1",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.134846c0aeb16p-5/0x1.04f3ba775fb2fp-7"},
    {"Q4/seed1",
     "bags=19,12,32, trav=0,1,2, ord=a < c < e < b < d "
     "cost=0x0p+0/0x1.0cf9d6a3c3c7ap-5/0x1.c6ce789e774efp-6"},
    {"Q5/seed1",
     "bags=25,6,32,64, trav=0,1,3,2, ord=a < b < e < d < c "
     "cost=0x0p+0/0x1.0e06e9534043fp-5/0x1.6dda059a73b43p-6"},
    {"Q6/seed1",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f13fc02bcc03p-5/0x1.3ccd0fe8ab4fap-9"},
    {"Q1/seed1/slow",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08c58be5d1d68p-5/0x1.11eb851eb851ep-4"},
    {"Q2/seed1/slow",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0cf9d6a3c3c7ap-5/0x1.ec95182a9930cp-3"},
    {"Q3/seed1/slow",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.134846c0aeb16p-5/0x1.97bcd35a85878p-1"},
    {"Q4/seed1/slow",
     "bags=19,12,32, trav=0,1*,2, ord=a < c < e < b < d "
     "cost=0x1.1106c5274d322p+0/0x1.1388b36d5543p-5/0x1.fb10cdc8754f4p-1"},
    {"Q5/seed1/slow",
     "bags=25,6,32,64, trav=0,1,3,2, ord=a < b < e < d < c "
     "cost=0x0p+0/0x1.0e06e9534043fp-5/0x1.1dd25460aa64cp+1"},
    {"Q6/seed1/slow",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f13fc02bcc03p-5/0x1.ef0068db8bac7p-3"},
    {"Q1/seed2",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08cb55a954cd9p-5/0x1.61a1db877ab32p-11"},
    {"Q2/seed2",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0d08e339b1e3ap-5/0x1.71001d5c31594p-10"},
    {"Q3/seed2",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.136537923d84cp-5/0x1.02dcb1465e892p-8"},
    {"Q4/seed2",
     "bags=19,12,32, trav=0,1,2, ord=a < c < e < b < d "
     "cost=0x0p+0/0x1.0d08e339b1e3ap-5/0x1.9719b4dcebfecp-6"},
    {"Q5/seed2",
     "bags=25,6,32,64, trav=0,1,3,2, ord=a < b < e < d < c "
     "cost=0x0p+0/0x1.0e18469dc9293p-5/0x1.1c49774256bcap-6"},
    {"Q6/seed2",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f27aa01e06ebp-5/0x1.8ae3608d0891ap-8"},
    {"Q1/seed2/slow",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08cb55a954cd9p-5/0x1.14467381d7dbfp-4"},
    {"Q2/seed2/slow",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0d08e339b1e3ap-5/0x1.204816f0068dcp-3"},
    {"Q3/seed2/slow",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.136537923d84cp-5/0x1.9478d4fdf3b64p-2"},
    {"Q4/seed2/slow",
     "bags=19,12,32, trav=0,1*,2, ord=a < c < e < b < d "
     "cost=0x1.0e0f230abe6c6p+0/0x1.137cec5c2b9c6p-5/0x1.136a47cb70ac4p+0"},
    {"Q5/seed2/slow",
     "bags=25,6,32,64, trav=0,1,3,2, ord=a < b < e < d < c "
     "cost=0x0p+0/0x1.0e18469dc9293p-5/0x1.bc32ca57a786cp+0"},
    {"Q6/seed2/slow",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f27aa01e06ebp-5/0x1.3481a36e2eb1cp-1"},
    {"Q1/seed3",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08cd18a20d5b9p-5/0x1.628cbd1244a62p-11"},
    {"Q2/seed3",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0d0d77c05e88p-5/0x1.e5aa715831f04p-9"},
    {"Q3/seed3",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.136e066dd84abp-5/0x1.23dea465a5764p-7"},
    {"Q4/seed3",
     "bags=19,12,32, trav=0,1,2, ord=a < c < e < b < d "
     "cost=0x0p+0/0x1.0d0d77c05e88p-5/0x1.17218def416bep-4"},
    {"Q5/seed3",
     "bags=25,6,32,64, trav=0,1,3,2, ord=a < b < e < d < c "
     "cost=0x0p+0/0x1.0e1d8f87f2d32p-5/0x1.fd2756861e929p-6"},
    {"Q6/seed3",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f2da74f871e4p-5/0x1.546de76427c7cp-8"},
    {"Q1/seed3/slow",
     "bags=7, trav=0, ord=a < b < c "
     "cost=0x0p+0/0x1.08cd18a20d5b9p-5/0x1.14fdf3b645a1cp-4"},
    {"Q2/seed3/slow",
     "bags=7,8,16,32, trav=0,3,2,1, ord=a < b < d < c "
     "cost=0x0p+0/0x1.0d0d77c05e88p-5/0x1.7b6d288ce703bp-2"},
    {"Q3/seed3/slow",
     "bags=31,32,64,128,256,512, trav=0,5,4,3,2,1, ord=a < b < c < e < d "
     "cost=0x0p+0/0x1.136e066dd84abp-5/0x1.c80be0ded288cp-1"},
    {"Q4/seed3/slow",
     "bags=19,12,32, trav=0,1*,2, ord=a < c < e < b < d "
     "cost=0x1.6307bc2296bfp+0/0x1.161cb32542151p-5/0x1.76a2df0d41313p+0"},
    {"Q5/seed3/slow",
     "bags=25,6,32,64, trav=0,1*,3,2, ord=a < b < e < d < c "
     "cost=0x1.444ab45a4b613p+0/0x1.15b300da00ce2p-5/0x1.9438299d883bbp+0"},
    {"Q6/seed3/slow",
     "bags=17,14,32,64,128, trav=1,0,4,3,2, ord=b < c < d < e < a "
     "cost=0x0p+0/0x1.0f2da74f871e4p-5/0x1.09f5dcc63f141p-1"},
  };
  for (const uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    dataset::RmatParams params;
    params.scale = 10;
    storage::Catalog db;
    ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
        "G", dataset::Rmat(params, 3000, rng))).ok());
    Engine engine(&db);
    EngineOptions opts = FastOptions();
    opts.num_samples = 256;
    opts.seed = seed;
    opts.beta_precomputed_override = 4e6;
    // The slow raw rate makes pre-computing bags win in some plans.
    for (const double beta_raw : {1e6, 1e4}) {
      opts.beta_raw_override = beta_raw;
      for (int qi = 1; qi <= 6; ++qi) {
        auto q = query::MakeBenchmarkQuery(qi);
        ASSERT_TRUE(q.ok());
        auto planned = engine.Plan(*q, opts);
        ASSERT_TRUE(planned.ok()) << planned.status();
        const std::string key = "Q" + std::to_string(qi) + "/seed" +
                                std::to_string(seed) +
                                (beta_raw < 1e6 ? "/slow" : "");
        auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << key;
        EXPECT_EQ(PlanSignature(planned->plan, *q), it->second) << key;
      }
    }
  }
}

/// Duplicate rows in a base change neither the sketch's estimates nor
/// the plan: the sketch prices atoms at the distinct tuple counts the
/// main pass bound, and the distinct columns are duplicate-free.
TEST(EngineTest, DuplicateRowsChangeNoSketchEstimateOrPlan) {
  Rng rng(7);
  dataset::RmatParams params;
  params.scale = 9;
  const storage::Relation distinct = dataset::Rmat(params, 1500, rng);
  storage::Relation dup = distinct;
  for (uint64_t r = 0; r < distinct.size(); r += 3) {
    dup.Append({distinct.At(r, 0), distinct.At(r, 1)});
  }
  storage::Catalog dup_db, distinct_db;
  ASSERT_TRUE(dup_db.Apply(storage::WriteBatch().Create("G", dup)).ok());
  ASSERT_TRUE(
      distinct_db.Apply(storage::WriteBatch().Create("G", distinct)).ok());
  ASSERT_GT((*dup_db.Get("G"))->size(), distinct.size());

  EngineOptions opts = FastOptions();
  opts.num_samples = 256;
  opts.beta_precomputed_override = 4e6;
  opts.beta_raw_override = 1e5;
  for (const int qi : {2, 3, 5, 6}) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    query::AttributeOrder order(size_t(q->num_attrs()));
    std::iota(order.begin(), order.end(), 0);
    std::vector<sampling::SketchEstimator> sketches;
    for (const storage::Catalog* db : {&dup_db, &distinct_db}) {
      auto main_pass = sampling::SampleCardinality(
          *q, *db, order, sampling::SamplerOptions{});
      ASSERT_TRUE(main_pass.ok()) << main_pass.status();
      auto sketch =
          sampling::SketchEstimator::Build(*q, *db, main_pass->atom_tuples);
      ASSERT_TRUE(sketch.ok()) << sketch.status();
      sketches.push_back(std::move(*sketch));
    }
    for (AtomMask m = 1; m < (AtomMask(1) << q->num_atoms()); ++m) {
      EXPECT_EQ(sketches[0].EstimateJoin(m), sketches[1].EstimateJoin(m))
          << "Q" << qi << " mask " << m;
    }
    auto dup_plan = Engine(&dup_db).Plan(*q, opts);
    auto distinct_plan = Engine(&distinct_db).Plan(*q, opts);
    ASSERT_TRUE(dup_plan.ok() && distinct_plan.ok()) << "Q" << qi;
    EXPECT_EQ(PlanSignature(dup_plan->plan, *q),
              PlanSignature(distinct_plan->plan, *q))
        << "Q" << qi;
  }
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
