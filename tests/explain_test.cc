#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/engine.h"
#include "dataset/generators.h"
#include "optimizer/explain.h"
#include "query/queries.h"

namespace adj::optimizer {
namespace {

TEST(ExplainTest, RendersAllPlanSections) {
  Rng rng(5);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(40, 250, rng))).ok());
  auto q = query::MakeBenchmarkQuery(5);
  core::Engine engine(&db);
  core::EngineOptions opts;
  opts.cluster.num_servers = 4;
  opts.num_samples = 64;
  auto planned = engine.Plan(*q, opts);
  ASSERT_TRUE(planned.ok());
  const std::string& text = planned->explanation;
  EXPECT_NE(text.find("=== ADJ plan ==="), std::string::npos);
  EXPECT_NE(text.find("hypertree:"), std::string::npos);
  EXPECT_NE(text.find("traversal:"), std::string::npos);
  EXPECT_NE(text.find("attribute order:"), std::string::npos);
  EXPECT_NE(text.find("estimated cost:"), std::string::npos);
  // Every bag appears once in the traversal section.
  for (int v = 0; v < planned->plan.decomp.num_bags(); ++v) {
    EXPECT_NE(text.find("v" + std::to_string(v)), std::string::npos);
  }
}

TEST(ExplainTest, MarksPrecomputedBags) {
  // Force a pre-compute decision through direct PlanningInputs.
  auto q = *query::Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  auto d = *ghd::FindOptimalGhd(q);
  PlanningInputs in;
  in.q = &q;
  in.decomp = &d;
  in.cost_model.num_servers = 4;
  in.cost_model.beta_raw = 1.0;  // computation is monstrously slow
  in.cost_model.beta_precomputed = 1e9;
  in.atom_tuples.assign(size_t(q.num_atoms()), 1000);
  in.estimate_bindings = [](AttrMask m) {
    return std::pow(10.0, PopCount(m));
  };
  in.estimate_bag_size = [](int) { return 10.0; };
  in.estimate_distinct = [](AttrId) { return 100.0; };
  auto plan = OptimizeAdaptivePlan(in);
  ASSERT_TRUE(plan.ok());
  bool any_pre = false;
  for (bool b : plan->precompute) any_pre |= b;
  ASSERT_TRUE(any_pre);
  const std::string text = ExplainPlan(in, *plan);
  EXPECT_NE(text.find("[PRECOMPUTE]"), std::string::npos);
}

}  // namespace
}  // namespace adj::optimizer
