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

TEST(ExplainTest, BoundedBagRendersAsLowerBound) {
  // On a skewed graph Q3's 5-cycle bag is far too large to pre-compute:
  // the search samples it only until its estimate rules pre-computing
  // out, and EXPLAIN prints that lower bound rather than sampling the
  // bag again.
  Rng rng(1);
  dataset::RmatParams params;
  params.scale = 10;
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::Rmat(params, 3000, rng))).ok());
  auto q = query::MakeBenchmarkQuery(3);
  ASSERT_TRUE(q.ok());
  core::Engine engine(&db);
  core::EngineOptions opts;
  opts.cluster.num_servers = 4;
  opts.num_samples = 256;
  opts.beta_precomputed_override = 4e6;
  opts.beta_raw_override = 1e6;
  auto planned = engine.Plan(*q, opts);
  ASSERT_TRUE(planned.ok()) << planned.status();
  const std::string& text = planned->explanation;
  EXPECT_NE(text.find("{G(a,b) G(b,c) G(c,d) G(d,e) G(e,a)} rho=2.50 "
                      "est|R_v|>="),
            std::string::npos)
      << text;
  // The one-atom bags are exact.
  EXPECT_NE(text.find("{G(a,d)} rho=1.00 est|R_v|="), std::string::npos)
      << text;
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
  in.estimate_bindings = [](AttrMask m, double) {
    return Estimate{std::pow(10.0, PopCount(m))};
  };
  in.estimate_bag_size = [](int, double) { return Estimate{10.0}; };
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
