#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "ghd/decomposition.h"
#include "optimizer/adj_optimizer.h"
#include "optimizer/cost_model.h"
#include "optimizer/share_optimizer.h"
#include "query/queries.h"

namespace adj::optimizer {
namespace {

dist::ClusterConfig TestCluster(int n = 4) {
  dist::ClusterConfig cfg;
  cfg.num_servers = n;
  return cfg;
}

TEST(ShareOptimizerTest, TriangleSplitsTwoAttributes) {
  // Symmetric triangle query: the classic HCube optimum for N=4 puts
  // shares on two attributes (any two); never all four on one.
  std::vector<ShareInput> rels = {
      {0b011, 1000, 8000}, {0b110, 1000, 8000}, {0b101, 1000, 8000}};
  auto p = OptimizeShares(rels, 3, TestCluster(4));
  ASSERT_TRUE(p.ok());
  EXPECT_GE(p->NumCubes(), 4u);
  int split_attrs = 0;
  for (uint32_t s : p->p) {
    if (s > 1) ++split_attrs;
  }
  EXPECT_GE(split_attrs, 2);
  // Cost of the chosen p must not exceed the naive single-attribute
  // split (which duplicates two relations fully).
  dist::ShareVector naive{{4, 1, 1}};
  EXPECT_LE(ShareCost(rels, *p, 4), ShareCost(rels, naive, 4));
}

TEST(ShareOptimizerTest, SkewedSizesProtectLargeRelation) {
  // One huge relation on (a,b), tiny ones elsewhere: shares should
  // avoid duplicating the big one, i.e. prefer splitting a and b.
  std::vector<ShareInput> rels = {
      {0b011, 1000000, 8000000}, {0b110, 10, 80}, {0b101, 10, 80}};
  auto p = OptimizeShares(rels, 3, TestCluster(8));
  ASSERT_TRUE(p.ok());
  const uint64_t dup_big = dist::DupCubes(0b011, *p);
  EXPECT_EQ(dup_big, 1u) << p->ToString();
}

TEST(ShareOptimizerTest, RespectsServerCount) {
  std::vector<ShareInput> rels = {{0b11, 100, 800}};
  for (int n : {1, 2, 7, 28}) {
    auto p = OptimizeShares(rels, 2, TestCluster(n));
    ASSERT_TRUE(p.ok());
    EXPECT_GE(p->NumCubes(), uint64_t(n));
  }
}

TEST(ShareOptimizerTest, MemoryConstraintForcesFinerPartitioning) {
  // With a tight memory budget, p must split the relation's own
  // attributes so each server holds a fraction.
  std::vector<ShareInput> rels = {{0b11, 100000, 800000}};
  dist::ClusterConfig cfg = TestCluster(4);
  cfg.memory_per_server_bytes = 300000;
  auto p = OptimizeShares(rels, 2, cfg);
  ASSERT_TRUE(p.ok());
  EXPECT_LT(dist::ServerFraction(0b11, *p), 0.5);
}

TEST(CostModelTest, ExtendSecondsScalesWithServers) {
  CostModel cm;
  cm.num_servers = 1;
  const double one = cm.ExtendSeconds(1e6, false);
  cm.num_servers = 8;
  EXPECT_NEAR(cm.ExtendSeconds(1e6, false) * 8, one, 1e-12);
}

TEST(CostModelTest, PrecomputedNodesAreFaster) {
  CostModel cm;
  EXPECT_LT(cm.ExtendSeconds(1e6, true), cm.ExtendSeconds(1e6, false));
}

TEST(CostModelTest, CalibrationProducesPlausibleRate) {
  const double beta = CalibrateBetaPrecomputed(1 << 12);
  EXPECT_GT(beta, 1e4);   // even a slow machine probes >10k/s
  EXPECT_LT(beta, 1e10);  // and no machine probes >10G/s
}

/// Planning fixture: paper Eq. (2) query over a skewed graph, exact
/// estimates via the sketch-free path (small data).
class PlanningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    q_ = *query::Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
    decomp_ = *ghd::FindOptimalGhd(q_);
    in_.q = &q_;
    in_.decomp = &decomp_;
    in_.cluster = TestCluster(4);
    in_.cost_model.num_servers = 4;
    in_.atom_tuples = {1000, 800, 800, 800, 800};
    // Synthetic but internally consistent estimates: bindings grow
    // with attribute count; bags are modest.
    in_.estimate_bindings = [](AttrMask attrs, double) {
      return Estimate{std::pow(10.0, PopCount(attrs))};
    };
    in_.estimate_bag_size = [this](int v, double) {
      return Estimate{50.0 * PopCount(decomp_.bags[size_t(v)].atoms)};
    };
    in_.estimate_distinct = [](AttrId a) { return 100.0 + a; };
  }

  query::Query q_;
  ghd::Decomposition decomp_;
  PlanningInputs in_;
};

TEST_F(PlanningTest, AdaptivePlanIsValid) {
  auto plan = OptimizeAdaptivePlan(in_);
  ASSERT_TRUE(plan.ok());
  // Traversal covers every bag exactly once.
  std::vector<bool> seen(decomp_.num_bags(), false);
  for (int v : plan->traversal) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, decomp_.num_bags());
    EXPECT_FALSE(seen[size_t(v)]);
    seen[size_t(v)] = true;
  }
  // The induced order is valid w.r.t. the decomposition.
  EXPECT_TRUE(ghd::IsValidOrder(decomp_, q_, plan->order));
  EXPECT_EQ(plan->order.size(), size_t(q_.num_attrs()));
  // Single-atom bags are never marked for pre-computation.
  for (int v = 0; v < decomp_.num_bags(); ++v) {
    if (decomp_.bags[size_t(v)].IsSingleAtom()) {
      EXPECT_FALSE(plan->precompute[size_t(v)]);
    }
  }
}

TEST_F(PlanningTest, ExhaustiveNeverWorseThanAdaptive) {
  auto adaptive = OptimizeAdaptivePlan(in_);
  auto exhaustive = OptimizeExhaustivePlan(in_);
  ASSERT_TRUE(adaptive.ok() && exhaustive.ok());
  EXPECT_LE(exhaustive->EstTotal(), adaptive->EstTotal() + 1e-9);
}

TEST_F(PlanningTest, ExpensiveComputationTriggersPrecompute) {
  // Make raw extension monstrously slow and bags tiny: pre-computing
  // multi-atom bags must win.
  in_.cost_model.beta_raw = 1.0;         // 1 extension/sec
  in_.cost_model.beta_precomputed = 1e9;
  in_.estimate_bag_size = [](int, double) { return Estimate{10.0}; };
  in_.estimate_bindings = [](AttrMask attrs, double) {
    return Estimate{std::pow(10.0, PopCount(attrs))};
  };
  auto plan = OptimizeAdaptivePlan(in_);
  ASSERT_TRUE(plan.ok());
  bool any = false;
  for (int v = 0; v < decomp_.num_bags(); ++v) {
    if (plan->precompute[size_t(v)]) any = true;
  }
  EXPECT_TRUE(any);
}

TEST_F(PlanningTest, CheapComputationAvoidsPrecompute) {
  // Extension is nearly free: pre-computing only adds cost.
  in_.cost_model.beta_raw = 1e12;
  in_.cost_model.beta_precomputed = 1e12;
  auto plan = OptimizeAdaptivePlan(in_);
  ASSERT_TRUE(plan.ok());
  for (int v = 0; v < decomp_.num_bags(); ++v) {
    EXPECT_FALSE(plan->precompute[size_t(v)]) << "bag " << v;
  }
}

TEST_F(PlanningTest, UnknownEstimatesStillYieldValidPlan) {
  // Once the planning budget is spent (or a sample fails) every
  // estimate is infinite, so every candidate cost is infinite or NaN.
  // Both planners must still place each bag; whether the overrun fails
  // the request is the engine's call, not an Internal error here.
  for (auto optimize : {&OptimizeAdaptivePlan, &OptimizeExhaustivePlan}) {
    for (const double unknown : {std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN()}) {
      in_.estimate_bindings = [unknown](AttrMask, double) {
        return Estimate{unknown};
      };
      in_.estimate_bag_size = [unknown](int, double) {
        return Estimate{unknown};
      };
      in_.estimate_distinct = [unknown](AttrId) { return unknown; };
      auto plan = optimize(in_);
      ASSERT_TRUE(plan.ok()) << plan.status();
      std::vector<int> traversal = plan->traversal;
      std::sort(traversal.begin(), traversal.end());
      std::vector<int> all(size_t(decomp_.num_bags()));
      std::iota(all.begin(), all.end(), 0);
      EXPECT_EQ(traversal, all);
      EXPECT_TRUE(ghd::IsValidOrder(decomp_, q_, plan->order));
    }
  }
}

TEST_F(PlanningTest, EvaluatePlanBreaksDownCosts) {
  std::vector<bool> pre(decomp_.num_bags(), false);
  std::vector<int> traversal = ghd::TraversalOrders(decomp_)[0];
  PlanCost base = EvaluatePlan(in_, pre, traversal);
  EXPECT_EQ(base.pre, 0.0);
  EXPECT_GT(base.comm, 0.0);
  EXPECT_GT(base.comp, 0.0);
  // Pre-computing some multi-atom bag adds pre cost.
  for (int v = 0; v < decomp_.num_bags(); ++v) {
    if (!decomp_.bags[size_t(v)].IsSingleAtom()) {
      pre[size_t(v)] = true;
      break;
    }
  }
  PlanCost with_pre = EvaluatePlan(in_, pre, traversal);
  EXPECT_GT(with_pre.pre, 0.0);
}

TEST_F(PlanningTest, DeriveOrderRespectsDistinctCounts) {
  // Make attribute e have far fewer candidates than b: within its bag
  // group, e should precede b if both are fresh in the same bag.
  in_.estimate_distinct = [](AttrId a) { return a == 4 ? 1.0 : 1000.0; };
  std::vector<int> traversal = ghd::TraversalOrders(decomp_)[0];
  query::AttributeOrder order = DeriveOrder(in_, traversal);
  EXPECT_EQ(order.size(), 5u);
  EXPECT_TRUE(ghd::IsValidOrder(decomp_, q_, order));
}

/// A value drawn from (key, trial) alone, log-uniform over
/// [10, 10^7): the same whatever order the search asks in.
double DrawnSize(uint64_t trial, uint64_t key) {
  const uint64_t h = Mix64(HashCombine(trial, key));
  return std::pow(10.0, 1.0 + 6.0 * double(h >> 11) * 0x1p-53);
}

/// Branch and bound must not change the search's outcome. Per trial,
/// the "exact" estimates are random but fixed per mask and bag; the
/// capped oracle answers any value in [cap, exact], flagged bounded,
/// once exact >= cap — the cap itself, the exact value, or one in
/// between. Order, traversal, pre-compute set and estimated costs must
/// equal the uncapped search's, over the fig-series query shapes.
TEST(CappedSearchTest, PlansEqualUncappedSearchOnFigQueries) {
  uint64_t capped_requests = 0, bounded_answers = 0, precomputing_plans = 0;
  for (int qi = 1; qi <= 11; ++qi) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    auto d = ghd::FindOptimalGhd(*q);
    ASSERT_TRUE(d.ok());
    for (uint64_t trial = 0; trial < 60; ++trial) {
      const uint64_t seed = uint64_t(qi) * 1000 + trial;
      Rng rng(seed);
      PlanningInputs in;
      in.q = &*q;
      in.decomp = &*d;
      in.cluster = TestCluster(4);
      in.cost_model.num_servers = 4;
      in.cost_model.beta_precomputed = 4e6;
      in.cost_model.beta_raw = std::pow(10.0, 3.0 + 4.0 * rng.NextDouble());
      for (int a = 0; a < q->num_atoms(); ++a) {
        in.atom_tuples.push_back(1000 + rng.Uniform(100000));
      }
      in.estimate_distinct = [](AttrId a) { return 100.0 + a; };
      auto exact_bindings = [seed](AttrMask m) {
        return DrawnSize(seed, m);
      };
      auto exact_bag = [seed](int v) {
        return DrawnSize(seed, (uint64_t(1) << 40) + uint64_t(v));
      };
      in.estimate_bindings = [&](AttrMask m, double) {
        return Estimate{exact_bindings(m)};
      };
      in.estimate_bag_size = [&](int v, double) {
        return Estimate{exact_bag(v)};
      };
      auto uncapped = OptimizeAdaptivePlan(in);
      ASSERT_TRUE(uncapped.ok());

      Rng answers(seed ^ 0xABCDEF);
      auto capped_answer = [&](double exact, double cap) {
        if (cap < kNoCap) ++capped_requests;
        if (exact < cap) return Estimate{exact};
        ++bounded_answers;
        const double lo = std::max(cap, 0.0);
        switch (answers.Uniform(3)) {
          case 0:
            return Estimate{lo, true};
          case 1:
            return Estimate{exact, true};
          default:
            return Estimate{lo + (exact - lo) * answers.NextDouble(), true};
        }
      };
      in.estimate_bindings = [&](AttrMask m, double cap) {
        return capped_answer(exact_bindings(m), cap);
      };
      in.estimate_bag_size = [&](int v, double cap) {
        return capped_answer(exact_bag(v), cap);
      };
      auto capped = OptimizeAdaptivePlan(in);
      ASSERT_TRUE(capped.ok());
      const std::string at =
          "Q" + std::to_string(qi) + " trial " + std::to_string(trial);
      EXPECT_EQ(capped->order, uncapped->order) << at;
      EXPECT_EQ(capped->traversal, uncapped->traversal) << at;
      EXPECT_EQ(capped->precompute, uncapped->precompute) << at;
      EXPECT_EQ(capped->est_precompute_s, uncapped->est_precompute_s) << at;
      EXPECT_EQ(capped->est_comm_s, uncapped->est_comm_s) << at;
      EXPECT_EQ(capped->est_comp_s, uncapped->est_comp_s) << at;
      for (const bool pre : uncapped->precompute) {
        if (pre) {
          ++precomputing_plans;
          break;
        }
      }
    }
  }
  // The trials did exercise the caps, and plans that pre-compute.
  EXPECT_GT(capped_requests, 1000u);
  EXPECT_GT(bounded_answers, 100u);
  EXPECT_GT(precomputing_plans, 10u);
}

TEST(PlanToStringTest, MentionsTraversalAndOrder) {
  auto q = *query::Query::Parse("R(a,b) S(b,c)");
  auto d = *ghd::FindOptimalGhd(q);
  QueryPlan plan;
  plan.decomp = d;
  plan.traversal = {0, 1};
  plan.precompute = {false, false};
  plan.order = {0, 1, 2};
  std::string s = plan.ToString(q);
  EXPECT_NE(s.find("v0"), std::string::npos);
  EXPECT_NE(s.find("ord="), std::string::npos);
}

}  // namespace
}  // namespace adj::optimizer
