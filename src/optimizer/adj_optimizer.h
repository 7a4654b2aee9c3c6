#ifndef ADJ_OPTIMIZER_ADJ_OPTIMIZER_H_
#define ADJ_OPTIMIZER_ADJ_OPTIMIZER_H_

#include <functional>
#include <limits>
#include <vector>

#include "common/status.h"
#include "dist/cluster.h"
#include "ghd/decomposition.h"
#include "optimizer/cost_model.h"
#include "optimizer/query_plan.h"
#include "query/query.h"

namespace adj::optimizer {

/// A cardinality estimate asked for under a cap: the caller needs the
/// value only up to `cap`. `bounded` marks an estimator that stopped
/// once its estimate provably reached the cap; `value` is then a lower
/// bound with cap <= value <= the uncapped estimate. Otherwise `value`
/// is the uncapped estimate.
struct Estimate {
  double value = 0.0;
  bool bounded = false;
};

/// The cap that asks for the uncapped estimate.
inline constexpr double kNoCap = std::numeric_limits<double>::infinity();

/// Everything the plan search needs. Cardinality knowledge is
/// injected through callbacks so the optimizer can be driven by the
/// distributed sampler (production), the exact oracle (tests), or the
/// sketch estimator (ablation). The sub-query estimates take a cap
/// (see Estimate): the adaptive search passes the value above which
/// the candidate being costed cannot beat the best cost so far, so
/// sampling can stop there. A cap of 0 asks for nothing that is not
/// already known: an estimator may answer {0, bounded}.
struct PlanningInputs {
  const query::Query* q = nullptr;
  const ghd::Decomposition* decomp = nullptr;
  CostModel cost_model;
  dist::ClusterConfig cluster;
  std::vector<uint64_t> atom_tuples;  // per atom, bound relation sizes

  /// Estimated number of partial bindings over an attribute set —
  /// |T_{v_i}| of Sec. III-B (the size of the join of the atoms whose
  /// schema falls inside the mask).
  std::function<Estimate(AttrMask, double cap)> estimate_bindings;
  /// Estimated |R_v| for bag v.
  std::function<Estimate(int, double cap)> estimate_bag_size;
  /// Estimated |val(A)| (fallback within-bag order heuristic).
  std::function<double(AttrId)> estimate_distinct;
  /// Optional scorer for complete attribute orders (lower is better);
  /// when set, DeriveOrder picks the best-scoring order consistent
  /// with the traversal instead of the distinct-count heuristic. The
  /// engine wires this to the sketch-based prefix-bindings score —
  /// the same scorer the comm-first baseline uses over *all* orders,
  /// restricted here to valid orders (Fig. 8's Valid-Selected).
  std::function<double(const query::AttributeOrder&)> order_score;
};

/// Estimated cost of a fully specified configuration (which bags are
/// pre-computed + bag traversal order), per the Sec. III-B model.
/// Every estimate is asked for uncapped.
struct PlanCost {
  double pre = 0.0;
  double comm = 0.0;
  double comp = 0.0;
  double total() const { return pre + comm + comp; }
};
PlanCost EvaluatePlan(const PlanningInputs& in,
                      const std::vector<bool>& precompute,
                      const std::vector<int>& traversal);

/// Alg. 2: greedy reverse construction of the traversal order,
/// deciding per step whether the chosen bag is worth pre-computing.
/// O(n*^2) cost evaluations instead of the naive O(2^n* n*!).
///
/// Branch and bound: each estimate is capped where the candidate's
/// cost would reach the best cost found so far in the step, and a
/// candidate is dropped as soon as its partial cost does. Candidates
/// win only on a strict `<`, and a cost only grows as terms are added
/// (in floating point too), so a dropped candidate could not have won,
/// and a winner never reached a cap: the plan and its estimated costs
/// are those of the uncapped search.
StatusOr<QueryPlan> OptimizeAdaptivePlan(const PlanningInputs& in);

/// Exhaustive oracle over every (pre-compute subset, traversal order)
/// pair. Exponential; used in tests and the optimizer-quality
/// ablation bench. Every estimate is asked for uncapped.
StatusOr<QueryPlan> OptimizeExhaustivePlan(const PlanningInputs& in);

/// Derives the attribute order induced by a bag traversal: fresh
/// attributes bag by bag, each group ordered by ascending estimated
/// distinct count (fewest candidate values first, following [11]).
query::AttributeOrder DeriveOrder(const PlanningInputs& in,
                                  const std::vector<int>& traversal);

}  // namespace adj::optimizer

#endif  // ADJ_OPTIMIZER_ADJ_OPTIMIZER_H_
