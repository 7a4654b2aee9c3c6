#include <cmath>
#include <limits>

#include "common/logging.h"
#include "optimizer/adj_optimizer.h"

namespace adj::optimizer {

StatusOr<QueryPlan> OptimizeExhaustivePlan(const PlanningInputs& in) {
  ADJ_CHECK(in.q != nullptr && in.decomp != nullptr);
  const ghd::Decomposition& d = *in.decomp;
  const int k = d.num_bags();
  if (k > 16) {
    return Status::InvalidArgument(
        "exhaustive planner supports <= 16 bags");
  }

  // Pre-compute decisions only make sense on multi-atom bags.
  std::vector<int> multi;
  for (int v = 0; v < k; ++v) {
    if (!d.bags[size_t(v)].IsSingleAtom()) multi.push_back(v);
  }
  const std::vector<std::vector<int>> traversals = ghd::TraversalOrders(d);

  double best_total = std::numeric_limits<double>::infinity();
  QueryPlan best;
  bool found = false;
  for (uint32_t subset = 0; subset < (1u << multi.size()); ++subset) {
    std::vector<bool> pre(k, false);
    for (size_t j = 0; j < multi.size(); ++j) {
      if (subset & (1u << j)) pre[size_t(multi[j])] = true;
    }
    for (const std::vector<int>& traversal : traversals) {
      const PlanCost cost = EvaluatePlan(in, pre, traversal);
      const double total = cost.total();
      // The first pair stands when no cost is finite (every estimate
      // unknown): whether that fails the request is the engine's call.
      if (!found || total < best_total) {
        if (!std::isnan(total)) best_total = total;
        best.decomp = d;
        best.precompute = pre;
        best.traversal = traversal;
        best.est_precompute_s = cost.pre;
        best.est_comm_s = cost.comm;
        best.est_comp_s = cost.comp;
        found = true;
      }
    }
  }
  if (!found) return Status::Internal("no plan found");
  best.order = DeriveOrder(in, best.traversal);
  return best;
}

}  // namespace adj::optimizer
