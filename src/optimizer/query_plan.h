#ifndef ADJ_OPTIMIZER_QUERY_PLAN_H_
#define ADJ_OPTIMIZER_QUERY_PLAN_H_

#include <string>
#include <vector>

#include "ghd/decomposition.h"
#include "query/attribute_order.h"
#include "query/query.h"

namespace adj::optimizer {

/// The (Qi, ord) pair of the paper's problem statement: which
/// candidate relations (GHD bags) to pre-compute, in which traversal
/// order the bags are expanded, and the induced attribute order.
struct QueryPlan {
  ghd::Decomposition decomp;
  std::vector<int> traversal;     // bag ids in forward traversal order
  std::vector<bool> precompute;   // per bag, aligned with decomp.bags
  query::AttributeOrder order;

  // Predicted cost breakdown (seconds under the cost model).
  double est_precompute_s = 0.0;
  double est_comm_s = 0.0;
  double est_comp_s = 0.0;
  double EstTotal() const {
    return est_precompute_s + est_comm_s + est_comp_s;
  }

  std::string ToString(const query::Query& q) const;
};

}  // namespace adj::optimizer

#endif  // ADJ_OPTIMIZER_QUERY_PLAN_H_
