#include "optimizer/explain.h"

#include <cstdio>

namespace adj::optimizer {

std::string ExplainPlan(const PlanningInputs& in, const QueryPlan& plan) {
  const query::Query& q = *in.q;
  const ghd::Decomposition& d = plan.decomp;
  std::string out;
  char line[256];

  out += "=== ADJ plan ===\n";
  out += "query: " + q.ToString() + "\n";
  out += "hypertree: " + d.ToString(q) + "\n";

  out += "traversal:\n";
  AttrMask prev = 0;
  for (size_t i = 0; i < plan.traversal.size(); ++i) {
    const int v = plan.traversal[i];
    const ghd::Bag& bag = d.bags[size_t(v)];
    std::string atoms;
    for (int a = 0; a < q.num_atoms(); ++a) {
      if (bag.atoms & (AtomMask(1) << a)) {
        if (!atoms.empty()) atoms += " ";
        atoms += q.atom(a).relation + q.atom(a).schema.ToString();
      }
    }
    // A cap of 0 starts no sampling pass the search did not: what
    // the search only bounded (or never asked for) prints as ">=".
    const Estimate est_size =
        in.estimate_bag_size ? in.estimate_bag_size(v, 0.0) : Estimate{};
    const Estimate bindings = (prev != 0 && in.estimate_bindings)
                                  ? in.estimate_bindings(prev, 0.0)
                                  : Estimate{1.0, false};
    std::snprintf(line, sizeof(line),
                  "  %zu. v%d %s{%s} rho=%.2f est|R_v|%s%.3g "
                  "est|T_prev|%s%.3g\n",
                  i + 1, v, plan.precompute[size_t(v)] ? "[PRECOMPUTE] " : "",
                  atoms.c_str(), bag.rho, est_size.bounded ? ">=" : "=",
                  est_size.value, bindings.bounded ? ">=" : "=",
                  bindings.value);
    out += line;
    prev |= bag.attrs;
  }

  out += "attribute order: " + query::OrderToString(plan.order, q) + "\n";
  std::snprintf(line, sizeof(line),
                "estimated cost: pre=%.4fs comm=%.4fs comp=%.4fs "
                "total=%.4fs\n",
                plan.est_precompute_s, plan.est_comm_s, plan.est_comp_s,
                plan.EstTotal());
  out += line;
  return out;
}

}  // namespace adj::optimizer
