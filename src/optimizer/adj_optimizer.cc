#include "optimizer/adj_optimizer.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "optimizer/share_optimizer.h"

namespace adj::optimizer {
namespace {

/// True if a bag behaves like a materialized relation during
/// Leapfrog: either pre-computed, or a single original atom (which is
/// already stored and trie-indexed).
bool NodeFast(const ghd::Decomposition& d, const std::vector<bool>& pre,
              int v) {
  return pre[size_t(v)] || d.bags[size_t(v)].IsSingleAtom();
}

/// ShareInputs of the candidate query determined by the pre-compute
/// set: pre-computed bags contribute one estimated relation; all other
/// atoms ship as-is.
std::vector<ShareInput> CandidateRelations(const PlanningInputs& in,
                                           const std::vector<bool>& pre) {
  const ghd::Decomposition& d = *in.decomp;
  std::vector<ShareInput> rels;
  AtomMask covered = 0;
  for (int v = 0; v < d.num_bags(); ++v) {
    if (!pre[size_t(v)] || d.bags[size_t(v)].IsSingleAtom()) continue;
    covered |= d.bags[size_t(v)].atoms;
    ShareInput rel;
    rel.schema = d.bags[size_t(v)].attrs;
    rel.tuples = static_cast<uint64_t>(
        std::max(1.0, in.estimate_bag_size(v, kNoCap).value));
    rel.bytes = rel.tuples *
                uint64_t(PopCount(rel.schema)) * sizeof(Value);
    rels.push_back(rel);
  }
  for (int a = 0; a < in.q->num_atoms(); ++a) {
    if (covered & (AtomMask(1) << a)) continue;
    ShareInput rel;
    rel.schema = in.q->atom(a).schema.Mask();
    rel.tuples = in.atom_tuples[size_t(a)];
    rel.bytes = rel.tuples * uint64_t(in.q->atom(a).schema.arity()) *
                sizeof(Value);
    rels.push_back(rel);
  }
  return rels;
}

/// costC(C): modeled seconds to HCube-shuffle the candidate query's
/// relations under their optimal shares.
double CostC(const PlanningInputs& in, const std::vector<bool>& pre) {
  std::vector<ShareInput> rels = CandidateRelations(in, pre);
  StatusOr<dist::ShareVector> share =
      OptimizeShares(rels, in.q->num_attrs(), in.cluster);
  if (!share.ok()) return std::numeric_limits<double>::infinity();
  const double copies = ShareCost(rels, *share, in.cluster.num_servers);
  return in.cost_model.CommSeconds(copies);
}

/// The shuffle part of costM(v): modeled seconds to HCube-shuffle
/// lambda(v) for the bag's own sub-join.
double CommM(const PlanningInputs& in, int v) {
  const ghd::Bag& bag = in.decomp->bags[size_t(v)];
  std::vector<ShareInput> rels;
  for (int a = 0; a < in.q->num_atoms(); ++a) {
    if ((bag.atoms & (AtomMask(1) << a)) == 0) continue;
    ShareInput rel;
    rel.schema = in.q->atom(a).schema.Mask();
    rel.tuples = in.atom_tuples[size_t(a)];
    rel.bytes = rel.tuples * uint64_t(in.q->atom(a).schema.arity()) *
                sizeof(Value);
    rels.push_back(rel);
  }
  StatusOr<dist::ShareVector> share =
      OptimizeShares(rels, in.q->num_attrs(), in.cluster);
  if (!share.ok()) return std::numeric_limits<double>::infinity();
  return in.cost_model.CommSeconds(
      ShareCost(rels, *share, in.cluster.num_servers));
}

/// costM(v) given the shuffle part and |R_v|: the shuffle plus
/// producing the bag's output at the raw rate.
double CostM(const PlanningInputs& in, double comm, double bag_size) {
  return comm + in.cost_model.ExtendSeconds(std::max(1.0, bag_size), false);
}

/// costM(v): modeled pre-computing cost of bag v.
double CostM(const PlanningInputs& in, int v) {
  if (in.decomp->bags[size_t(v)].IsSingleAtom()) return 0.0;
  return CostM(in, CommM(in, v), in.estimate_bag_size(v, kNoCap).value);
}

/// The estimate size at which ExtendSeconds reaches `budget`: a
/// candidate whose estimate reaches it cannot beat the best cost.
/// Padded by a relative 1e-9 so an estimate at the cap clears the
/// budget despite rounding. No cap when the budget is not finite.
double CapFor(const CostModel& cm, double budget, bool fast) {
  if (!(budget < kNoCap)) return kNoCap;
  const double beta = fast ? cm.beta_precomputed : cm.beta_raw;
  return budget * beta * double(std::max(1, cm.num_servers)) * (1 + 1e-9);
}

/// Asks `estimate` for `key` under `cap`. `loses(value)` tells whether
/// a value already prices the candidate out. A bounded answer is kept
/// only when it does; otherwise (rounding put the cap a hair low) the
/// estimate is asked for again uncapped. So a value the search goes on
/// with is always uncapped.
template <typename Key, typename Loses>
double CappedEstimate(
    const std::function<Estimate(Key, double)>& estimate, Key key,
    double cap, const Loses& loses) {
  const Estimate e = estimate(key, cap);
  if (!e.bounded || loses(e.value)) return e.value;
  return estimate(key, kNoCap).value;
}

/// costE^i for the node at traversal position i (0-based): the cost of
/// extending through every fresh attribute the node contributes.
/// Leapfrog pays per *attribute level*, and inside a multi-attribute
/// node the partial bindings can explode between its levels (this is
/// where comm-first melts down on Q4–Q6), so we sum the per-level
/// entering binding counts |T(prev ∪ first j fresh attrs)|. A node
/// contributing no fresh attribute adds no level and costs nothing.
///
/// `base` is the candidate's cost before this term and `best` the cost
/// to beat. Each level's estimate is capped by the budget `best`
/// leaves after `base` and the earlier levels, and the sum stops once
/// `base` plus it reaches `best`: the candidate then loses whatever
/// the remaining levels add. An infinite `best` asks every estimate
/// uncapped and sums every level.
double CostE(const PlanningInputs& in, const std::vector<bool>& pre,
             AttrMask prev_attrs, int v, double base = 0.0,
             double best = kNoCap) {
  const AttrMask fresh = in.decomp->bags[size_t(v)].attrs & ~prev_attrs;
  if (fresh == 0) return 0.0;
  const bool fast = NodeFast(*in.decomp, pre, v);
  // Canonical within-node order for costing: ascending estimated
  // distinct count (DeriveOrder's fallback heuristic).
  std::vector<AttrId> attrs;
  for (int a = 0; a < in.q->num_attrs(); ++a) {
    if (fresh & (AttrMask(1) << a)) attrs.push_back(a);
  }
  std::stable_sort(attrs.begin(), attrs.end(), [&](AttrId x, AttrId y) {
    return in.estimate_distinct(x) < in.estimate_distinct(y);
  });
  const bool capped = best < kNoCap;
  double cost = 0.0;
  AttrMask mask = prev_attrs;
  for (AttrId a : attrs) {
    double bindings = 1.0;
    if (mask != 0) {
      const auto loses = [&](double b) {
        return base + (cost + in.cost_model.ExtendSeconds(
                                  std::max(1.0, b), fast)) >= best;
      };
      bindings = std::max(
          1.0, CappedEstimate(in.estimate_bindings, mask,
                              CapFor(in.cost_model, best - base - cost, fast),
                              loses));
    }
    cost += in.cost_model.ExtendSeconds(bindings, fast);
    if (capped && base + cost >= best) return cost;
    mask |= (AttrMask(1) << a);
  }
  return cost;
}

/// True if the bags in `mask` form a connected subtree of the join
/// tree (Alg. 2 line 6's validity condition on the remaining nodes).
bool BagsConnected(const ghd::Decomposition& d, uint32_t mask) {
  if (mask == 0) return true;
  const int k = d.num_bags();
  uint32_t visited = 1u << LowestBit(mask);
  bool grew = true;
  while (grew) {
    grew = false;
    for (int v = 0; v < k; ++v) {
      const uint32_t bit = 1u << v;
      if ((mask & bit) == 0 || (visited & bit) != 0) continue;
      for (int u : d.Neighbors(v)) {
        if (visited & (1u << u)) {
          visited |= bit;
          grew = true;
          break;
        }
      }
    }
  }
  return visited == (mask & visited) && visited == mask;
}

}  // namespace

PlanCost EvaluatePlan(const PlanningInputs& in,
                      const std::vector<bool>& precompute,
                      const std::vector<int>& traversal) {
  PlanCost cost;
  cost.comm = CostC(in, precompute);
  for (int v = 0; v < in.decomp->num_bags(); ++v) {
    if (precompute[size_t(v)]) cost.pre += CostM(in, v);
  }
  AttrMask prev = 0;
  for (size_t i = 0; i < traversal.size(); ++i) {
    const int v = traversal[i];
    cost.comp += CostE(in, precompute, prev, v);
    prev |= in.decomp->bags[size_t(v)].attrs;
  }
  return cost;
}

query::AttributeOrder DeriveOrder(const PlanningInputs& in,
                                  const std::vector<int>& traversal) {
  // Fresh attribute groups per traversed bag.
  std::vector<std::vector<AttrId>> groups;
  AttrMask seen = 0;
  for (int v : traversal) {
    const AttrMask fresh = in.decomp->bags[size_t(v)].attrs & ~seen;
    seen |= in.decomp->bags[size_t(v)].attrs;
    std::vector<AttrId> group;
    for (int a = 0; a < in.q->num_attrs(); ++a) {
      if (fresh & (AttrMask(1) << a)) group.push_back(a);
    }
    if (!group.empty()) groups.push_back(std::move(group));
  }

  if (!in.order_score) {
    // Fallback heuristic: within each bag, fewest candidate values
    // first.
    query::AttributeOrder order;
    for (std::vector<AttrId>& group : groups) {
      std::stable_sort(group.begin(), group.end(), [&](AttrId x, AttrId y) {
        return in.estimate_distinct(x) < in.estimate_distinct(y);
      });
      order.insert(order.end(), group.begin(), group.end());
    }
    return order;
  }

  // Scored selection: enumerate every order consistent with the
  // traversal (cartesian product of within-group permutations; the
  // paper's queries have tiny groups) and keep the best-scoring one.
  std::vector<query::AttributeOrder> candidates{{}};
  for (std::vector<AttrId>& group : groups) {
    std::vector<query::AttributeOrder> next;
    std::sort(group.begin(), group.end());
    do {
      for (const query::AttributeOrder& prefix : candidates) {
        query::AttributeOrder order = prefix;
        order.insert(order.end(), group.begin(), group.end());
        next.push_back(std::move(order));
      }
    } while (std::next_permutation(group.begin(), group.end()));
    candidates = std::move(next);
  }
  double best_score = std::numeric_limits<double>::infinity();
  query::AttributeOrder best = candidates.front();
  for (const query::AttributeOrder& order : candidates) {
    const double score = in.order_score(order);
    if (score < best_score) {
      best_score = score;
      best = order;
    }
  }
  return best;
}

StatusOr<QueryPlan> OptimizeAdaptivePlan(const PlanningInputs& in) {
  ADJ_CHECK(in.q != nullptr && in.decomp != nullptr);
  const ghd::Decomposition& d = *in.decomp;
  const int k = d.num_bags();
  if (k > 31) return Status::InvalidArgument("too many bags");

  std::vector<bool> pre(k, false);
  std::vector<int> reverse_order;  // built back to front (Alg. 2)
  uint32_t remaining = (k == 32) ? ~0u : ((1u << k) - 1);

  while (remaining != 0) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_v = -1;
    bool best_pre = false;
    int first_connected = -1;

    for (int v = 0; v < k; ++v) {
      const uint32_t bit = 1u << v;
      if ((remaining & bit) == 0) continue;
      const uint32_t rest = remaining & ~bit;
      // Line 6: the nodes still to be placed (which traverse *before*
      // v) must remain connected, otherwise no valid traversal exists.
      if (!BagsConnected(d, rest)) continue;
      if (first_connected < 0) first_connected = v;

      AttrMask prev_attrs = 0;
      for (int u = 0; u < k; ++u) {
        if (rest & (1u << u)) prev_attrs |= d.bags[size_t(u)].attrs;
      }

      // Not pre-computing v. Each candidate's cost is summed term by
      // term, and the candidate is dropped as soon as a partial sum
      // reaches best_cost (see OptimizeAdaptivePlan's doc).
      {
        const double comm = CostC(in, pre);
        const double cost =
            comm + CostE(in, pre, prev_attrs, v, comm, best_cost);
        if (cost < best_cost) {
          best_cost = cost;
          best_v = v;
          best_pre = false;
        }
      }
      // Pre-computing v (never for single-atom bags): |R_v| is asked
      // for under the cap at which costM(v) alone reaches best_cost,
      // and not at all when even a one-row bag would.
      if (!d.bags[size_t(v)].IsSingleAtom()) {
        const double comm_m = CommM(in, v);
        const auto loses = [&](double size) {
          return CostM(in, comm_m, size) >= best_cost;
        };
        if (loses(1.0)) continue;
        const double size = CappedEstimate(
            in.estimate_bag_size, v,
            CapFor(in.cost_model, best_cost - comm_m, false), loses);
        const double pre_cost = CostM(in, comm_m, size);
        if (pre_cost >= best_cost) continue;
        std::vector<bool> c = pre;
        c[size_t(v)] = true;
        const double base = pre_cost + CostC(in, c);
        if (base >= best_cost) continue;
        const double cost =
            base + CostE(in, c, prev_attrs, v, base, best_cost);
        if (cost < best_cost) {
          best_cost = cost;
          best_v = v;
          best_pre = true;
        }
      }
    }
    // Every candidate cost is infinite (or NaN) once estimation has
    // failed — e.g. the planning budget ran out mid-search. Any
    // connected choice still yields a valid plan; the caller decides
    // whether the budget overrun fails the request.
    if (best_v < 0) best_v = first_connected;
    if (best_v < 0) {
      return Status::Internal("Alg.2 found no extensible node");
    }
    pre[size_t(best_v)] = best_pre;
    reverse_order.push_back(best_v);
    remaining &= ~(1u << best_v);
  }

  QueryPlan plan;
  plan.decomp = d;
  plan.precompute = pre;
  plan.traversal.assign(reverse_order.rbegin(), reverse_order.rend());
  plan.order = DeriveOrder(in, plan.traversal);
  const PlanCost cost = EvaluatePlan(in, plan.precompute, plan.traversal);
  plan.est_precompute_s = cost.pre;
  plan.est_comm_s = cost.comm;
  plan.est_comp_s = cost.comp;
  return plan;
}

}  // namespace adj::optimizer
