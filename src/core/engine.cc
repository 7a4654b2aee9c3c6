#include "core/engine.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/timer.h"
#include "core/strategy_registry.h"
#include "exec/hcubej.h"
#include "exec/precompute.h"
#include "ghd/decomposition.h"
#include "optimizer/explain.h"
#include "sampling/sampler.h"
#include "sampling/sketch_estimator.h"
#include "wcoj/naive_join.h"

namespace adj::core {
namespace {

/// Exact |val(A)|: intersection of the A-projections over the atoms
/// containing A (cheap; one sorted-set intersection per atom).
StatusOr<uint64_t> ValDistinct(const query::Query& q,
                               const storage::Catalog& db, AttrId a) {
  std::vector<Value> acc;
  bool first = true;
  for (const query::Atom& atom : q.atoms()) {
    const int pos = atom.schema.PositionOf(a);
    if (pos < 0) continue;
    StatusOr<const storage::Relation*> base = db.Get(atom.relation);
    if (!base.ok()) return base.status();
    std::vector<Value> vals = (*base)->DistinctColumn(pos);
    if (first) {
      acc = std::move(vals);
      first = false;
    } else {
      std::vector<Value> merged;
      std::set_intersection(acc.begin(), acc.end(), vals.begin(), vals.end(),
                            std::back_inserter(merged));
      acc = std::move(merged);
    }
  }
  if (first) return Status::InvalidArgument("attribute in no atom");
  return static_cast<uint64_t>(acc.size());
}

/// Sub-query restricted to the atoms in `mask`.
query::Query SubQuery(const query::Query& q, AtomMask mask) {
  std::vector<query::Atom> atoms;
  for (int i = 0; i < q.num_atoms(); ++i) {
    if (mask & (AtomMask(1) << i)) atoms.push_back(q.atom(i));
  }
  return query::Query::Make(q.attr_names(), std::move(atoms));
}

/// Atoms of `q` whose schema is contained in `attrs`.
AtomMask AtomsWithin(const query::Query& q, AttrMask attrs) {
  AtomMask mask = 0;
  for (int i = 0; i < q.num_atoms(); ++i) {
    if ((q.atom(i).schema.Mask() & ~attrs) == 0) mask |= (AtomMask(1) << i);
  }
  return mask;
}

/// Ascending-attribute order covering a sub-query.
query::AttributeOrder AscendingOrder(const query::Query& sub) {
  AttrMask attrs = 0;
  for (const query::Atom& atom : sub.atoms()) attrs |= atom.schema.Mask();
  query::AttributeOrder order;
  for (int a = 0; a < sub.num_attrs(); ++a) {
    if (attrs & (AttrMask(1) << a)) order.push_back(a);
  }
  return order;
}

/// Shared estimation state for one planning run: memoizes sub-query
/// cardinalities keyed by atom mask.
class EstimationContext {
 public:
  /// `timer` is the planning run's clock; sub-query sampling stops
  /// issuing work once it passes `budget_seconds` on that clock (the
  /// plan search itself is cheap — sampling is where planning time
  /// goes, so bounding the estimate callbacks bounds the search).
  EstimationContext(const query::Query& q, const storage::Catalog& db,
                    const EngineOptions& options, const WallTimer& timer,
                    double budget_seconds)
      : q_(q),
        db_(db),
        options_(options),
        timer_(timer),
        budget_seconds_(budget_seconds) {}

  /// Estimated size of the join of the atoms in `mask` (1.0 if empty).
  double JoinSize(AtomMask mask) {
    if (mask == 0) return 1.0;
    auto it = cache_.find(mask);
    if (it != cache_.end()) return it->second;
    double size;
    if (options_.use_exact_estimates) {
      StatusOr<storage::Relation> exact = wcoj::NaiveJoin(
          SubQuery(q_, mask), db_, options_.limits.max_extensions);
      size = exact.ok() ? double(exact->size())
                        : std::numeric_limits<double>::infinity();
    } else {
      const double remaining = budget_seconds_ - timer_.Seconds();
      if (remaining <= 0) {
        // Planning budget gone: no more sampling. Infinity is the
        // conservative "unknown, assume huge" the search already
        // handles for failed estimates; Plan's final checkpoint will
        // turn the exhausted budget into DeadlineExceeded regardless.
        size = std::numeric_limits<double>::infinity();
        cache_[mask] = size;
        return size;
      }
      query::Query sub = SubQuery(q_, mask);
      sampling::SamplerOptions sopts;
      // Sub-queries are cheaper than the full query; a fraction of the
      // sample budget suffices for plan-quality decisions.
      sopts.num_samples = std::max<uint64_t>(options_.num_samples / 8, 32);
      sopts.seed = options_.seed ^ (uint64_t(mask) * 0x9E3779B97F4A7C15ULL);
      sopts.per_sample_limits = options_.limits;
      sopts.distributed = false;  // the one-time reduction is accounted
                                  // by the main sampling pass
      sopts.max_total_seconds = remaining;
      StatusOr<sampling::SampleEstimate> est = sampling::SampleCardinality(
          sub, db_, AscendingOrder(sub), sopts, options_.cluster.net,
          options_.cluster.num_servers);
      size = est.ok() ? est->cardinality
                      : std::numeric_limits<double>::infinity();
      sampling_seconds_ += est.ok() ? est->seconds : 0.0;
    }
    cache_[mask] = size;
    return size;
  }

  double Distinct(AttrId a) {
    auto it = distinct_.find(a);
    if (it != distinct_.end()) return it->second;
    StatusOr<uint64_t> v = ValDistinct(q_, db_, a);
    const double d = v.ok() ? double(*v) : 1.0;
    distinct_[a] = d;
    return d;
  }

  void Seed(AtomMask mask, double size) { cache_[mask] = size; }

  double sampling_seconds() const { return sampling_seconds_; }

 private:
  const query::Query& q_;
  const storage::Catalog& db_;
  const EngineOptions& options_;
  const WallTimer& timer_;
  double budget_seconds_;
  std::map<AtomMask, double> cache_;
  std::map<AttrId, double> distinct_;
  double sampling_seconds_ = 0.0;
};

}  // namespace

namespace {

/// Order score shared by the comm-first baseline (over all orders) and
/// ADJ's valid-order selection: total estimated intermediate bindings
/// across the order's prefixes.
double SketchOrderScore(const sampling::SketchEstimator& sketch,
                        const query::AttributeOrder& order) {
  double score = 0.0;
  AttrMask prefix = 0;
  for (AttrId a : order) {
    prefix |= (AttrMask(1) << a);
    score += sketch.EstimateBindings(prefix);
  }
  return score;
}

}  // namespace

StatusOr<query::AttributeOrder> Engine::SelectCommFirstOrder(
    const query::Query& q) const {
  StatusOr<sampling::SketchEstimator> sketch =
      sampling::SketchEstimator::Build(q, *db_);
  if (!sketch.ok()) return sketch.status();
  double best_score = std::numeric_limits<double>::infinity();
  query::AttributeOrder best;
  for (const query::AttributeOrder& order :
       query::AllOrders(q.AllAttrs())) {
    const double score = SketchOrderScore(*sketch, order);
    if (score < best_score) {
      best_score = score;
      best = order;
    }
  }
  if (best.empty()) return Status::Internal("no order found");
  return best;
}

StatusOr<PlanResult> Engine::Plan(const query::Query& q,
                                  const EngineOptions& options) {
  ADJ_RETURN_IF_ERROR(ValidateOptions(options));
  WallTimer timer;
  PlanResult result;

  // Deadline-bounded planning: the budget is checked at the stage
  // boundaries below, and the sampling passes (the dominant cost) are
  // themselves clock-bounded to the remaining budget. A request that
  // cannot plan in time gets DeadlineExceeded here — before any join
  // work — with the stage it died in.
  const double budget = options.planning_budget_seconds;
  auto CheckBudget = [&](const char* stage) -> Status {
    if (timer.Seconds() < budget) return Status::OK();
    return Status::DeadlineExceeded(std::string("planning budget (") +
                                    std::to_string(budget) +
                                    "s) exhausted during " + stage);
  };
  if (budget <= 0) return Status::DeadlineExceeded("planning budget is zero");

  StatusOr<ghd::Decomposition> decomp = ghd::FindOptimalGhd(q);
  if (!decomp.ok()) return decomp.status();
  ADJ_RETURN_IF_ERROR(CheckBudget("GHD search"));

  // Main sampling pass over the full query: cardinality + beta_raw +
  // the modeled reduced-database shuffle of Sec. IV. Sample under a
  // hypertree-valid order — pinned Leapfrogs inherit the same
  // intermediate-explosion risk as full ones, and valid orders bound
  // it (Sec. III-A).
  query::AttributeOrder sampling_order = AscendingOrder(q);
  {
    std::vector<query::AttributeOrder> valid =
        ghd::ValidAttributeOrders(*decomp, q);
    if (!valid.empty()) sampling_order = valid.front();
  }
  sampling::SamplerOptions sopts;
  sopts.num_samples = options.num_samples;
  sopts.seed = options.seed;
  sopts.per_sample_limits = options.limits;
  sopts.distributed = true;
  sopts.max_total_seconds = budget - timer.Seconds();
  StatusOr<sampling::SampleEstimate> full_est = sampling::SampleCardinality(
      q, *db_, sampling_order, sopts, options.cluster.net,
      options.cluster.num_servers);
  if (full_est.ok()) {
    result.sampling_comm_s = full_est->comm.seconds;
    result.beta_raw = full_est->beta_extensions_per_s;
  }
  ADJ_RETURN_IF_ERROR(CheckBudget("cardinality sampling"));

  EstimationContext ctx(q, *db_, options, timer, budget);
  if (full_est.ok()) {
    // The full-query cardinality is already estimated; seed the
    // sub-query cache so Alg. 2 does not re-sample it.
    ctx.Seed((AtomMask(1) << q.num_atoms()) - 1, full_est->cardinality);
  }

  optimizer::PlanningInputs in;
  in.q = &q;
  in.decomp = &decomp.value();
  in.cluster = options.cluster;
  in.cost_model.net = options.cluster.net;
  in.cost_model.num_servers = options.cluster.num_servers;
  // Calibrate against the largest index this query binds, under the
  // sampling order's key — the artifact the sampling pass above just
  // resolved through the shared cache, so the probe reuses it rather
  // than building anything (the measured rate is memoized per trie).
  ADJ_RETURN_IF_ERROR(CheckBudget("plan-search setup"));
  in.cost_model.beta_precomputed =
      options.beta_precomputed_override > 0
          ? options.beta_precomputed_override
          : optimizer::CalibrateBetaPrecomputed(*db_, q, sampling_order);
  if (options.beta_raw_override > 0) {
    in.cost_model.beta_raw = options.beta_raw_override;
  } else if (result.beta_raw > 1.0) {
    in.cost_model.beta_raw =
        std::min(result.beta_raw, in.cost_model.beta_precomputed);
  }
  for (const query::Atom& atom : q.atoms()) {
    StatusOr<const storage::Relation*> base = db_->Get(atom.relation);
    if (!base.ok()) return base.status();
    in.atom_tuples.push_back((*base)->size());
  }
  in.estimate_bindings = [&](AttrMask attrs) {
    return ctx.JoinSize(AtomsWithin(q, attrs));
  };
  in.estimate_bag_size = [&](int v) {
    return ctx.JoinSize(decomp->bags[size_t(v)].atoms);
  };
  in.estimate_distinct = [&](AttrId a) { return ctx.Distinct(a); };
  StatusOr<sampling::SketchEstimator> sketch =
      sampling::SketchEstimator::Build(q, *db_);
  if (sketch.ok()) {
    in.order_score = [&](const query::AttributeOrder& order) {
      return SketchOrderScore(*sketch, order);
    };
  }

  StatusOr<optimizer::QueryPlan> plan =
      options.use_exhaustive_planner ? optimizer::OptimizeExhaustivePlan(in)
                                     : optimizer::OptimizeAdaptivePlan(in);
  // Checked before the plan's own status: estimates turn infinite once
  // the budget is spent, so a blown budget reports DeadlineExceeded.
  ADJ_RETURN_IF_ERROR(CheckBudget("plan search"));
  if (!plan.ok()) return plan.status();
  result.plan = std::move(plan.value());
  result.explanation = optimizer::ExplainPlan(in, result.plan);
  result.optimize_s = timer.Seconds() + result.sampling_comm_s;
  return result;
}

StatusOr<exec::RunReport> Engine::RunCoOpt(const query::Query& q,
                                           const EngineOptions& options) {
  StatusOr<PlanResult> planned = Plan(q, options);
  if (!planned.ok()) return planned.status();
  StatusOr<exec::RunReport> report = ExecutePlan(q, planned->plan, options);
  if (!report.ok()) return report;
  report->optimize_s = planned->optimize_s;
  return report;
}

StatusOr<ExecutionContext> Engine::PrepareExecution(
    const query::Query& q, const optimizer::QueryPlan& plan,
    const EngineOptions& options, const PrepareReuse* reuse) {
  ExecutionContext ctx;
  ctx.order = plan.order;
  ctx.plan_description = plan.ToString(q);
  // The execution catalog shares the engine catalog's index cache, so
  // binds against aliased bases resolve to the indexes every other
  // consumer of this catalog already built (and vice versa).
  ctx.db.ShareIndexCacheWith(*db_);
  // Delta merges are counted cache-wide at the moment a patch is
  // consumed, which may happen inside bag materialization rather than
  // the pinning binds below — snapshot now so the whole prepare's
  // merge work can be attributed to this context.
  const uint64_t merged_before = db_->index_cache().stats().delta_rows_merged;

  // Build the execution catalog: the base relations the rewritten
  // query still references are aliased — shared, never copied — from
  // the engine's catalog, so preparing (and every later run) is
  // O(query) in base-relation cost. Bases and bags are queued into one
  // batch, applied once, so the shared index cache is swept once.
  exec::RewrittenQuery rewritten =
      exec::RewriteWithBags(q, plan.decomp, plan.precompute);
  storage::WriteBatch writes;
  std::set<std::string> aliased;
  for (const query::Atom& atom : rewritten.query.atoms()) {
    if (atom.relation.rfind("__bag", 0) == 0 ||
        !aliased.insert(atom.relation).second) {
      continue;
    }
    StatusOr<std::shared_ptr<const storage::Relation>> base =
        db_->GetShared(atom.relation);
    if (!base.ok()) return base.status();
    writes.Create(atom.relation, std::move(*base));
  }
  ctx.query = std::move(rewritten.query);

  // Materialize the plan's pre-computed bags exactly once; their cost
  // is the context's to hand out (first-run attribution).
  dist::Cluster cluster(options.cluster);
  for (const auto& [name, bag_index] : rewritten.bag_atoms) {
    // Delta-aware reuse: a bag whose source atoms all kept their
    // content since `reuse->prev` was built is the same relation —
    // alias it (and its resident charge) instead of re-materializing.
    // Its one-time cost was charged to the previous context's runs, so
    // nothing is added to this context's precompute bill.
    if (reuse != nullptr && reuse->prev != nullptr &&
        reuse->prev->db.Contains(name)) {
      const ghd::Bag& source = plan.decomp.bags[size_t(bag_index)];
      bool unchanged = true;
      for (int i = 0; i < q.num_atoms(); ++i) {
        if (((source.atoms >> i) & 1) != 0 &&
            reuse->changed.count(q.atom(i).relation) > 0) {
          unchanged = false;
          break;
        }
      }
      if (unchanged) {
        StatusOr<std::shared_ptr<const storage::Relation>> prior =
            reuse->prev->db.GetShared(name);
        if (!prior.ok()) return prior.status();
        ctx.bag_bytes += (*prior)->SizeBytes();
        writes.Create(name, std::move(*prior));
        continue;
      }
    }
    StatusOr<exec::PrecomputeResult> bag = exec::MaterializeBag(
        q, *db_, plan.decomp.bags[size_t(bag_index)], &cluster,
        options.limits);
    if (!bag.ok()) {
      ctx.precompute_status = bag.status();
      break;
    }
    ctx.precompute_s += bag->comm_s + bag->comp_s +
                        options.cluster.net.stage_overhead_s;
    ctx.precompute_comm.Add(bag->comm);
    ctx.bag_bytes += bag->rel.SizeBytes();
    writes.Create(name, std::move(bag->rel));
  }
  ADJ_RETURN_IF_ERROR(ctx.db.Apply(writes));
  if (!ctx.precompute_status.ok()) return ctx;

  // Pin the bound-atom indexes the final join will request (bases and
  // bags alike): they are built now, shared through the cache, and the
  // handles keep them resident for as long as this context lives — no
  // run of this context rebuilds them.
  storage::IndexBuildStats pin_stats;
  StatusOr<std::vector<exec::BoundAtom>> bound =
      exec::BindAtomsForOrder(ctx.query, ctx.db, ctx.order, &pin_stats);
  if (!bound.ok()) return bound.status();
  StatusOr<dist::ShareVector> share =
      exec::OptimalShares(ctx.query, *bound, options.cluster);
  if (!share.ok()) return share.status();
  ctx.share = std::move(*share);
  // Delta patches applied while preparing are the write's amortized
  // index cost — surfaced on the first run, like the bag cost above.
  // The rows-layer merge may be triggered by bag materialization (its
  // binds take no per-call stats), so merge volume comes from the
  // cache-wide counter's delta across this prepare.
  ctx.prepare_index_patched = pin_stats.patched;
  ctx.prepare_delta_rows =
      db_->index_cache().stats().delta_rows_merged - merged_before;
  // Resident accounting dedups by physical payload: labeled binds of
  // one permutation alias a single rows buffer + trie in the cache
  // (e.g. the triangle query's three G bindings), so the footprint is
  // counted once, not per labeling.
  std::set<const void*> counted;
  for (exec::BoundAtom& b : *bound) {
    if (b.index->rel != nullptr &&
        counted.insert(b.index->rel->RowsIdentity()).second) {
      ctx.pinned_index_bytes += b.index->rel->SizeBytes();
    }
    if (b.index->trie != nullptr &&
        counted.insert(b.index->trie.get()).second) {
      // ResidentBytes, not logical values: block-compressed levels pin
      // only their encoded footprint.
      ctx.pinned_index_bytes += b.index->trie->ResidentBytes();
    }
    ctx.pinned_indexes.push_back(std::move(b.index));
  }
  return ctx;
}

StatusOr<exec::RunReport> Engine::RunPrepared(const ExecutionContext& ctx,
                                              const EngineOptions& options) {
  exec::RunReport report;
  if (!ctx.precompute_status.ok()) {
    report.status = ctx.precompute_status;
  } else {
    // Final one-round join of the rewritten query under the plan order.
    dist::Cluster cluster(options.cluster);
    exec::HCubeJParams params;
    params.share = ctx.share;
    params.variant = options.hcube_variant;
    params.limits = options.limits;
    StatusOr<exec::HCubeJOutput> run =
        exec::RunHCubeJ(ctx.query, ctx.db, ctx.order, params, &cluster);
    if (run.ok()) {
      report = std::move(run->report);
    } else {
      report.status = run.status();
    }
  }
  report.method = "ADJ";
  report.plan_description = ctx.plan_description;
  report.rounds = 1;
  return report;
}

StatusOr<exec::RunReport> Engine::ExecutePlan(const query::Query& q,
                                              const optimizer::QueryPlan& plan,
                                              const EngineOptions& options) {
  StatusOr<ExecutionContext> ctx = PrepareExecution(q, plan, options);
  if (!ctx.ok()) return ctx.status();
  StatusOr<exec::RunReport> report = RunPrepared(*ctx, options);
  if (!report.ok()) return report;
  ctx->ChargePrecompute(&report.value());
  return report;
}

StatusOr<exec::RunReport> Engine::RunCommFirst(const query::Query& q,
                                               const EngineOptions& options,
                                               bool cached) {
  WallTimer timer;
  StatusOr<query::AttributeOrder> order = SelectCommFirstOrder(q);
  if (!order.ok()) return order.status();
  const double optimize_s = timer.Seconds();

  dist::Cluster cluster(options.cluster);
  exec::HCubeJParams params;
  params.variant = options.hcube_variant;
  params.limits = options.limits;
  params.use_cache = cached;
  StatusOr<exec::HCubeJOutput> run =
      exec::RunHCubeJ(q, *db_, *order, params, &cluster);
  if (!run.ok()) return run.status();
  exec::RunReport report = std::move(run->report);
  report.optimize_s = optimize_s;
  report.plan_description =
      "ord=" + query::OrderToString(*order, q) +
      " p=" + run->share_used.ToString();
  return report;
}

StatusOr<exec::RunReport> Engine::Run(const query::Query& q, Strategy s,
                                      const EngineOptions& options) {
  return Run(q, StrategyName(s), options);
}

StatusOr<exec::RunReport> Engine::Run(const query::Query& q,
                                      const std::string& strategy,
                                      const EngineOptions& options) {
  ADJ_RETURN_IF_ERROR(ValidateOptions(options));
  StatusOr<StrategyFn> fn = StrategyRegistry::Global().Find(strategy);
  if (!fn.ok()) return fn.status();
  return (*fn)(*this, q, options);
}

}  // namespace adj::core
