#include "sampling/sketch_estimator.h"

#include <algorithm>
#include <limits>

#include "storage/index_cache.h"

namespace adj::sampling {

StatusOr<std::shared_ptr<const std::vector<Value>>> DistinctColumn(
    const storage::Catalog& db, const std::string& name, int col) {
  StatusOr<std::shared_ptr<const storage::Relation>> base = db.GetShared(name);
  if (!base.ok()) return base.status();
  const storage::Relation* rel = base->get();
  if (col < 0 || col >= rel->arity()) {
    return Status::InvalidArgument("distinct column out of range");
  }
  StatusOr<std::shared_ptr<const void>> artifact =
      db.index_cache().GetOrBuild(
          rel, "distinct:" + std::to_string(col), std::move(*base),
          [&](const storage::IndexCache::PatchBase*)
              -> StatusOr<storage::IndexCache::BuildResult> {
            auto values = std::make_shared<const std::vector<Value>>(
                rel->DistinctColumn(col));
            storage::IndexCache::BuildResult built;
            built.bytes = values->size() * sizeof(Value);
            built.artifact = std::move(values);
            built.statistic = true;
            return built;
          });
  if (!artifact.ok()) return artifact.status();
  return std::static_pointer_cast<const std::vector<Value>>(*artifact);
}

StatusOr<SketchEstimator> SketchEstimator::Build(
    const query::Query& q, const storage::Catalog& db,
    std::span<const uint64_t> atom_tuples) {
  SketchEstimator est;
  est.q_ = &q;
  est.sizes_.resize(q.num_atoms());
  est.distinct_.assign(q.num_atoms(),
                       std::vector<uint64_t>(q.num_attrs(), 0));
  const bool distinct_sizes = atom_tuples.size() == size_t(q.num_atoms());
  for (int i = 0; i < q.num_atoms(); ++i) {
    StatusOr<const storage::Relation*> base = db.Get(q.atom(i).relation);
    if (!base.ok()) return base.status();
    est.sizes_[size_t(i)] =
        distinct_sizes ? atom_tuples[size_t(i)] : (*base)->size();
    const storage::Schema& schema = q.atom(i).schema;
    for (int c = 0; c < schema.arity(); ++c) {
      StatusOr<std::shared_ptr<const std::vector<Value>>> column =
          DistinctColumn(db, q.atom(i).relation, c);
      if (!column.ok()) return column.status();
      est.distinct_[size_t(i)][size_t(schema.attr(c))] = (*column)->size();
    }
  }
  return est;
}

double SketchEstimator::EstimateJoin(AtomMask atoms) const {
  if (atoms == 0) return 1.0;
  double size = 1.0;
  for (int i = 0; i < q_->num_atoms(); ++i) {
    if (atoms & (AtomMask(1) << i)) size *= double(sizes_[size_t(i)]);
  }
  for (int a = 0; a < q_->num_attrs(); ++a) {
    std::vector<double> counts;
    for (int i = 0; i < q_->num_atoms(); ++i) {
      if ((atoms & (AtomMask(1) << i)) == 0) continue;
      if (distinct_[size_t(i)][size_t(a)] > 0) {
        counts.push_back(double(distinct_[size_t(i)][size_t(a)]));
      }
    }
    if (counts.size() < 2) continue;
    // Divide by the (c-1) largest distinct counts — the standard
    // containment-of-values assumption.
    std::sort(counts.rbegin(), counts.rend());
    for (size_t j = 0; j + 1 < counts.size(); ++j) {
      size /= std::max(1.0, counts[j]);
    }
  }
  return std::max(size, 0.0);
}

double SketchEstimator::EstimateBindings(AttrMask attrs) const {
  return EstimateJoin(AtomsWithin(attrs));
}

AtomMask SketchEstimator::AtomsWithin(AttrMask attrs) const {
  AtomMask atoms = 0;
  for (int i = 0; i < q_->num_atoms(); ++i) {
    if ((q_->atom(i).schema.Mask() & ~attrs) == 0) {
      atoms |= (AtomMask(1) << i);
    }
  }
  return atoms;
}

query::AttributeOrder SketchEstimator::ConnectedOrder(AtomMask atoms) const {
  AttrMask left = 0;
  for (int i = 0; i < q_->num_atoms(); ++i) {
    if (atoms & (AtomMask(1) << i)) left |= q_->atom(i).schema.Mask();
  }
  query::AttributeOrder order;
  AttrMask prefix = 0;
  while (left != 0) {
    // Attributes sharing one of the atoms with the prefix.
    AttrMask reach = 0;
    for (int i = 0; i < q_->num_atoms(); ++i) {
      const AttrMask schema = q_->atom(i).schema.Mask();
      if ((atoms & (AtomMask(1) << i)) != 0 && (schema & prefix) != 0) {
        reach |= schema;
      }
    }
    reach &= left;
    if (reach == 0) reach = left;  // first attribute, or a new component
    AttrId best = -1;
    double best_score = std::numeric_limits<double>::infinity();
    for (AttrId a = 0; a < q_->num_attrs(); ++a) {
      if ((reach & (AttrMask(1) << a)) == 0) continue;
      const double score =
          EstimateJoin(AtomsWithin(prefix | (AttrMask(1) << a)) & atoms);
      if (best < 0 || score < best_score) {
        best = a;
        best_score = score;
      }
    }
    order.push_back(best);
    prefix |= AttrMask(1) << best;
    left &= ~(AttrMask(1) << best);
  }
  return order;
}

}  // namespace adj::sampling
