#ifndef ADJ_SAMPLING_SKETCH_ESTIMATOR_H_
#define ADJ_SAMPLING_SKETCH_ESTIMATOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/attribute_order.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace adj::sampling {

/// Sorted distinct values of column `col` of the catalog's relation
/// `name`: an IndexCache artifact keyed by (relation, column) and
/// pinned to the base. Every plan against one relation version shares
/// one Relation::DistinctColumn (a copy and a sort), and a write that
/// replaces the relation releases it. The artifact is the value list
/// itself, not a trie root: a trie rooted at the column would be a
/// whole index of the relation.
StatusOr<std::shared_ptr<const std::vector<Value>>> DistinctColumn(
    const storage::Catalog& db, const std::string& name, int col);

/// Classic sketch-based (System-R style) cardinality estimator: per
/// attribute distinct counts with uniformity + independence
/// assumptions. Included as the baseline Sec. IV argues against —
/// its error on cyclic joins is orders of magnitude worse than
/// sampling — and as the cheap order-selection proxy the HCubeJ
/// (comm-first) baseline uses.
class SketchEstimator {
 public:
  /// Distinct counts come from DistinctColumn. Atom sizes come from
  /// `atom_tuples` when it holds one count per atom (distinct tuple
  /// counts, e.g. SampleEstimate::atom_tuples), else from the bases'
  /// row counts, which also count duplicate rows.
  static StatusOr<SketchEstimator> Build(
      const query::Query& q, const storage::Catalog& db,
      std::span<const uint64_t> atom_tuples = {});

  /// Estimated size of the join of the atoms in `atoms`:
  ///   prod |R_i| / prod_A (product of the largest (c_A - 1) distinct
  ///   counts of A among the joined atoms)
  /// — the independence/inclusion heuristic of [17].
  double EstimateJoin(AtomMask atoms) const;

  /// Estimated join size of all atoms whose schema is contained in
  /// `attrs` — the binding-count proxy for order selection.
  double EstimateBindings(AttrMask attrs) const;

  /// A connected order of the attributes of the atoms in `atoms`:
  /// every attribute after the first shares one of those atoms with
  /// the attributes before it (a disconnected set of atoms starts a
  /// new component only once the current one is used up). Built
  /// greedily: each step appends the reachable attribute whose prefix
  /// has the fewest estimated bindings, counting only the atoms in
  /// `atoms`; ties go to the lowest attribute id.
  query::AttributeOrder ConnectedOrder(AtomMask atoms) const;

  uint64_t distinct(int atom, AttrId a) const {
    return distinct_[size_t(atom)][size_t(a)];
  }
  uint64_t atom_size(int atom) const { return sizes_[size_t(atom)]; }

 private:
  /// Atoms whose schema is contained in `attrs`.
  AtomMask AtomsWithin(AttrMask attrs) const;

  const query::Query* q_ = nullptr;
  std::vector<uint64_t> sizes_;                 // per atom
  std::vector<std::vector<uint64_t>> distinct_; // per atom per attr (0 if absent)
};

}  // namespace adj::sampling

#endif  // ADJ_SAMPLING_SKETCH_ESTIMATOR_H_
