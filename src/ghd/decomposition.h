#ifndef ADJ_GHD_DECOMPOSITION_H_
#define ADJ_GHD_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/attribute_order.h"
#include "query/hypergraph.h"
#include "query/query.h"

namespace adj::ghd {

/// One hypernode of the hypertree T (Sec. III-A): a set of atoms whose
/// join is the bag's candidate pre-computed relation R_v.
struct Bag {
  AtomMask atoms = 0;   // atoms assigned to this bag
  AttrMask attrs = 0;   // union of their schemas
  double rho = 0.0;     // fractional edge cover of attrs by the atoms
  /// True when the bag is a single original atom — nothing to
  /// pre-compute ("there is no need to join", Example 3).
  bool IsSingleAtom() const { return PopCount(atoms) == 1; }
};

/// A generalized hypertree decomposition of a query: bags plus a join
/// tree satisfying the running-intersection property. `width` is
/// max over bags of rho — the fhw of this decomposition, bounding every
/// pre-computed relation by |Rmax|^width.
struct Decomposition {
  std::vector<Bag> bags;
  std::vector<int> parent;  // join-tree parent per bag; -1 at the root
  double width = 0.0;

  int num_bags() const { return static_cast<int>(bags.size()); }
  /// Bags adjacent to `v` in the join tree.
  std::vector<int> Neighbors(int v) const;
  std::string ToString(const query::Query& q) const;
};

/// Finds the optimal hypertree T for a query by exhaustive
/// partition search (the paper's queries have <= 10 atoms, so the Bell
/// number B(10) = 115975 of candidate partitions is tractable):
/// every partition of the atom set into connected groups whose grouped
/// schemas form an alpha-acyclic hypergraph is a GHD candidate; we keep
/// the one with (1) minimal width, (2) most bags, (3) minimal total
/// rho, matching Sec. III-A's "maximal size of the pre-computed
/// relation of each hypernode is minimal".
///
/// The result depends only on the query's shape (the attribute count
/// and the atoms' attribute masks), so it is memoized process-wide by
/// shape: a repeated shape is a lookup under a mutex. The memo keeps a
/// bounded number of shapes.
StatusOr<Decomposition> FindOptimalGhd(const query::Query& q);

/// The search behind FindOptimalGhd, run afresh on every call.
StatusOr<Decomposition> SearchOptimalGhd(const query::Query& q);

/// All traversal orders of the decomposition's bags: permutations in
/// which every prefix is connected in the join tree (the validity
/// condition of Alg. 2 line 6).
std::vector<std::vector<int>> TraversalOrders(const Decomposition& d);

/// All *valid* attribute orders derived from the decomposition
/// (Sec. III-A): for some traversal order v1..vk, the attributes first
/// appearing in vi all precede those first appearing in vj for i < j;
/// within a bag any permutation is allowed.
std::vector<query::AttributeOrder> ValidAttributeOrders(
    const Decomposition& d, const query::Query& q);

/// True if `order` is a valid attribute order for the decomposition.
bool IsValidOrder(const Decomposition& d, const query::Query& q,
                  const query::AttributeOrder& order);

/// Splits an attribute order into consecutive segments per traversed
/// bag: seg[i] = number of order positions whose attribute first
/// appears in the i-th traversed bag. Returns empty if the order is
/// not valid for the decomposition.
std::vector<int> OrderBagSegments(const Decomposition& d,
                                  const query::Query& q,
                                  const query::AttributeOrder& order);

}  // namespace adj::ghd

#endif  // ADJ_GHD_DECOMPOSITION_H_
