#ifndef ADJ_QUERY_HYPERGRAPH_H_
#define ADJ_QUERY_HYPERGRAPH_H_

#include <span>
#include <vector>

#include "common/types.h"
#include "query/query.h"

namespace adj::query {

/// Hypergraph H = (V, E) of a join query (Sec. II): one vertex per
/// attribute, one hyperedge (attribute mask) per atom.
class Hypergraph {
 public:
  explicit Hypergraph(const Query& q);
  Hypergraph(int num_vertices, std::vector<AttrMask> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const std::vector<AttrMask>& edges() const { return edges_; }
  AttrMask edge(int i) const { return edges_[i]; }

  /// True if the sub-hypergraph induced by the edges in `edge_set`
  /// is connected (edges sharing a vertex are adjacent).
  bool EdgesConnected(AtomMask edge_set) const;

  /// GYO (Graham–Yu–Ozsoyoglu) reduction over at most 32 edge masks.
  /// Returns true iff the hypergraph they form is alpha-acyclic; when
  /// acyclic and `parent` != nullptr, fills a join-tree parent index
  /// per edge (-1 for the root) satisfying the running-intersection
  /// property. `parent` has room for one entry per edge. Allocates
  /// nothing.
  static bool GyoAcyclic(std::span<const AttrMask> edge_masks, int* parent);

  /// Vertices (as a mask) covered by the edges in `edge_set`.
  AttrMask VerticesOf(AtomMask edge_set) const;

 private:
  int num_vertices_ = 0;
  std::vector<AttrMask> edges_;
};

}  // namespace adj::query

#endif  // ADJ_QUERY_HYPERGRAPH_H_
