#include "query/hypergraph.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace adj::query {

Hypergraph::Hypergraph(const Query& q) : num_vertices_(q.num_attrs()) {
  edges_.reserve(q.num_atoms());
  for (const Atom& atom : q.atoms()) edges_.push_back(atom.schema.Mask());
}

bool Hypergraph::EdgesConnected(AtomMask edge_set) const {
  if (edge_set == 0) return true;
  AtomMask visited = AtomMask(1) << LowestBit(edge_set);
  AttrMask frontier = edges_[LowestBit(edge_set)];
  bool grew = true;
  while (grew) {
    grew = false;
    for (int e = 0; e < num_edges(); ++e) {
      AtomMask bit = AtomMask(1) << e;
      if ((edge_set & bit) == 0 || (visited & bit) != 0) continue;
      if ((edges_[e] & frontier) != 0) {
        visited |= bit;
        frontier |= edges_[e];
        grew = true;
      }
    }
  }
  return visited == edge_set;
}

bool Hypergraph::GyoAcyclic(std::span<const AttrMask> edge_masks,
                            int* parent) {
  const int m = static_cast<int>(edge_masks.size());
  // Working copies, shrunk over time, and the alive edges as a mask.
  ADJ_CHECK(m <= 32) << "GyoAcyclic takes at most 32 edges";
  std::array<AttrMask, 32> cur{};
  std::copy(edge_masks.begin(), edge_masks.end(), cur.begin());
  AtomMask alive = m == 32 ? ~AtomMask(0) : (AtomMask(1) << m) - 1;
  if (parent != nullptr) std::fill(parent, parent + m, -1);
  int alive_count = m;

  bool progressed = true;
  while (progressed && alive_count > 1) {
    progressed = false;
    // Rule 1: delete vertices that occur in exactly one edge.
    for (int e = 0; e < m; ++e) {
      if ((alive & (AtomMask(1) << e)) == 0) continue;
      AttrMask exclusive = cur[e];
      for (int f = 0; f < m; ++f) {
        if (f != e && (alive & (AtomMask(1) << f)) != 0) {
          exclusive &= ~cur[f];
        }
      }
      if (exclusive != 0) {
        cur[e] &= ~exclusive;
        progressed = true;
      }
    }
    // Rule 2: delete an edge contained in another edge ("ear").
    for (int e = 0; e < m && alive_count > 1; ++e) {
      if ((alive & (AtomMask(1) << e)) == 0) continue;
      for (int f = 0; f < m; ++f) {
        if (f == e || (alive & (AtomMask(1) << f)) == 0) continue;
        if ((cur[e] & ~cur[f]) == 0) {
          alive &= ~(AtomMask(1) << e);
          --alive_count;
          if (parent != nullptr) parent[e] = f;
          progressed = true;
          break;
        }
      }
    }
  }
  // Each removed ear was parented to a then-alive edge, so the parent
  // links already form a tree rooted at the last alive edge.
  return alive_count <= 1;
}

AttrMask Hypergraph::VerticesOf(AtomMask edge_set) const {
  AttrMask mask = 0;
  for (int e = 0; e < num_edges(); ++e) {
    if (edge_set & (AtomMask(1) << e)) mask |= edges_[e];
  }
  return mask;
}

}  // namespace adj::query
