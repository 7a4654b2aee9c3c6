#include "ghd/decomposition.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <utility>

#include "ghd/fractional_edge_cover.h"

namespace adj::ghd {
namespace {

constexpr double kWidthEps = 1e-6;
// The search enumerates Bell(m) partitions; 12 atoms is ~4.2M of them.
constexpr int kMaxAtoms = 12;
// FindOptimalGhd's memo holds at most this many query shapes; a full
// memo starts over.
constexpr size_t kMemoShapes = 256;

/// One partition's decomposition: group g's atoms, bag attributes,
/// rho and join-tree parent at index g.
struct Candidate {
  int groups = 0;
  std::array<AtomMask, kMaxAtoms> atoms{};
  std::array<AttrMask, kMaxAtoms> attrs{};
  std::array<double, kMaxAtoms> rho{};
  std::array<int, kMaxAtoms> parent{};
  double width = 0.0;
  double total_rho = 0.0;
};

/// Lexicographic better-than: min width, then max bag count, then min
/// total rho (finer decompositions give the optimizer more candidate
/// relations at the same worst-case bound).
bool Better(const Candidate& a, const Candidate& b) {
  if (a.width < b.width - kWidthEps) return true;
  if (a.width > b.width + kWidthEps) return false;
  if (a.groups != b.groups) return a.groups > b.groups;
  return a.total_rho < b.total_rho - kWidthEps;
}

/// Exhaustive partition search over the atoms. Every partition of
/// {0..m-1} is visited once, in restricted-growth-string order, with
/// its groups kept as atom masks that grow and shrink one atom at a
/// time. Per-group facts are looked up in dense tables indexed by atom
/// mask, so scoring a partition allocates nothing. A partition is
/// ranked before its acyclicity test: one that cannot beat the best so
/// far skips the GYO reduction, and the first best partition in
/// enumeration order still wins.
class PartitionSearch {
 public:
  explicit PartitionSearch(const query::Hypergraph& h)
      : h_(h),
        m_(h.num_edges()),
        vertices_(size_t(1) << m_, 0),
        connected_(size_t(1) << m_, 0),
        rho_(size_t(1) << m_, kUnsolved) {
    for (AtomMask mask = 1; mask < (AtomMask(1) << m_); ++mask) {
      vertices_[mask] =
          vertices_[mask & (mask - 1)] | h.edge(LowestBit(mask));
      connected_[mask] = h.EdgesConnected(mask) ? 1 : 0;
    }
  }

  /// Visits every partition; true if some partition is a GHD.
  bool Run() {
    Extend(0, 0);
    return found_;
  }
  const Candidate& best() const { return best_; }
  const Status& lp_error() const { return lp_error_; }

 private:
  static constexpr double kUnsolved = -2.0;  // rho_ entry not solved yet

  /// Places atom i into each existing group and into one new group.
  void Extend(int i, int groups) {
    if (i == m_) {
      Score(groups);
      return;
    }
    const AtomMask bit = AtomMask(1) << i;
    for (int g = 0; g <= groups; ++g) {
      cand_.atoms[size_t(g)] |= bit;
      Extend(i + 1, std::max(groups, g + 1));
      cand_.atoms[size_t(g)] &= ~bit;
    }
  }

  void Score(int groups) {
    // Each group must be connected: a disconnected bag would be a
    // cartesian product, never cost-effective and not a GHD node.
    for (int g = 0; g < groups; ++g) {
      if (connected_[cand_.atoms[size_t(g)]] == 0) return;
    }
    cand_.groups = groups;
    cand_.width = 0.0;
    cand_.total_rho = 0.0;
    for (int g = 0; g < groups; ++g) {
      const double rho = Rho(cand_.atoms[size_t(g)]);
      if (rho < 0) return;  // LP failed (recorded in lp_error_)
      cand_.rho[size_t(g)] = rho;
      cand_.width = std::max(cand_.width, rho);
      cand_.total_rho += rho;
    }
    if (found_ && !Better(cand_, best_)) return;
    // Grouped schemas must form an acyclic hypergraph (a hypertree).
    for (int g = 0; g < groups; ++g) {
      cand_.attrs[size_t(g)] = vertices_[cand_.atoms[size_t(g)]];
    }
    if (!query::Hypergraph::GyoAcyclic(
            std::span<const AttrMask>(cand_.attrs.data(), size_t(groups)),
            cand_.parent.data())) {
      return;
    }
    best_ = cand_;
    found_ = true;
  }

  /// Fractional edge cover of a group's attributes by its atoms,
  /// solved on first use; -1 if the LP failed.
  double Rho(AtomMask atoms) {
    double& rho = rho_[atoms];
    if (rho != kUnsolved) return rho;
    std::vector<AttrMask> bag_edges;
    for (int e = 0; e < m_; ++e) {
      if (atoms & (AtomMask(1) << e)) bag_edges.push_back(h_.edge(e));
    }
    StatusOr<EdgeCover> cover =
        FractionalEdgeCover(vertices_[atoms], bag_edges);
    if (!cover.ok()) {
      lp_error_ = cover.status();
      rho = -1.0;
    } else {
      rho = cover->rho;
    }
    return rho;
  }

  const query::Hypergraph& h_;
  const int m_;
  std::vector<AttrMask> vertices_;  // per atom mask: union of schemas
  std::vector<uint8_t> connected_;  // per atom mask: EdgesConnected
  std::vector<double> rho_;         // per atom mask: Rho, or kUnsolved
  Candidate cand_;
  Candidate best_;
  bool found_ = false;
  Status lp_error_ = Status::OK();
};

}  // namespace

std::vector<int> Decomposition::Neighbors(int v) const {
  std::vector<int> out;
  for (int u = 0; u < num_bags(); ++u) {
    if (u == v) continue;
    if (parent[u] == v || parent[v] == u) out.push_back(u);
  }
  return out;
}

std::string Decomposition::ToString(const query::Query& q) const {
  std::string out = "T(width=" + std::to_string(width) + "){";
  for (int i = 0; i < num_bags(); ++i) {
    if (i > 0) out += "; ";
    out += "v" + std::to_string(i) + "[";
    bool first = true;
    for (int a = 0; a < q.num_attrs(); ++a) {
      if (bags[i].attrs & (AttrMask(1) << a)) {
        if (!first) out += ",";
        out += q.attr_name(a);
        first = false;
      }
    }
    out += "]";
    if (parent[i] >= 0) out += "->v" + std::to_string(parent[i]);
  }
  out += "}";
  return out;
}

StatusOr<Decomposition> SearchOptimalGhd(const query::Query& q) {
  const query::Hypergraph h(q);
  const int m = h.num_edges();
  if (m == 0) return Status::InvalidArgument("query has no atoms");
  if (m > kMaxAtoms) {
    return Status::InvalidArgument(
        "partition-based GHD search supports <= 12 atoms");
  }

  PartitionSearch search(h);
  if (!search.Run()) {
    if (!search.lp_error().ok()) return search.lp_error();
    return Status::Internal("no GHD found (unexpected: the one-bag "
                            "partition is always acyclic)");
  }
  const Candidate& best = search.best();
  Decomposition d;
  for (int g = 0; g < best.groups; ++g) {
    Bag bag;
    bag.atoms = best.atoms[size_t(g)];
    bag.attrs = best.attrs[size_t(g)];
    bag.rho = best.rho[size_t(g)];
    d.bags.push_back(bag);
    d.parent.push_back(best.parent[size_t(g)]);
  }
  d.width = best.width;
  return d;
}

StatusOr<Decomposition> FindOptimalGhd(const query::Query& q) {
  // The search reads only the attribute count and each atom's
  // attribute mask, in atom order: the query's shape.
  std::pair<int, std::vector<AttrMask>> shape{q.num_attrs(), {}};
  for (const query::Atom& atom : q.atoms()) {
    shape.second.push_back(atom.schema.Mask());
  }
  static std::mutex mu;
  static auto* memo =
      new std::map<std::pair<int, std::vector<AttrMask>>, Decomposition>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(shape);
    if (it != memo->end()) return it->second;
  }
  StatusOr<Decomposition> d = SearchOptimalGhd(q);
  if (!d.ok()) return d;
  std::lock_guard<std::mutex> lock(mu);
  if (memo->size() >= kMemoShapes) memo->clear();
  memo->emplace(std::move(shape), *d);
  return d;
}

std::vector<std::vector<int>> TraversalOrders(const Decomposition& d) {
  const int k = d.num_bags();
  std::vector<std::vector<int>> out;
  std::vector<int> order;
  std::vector<bool> used(k, false);

  std::function<void()> rec = [&]() {
    if (static_cast<int>(order.size()) == k) {
      out.push_back(order);
      return;
    }
    for (int v = 0; v < k; ++v) {
      if (used[v]) continue;
      // Prefix connectivity: after the first bag, v must be adjacent
      // in the join tree to an already-traversed bag.
      if (!order.empty()) {
        bool adjacent = false;
        for (int u : d.Neighbors(v)) {
          if (used[u]) {
            adjacent = true;
            break;
          }
        }
        if (!adjacent) continue;
      }
      used[v] = true;
      order.push_back(v);
      rec();
      order.pop_back();
      used[v] = false;
    }
  };
  rec();
  return out;
}

std::vector<query::AttributeOrder> ValidAttributeOrders(
    const Decomposition& d, const query::Query& q) {
  std::vector<query::AttributeOrder> out;
  for (const std::vector<int>& traversal : TraversalOrders(d)) {
    // New attributes contributed by each bag along the traversal.
    std::vector<std::vector<AttrId>> groups;
    AttrMask seen = 0;
    for (int v : traversal) {
      AttrMask fresh = d.bags[v].attrs & ~seen;
      seen |= d.bags[v].attrs;
      std::vector<AttrId> group;
      for (int a = 0; a < q.num_attrs(); ++a) {
        if (fresh & (AttrMask(1) << a)) group.push_back(a);
      }
      if (!group.empty()) groups.push_back(std::move(group));
    }
    // Cartesian product of within-group permutations.
    std::vector<query::AttributeOrder> partial{{}};
    for (std::vector<AttrId>& group : groups) {
      std::vector<query::AttributeOrder> next;
      std::sort(group.begin(), group.end());
      do {
        for (const query::AttributeOrder& prefix : partial) {
          query::AttributeOrder order = prefix;
          order.insert(order.end(), group.begin(), group.end());
          next.push_back(std::move(order));
        }
      } while (std::next_permutation(group.begin(), group.end()));
      partial = std::move(next);
    }
    out.insert(out.end(), partial.begin(), partial.end());
  }
  // Different traversals can yield the same attribute order; dedupe.
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool IsValidOrder(const Decomposition& d, const query::Query& q,
                  const query::AttributeOrder& order) {
  return !OrderBagSegments(d, q, order).empty();
}

std::vector<int> OrderBagSegments(const Decomposition& d,
                                  const query::Query& q,
                                  const query::AttributeOrder& order) {
  (void)q;
  // Greedily replay the order against some traversal: at each step the
  // set of attributes seen so far must equal the union of a connected
  // set of traversed bags' fresh attributes. We simulate by choosing
  // bags as soon as one of their attributes appears and verifying
  // segment structure.
  const int k = d.num_bags();
  std::vector<bool> used(k, false);
  std::vector<int> segments;
  AttrMask seen = 0;
  size_t i = 0;
  bool first_bag = true;
  while (i < order.size()) {
    // Find a bag that (a) contains order[i] as a fresh attribute,
    // (b) is adjacent to a used bag (or is first), and (c) whose
    // remaining fresh attributes exactly form the next segment.
    bool matched = false;
    for (int v = 0; v < k && !matched; ++v) {
      if (used[v]) continue;
      AttrMask fresh = d.bags[v].attrs & ~seen;
      if ((fresh & (AttrMask(1) << order[i])) == 0) continue;
      if (!first_bag) {
        bool adjacent = false;
        for (int u : d.Neighbors(v)) {
          if (used[u]) {
            adjacent = true;
            break;
          }
        }
        if (!adjacent) continue;
      }
      // The next PopCount(fresh) attributes of the order must be
      // exactly `fresh`.
      const int len = PopCount(fresh);
      if (i + len > order.size()) continue;
      AttrMask got = 0;
      for (int j = 0; j < len; ++j) got |= (AttrMask(1) << order[i + j]);
      if (got != fresh) continue;
      used[v] = true;
      seen |= d.bags[v].attrs;
      segments.push_back(len);
      i += len;
      first_bag = false;
      matched = true;
    }
    if (!matched) {
      // Maybe a bag with no fresh attributes needs to be traversed
      // (its attrs are all seen): mark any adjacent such bag used.
      bool absorbed = false;
      for (int v = 0; v < k; ++v) {
        if (used[v]) continue;
        if ((d.bags[v].attrs & ~seen) != 0) continue;
        bool adjacent = first_bag;
        for (int u : d.Neighbors(v)) {
          if (used[u]) adjacent = true;
        }
        if (adjacent) {
          used[v] = true;
          segments.push_back(0);
          absorbed = true;
          first_bag = false;
          break;
        }
      }
      if (!absorbed) return {};
    }
  }
  return segments;
}

}  // namespace adj::ghd
