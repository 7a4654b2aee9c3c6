#include "wcoj/naive_join.h"

#include <algorithm>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "wcoj/leapfrog.h"

namespace adj::wcoj {
namespace {

/// Values of `rel` row `r` projected onto schema positions `pos`.
std::vector<Value> ProjectRow(const storage::Relation& rel, uint64_t r,
                              const std::vector<int>& pos) {
  std::vector<Value> out(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) out[i] = rel.At(r, pos[i]);
  return out;
}

uint64_t KeyHash(const std::vector<Value>& key) {
  uint64_t h = 0x2545F4914F6CDD1DULL;
  for (Value v : key) h = HashCombine(h, v);
  return h;
}

}  // namespace

StatusOr<storage::Relation> HashJoin(const storage::Relation& left,
                                     const storage::Relation& right,
                                     uint64_t row_limit) {
  // Shared attributes and their positions on both sides.
  std::vector<AttrId> shared;
  for (AttrId a : left.schema().attrs()) {
    if (right.schema().Contains(a)) shared.push_back(a);
  }
  std::sort(shared.begin(), shared.end());
  std::vector<int> lpos, rpos;
  for (AttrId a : shared) {
    lpos.push_back(left.schema().PositionOf(a));
    rpos.push_back(right.schema().PositionOf(a));
  }
  // Output schema: union ascending; right contributes its non-shared
  // attributes.
  std::vector<AttrId> out_attrs = left.schema().attrs();
  for (AttrId a : right.schema().attrs()) {
    if (!left.schema().Contains(a)) out_attrs.push_back(a);
  }
  std::sort(out_attrs.begin(), out_attrs.end());
  storage::Schema out_schema(out_attrs);
  // Position of each output attribute: in left if present, else right.
  struct Source {
    bool from_left;
    int pos;
  };
  std::vector<Source> sources;
  for (AttrId a : out_attrs) {
    int lp = left.schema().PositionOf(a);
    if (lp >= 0) {
      sources.push_back({true, lp});
    } else {
      sources.push_back({false, right.schema().PositionOf(a)});
    }
  }

  // Build on the smaller side; probe with the larger. For simplicity we
  // always build on `right` (callers pass the smaller relation there
  // when it matters; the oracle does not need to be fast).
  std::unordered_multimap<uint64_t, uint64_t> index;
  index.reserve(right.size());
  for (uint64_t r = 0; r < right.size(); ++r) {
    index.emplace(KeyHash(ProjectRow(right, r, rpos)), r);
  }

  storage::Relation out(out_schema);
  std::vector<Value> tuple(out_attrs.size());
  for (uint64_t l = 0; l < left.size(); ++l) {
    std::vector<Value> key = ProjectRow(left, l, lpos);
    auto [it, end] = index.equal_range(KeyHash(key));
    for (; it != end; ++it) {
      const uint64_t r = it->second;
      // Hash collision guard: verify true key equality.
      bool match = true;
      for (size_t i = 0; i < rpos.size(); ++i) {
        if (right.At(r, rpos[i]) != key[i]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      for (size_t i = 0; i < sources.size(); ++i) {
        tuple[i] = sources[i].from_left ? left.At(l, sources[i].pos)
                                        : right.At(r, sources[i].pos);
      }
      out.Append(tuple);
      if (out.size() > row_limit) {
        return Status::ResourceExhausted(
            "hash join intermediate exceeded row limit");
      }
    }
  }
  out.SortAndDedup();
  return out;
}

StatusOr<storage::Relation> NaiveJoin(const query::Query& q,
                                      const storage::Catalog& db,
                                      uint64_t row_limit) {
  if (q.num_atoms() == 0) {
    return Status::InvalidArgument("empty query");
  }
  // Bind atom i: rename base relation columns to the atom's attributes
  // and normalize column order to ascending attribute id — resolved
  // through the catalog's index cache, so the oracle's binds warm (and
  // reuse) the same row payloads the real executors use. Hash joins
  // never read a trie, so the bind is trie-less: the shared rows layer
  // is warmed for everyone, but no trie is built on the oracle's
  // behalf.
  const std::vector<int> ascending_rank = AscendingRank(q.num_attrs());
  auto bind = [&](const query::Atom& atom)
      -> StatusOr<std::shared_ptr<const storage::Relation>> {
    StatusOr<std::shared_ptr<const storage::Relation>> base =
        db.GetShared(atom.relation);
    if (!base.ok()) return base.status();
    if ((*base)->arity() != atom.schema.arity()) {
      return Status::InvalidArgument("atom arity mismatch for " +
                                     atom.relation);
    }
    return PrepareRelationRowsShared(std::move(*base), atom.schema.attrs(),
                                     ascending_rank, db.index_cache());
  };

  StatusOr<std::shared_ptr<const storage::Relation>> acc = bind(q.atom(0));
  if (!acc.ok()) return acc.status();
  storage::Relation result = **acc;
  for (int i = 1; i < q.num_atoms(); ++i) {
    StatusOr<std::shared_ptr<const storage::Relation>> next = bind(q.atom(i));
    if (!next.ok()) return next.status();
    StatusOr<storage::Relation> joined =
        HashJoin(result, **next, row_limit);
    if (!joined.ok()) return joined.status();
    result = std::move(joined.value());
  }
  return result;
}

}  // namespace adj::wcoj
