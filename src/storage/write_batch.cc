#include "storage/write_batch.h"

#include <algorithm>
#include <utility>

#include "wcoj/intersect.h"

namespace adj::storage {

/// Lexicographic three-way compare of two arity-length tuples.
int CompareRows(const Value* a, const Value* b, int arity) {
  for (int c = 0; c < arity; ++c) {
    if (a[c] < b[c]) return -1;
    if (a[c] > b[c]) return 1;
  }
  return 0;
}

/// First tuple index in [lo, n) whose tuple is >= `t` — an exponential
/// probe then a binary shrink over the probed window: the SeekGEQ
/// galloping discipline generalized to lexicographic tuple order, so a
/// point delta locates its merge position in O(log distance) instead
/// of scanning. Arity-1 payloads are strictly increasing flat value
/// runs — exactly the intersect kernels' input contract — and go
/// through wcoj::intersect::SeekGEQ itself.
size_t RowLowerBound(std::span<const Value> rows, int arity, const Value* t,
                     size_t lo) {
  if (arity == 1) return wcoj::intersect::SeekGEQ(rows, t[0], lo);
  const size_t n = rows.size() / static_cast<size_t>(arity);
  auto row = [&](size_t k) { return rows.data() + k * arity; };
  size_t cur = lo;
  size_t step = 1;
  while (cur < n && CompareRows(row(cur), t, arity) < 0) {
    lo = cur + 1;
    cur += step;
    step <<= 1;
  }
  size_t hi = std::min(cur, n);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRows(row(mid), t, arity) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

namespace {

/// Rows of `a` not in `b`; both sorted-unique, same arity. Linear
/// merge walk.
Relation RowsDifference(const Relation& a, const Relation& b) {
  Relation out(a.schema());
  const int arity = a.arity();
  for (uint64_t i = 0, j = 0; i < a.size(); ++i) {
    const Value* t = a.Row(i).data();
    while (j < b.size() && CompareRows(b.Row(j).data(), t, arity) < 0) ++j;
    if (j < b.size() && CompareRows(b.Row(j).data(), t, arity) == 0) continue;
    out.Append(a.Row(i));
  }
  return out;
}

/// Set union of two sorted-unique row sets of the same arity.
Relation RowsUnion(const Relation& a, const Relation& b) {
  Relation out(a.schema());
  const int arity = a.arity();
  uint64_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int c = CompareRows(a.Row(i).data(), b.Row(j).data(), arity);
    if (c < 0) {
      out.Append(a.Row(i++));
    } else if (c > 0) {
      out.Append(b.Row(j++));
    } else {
      out.Append(a.Row(i++));
      ++j;
    }
  }
  while (i < a.size()) out.Append(a.Row(i++));
  while (j < b.size()) out.Append(b.Row(j++));
  return out;
}

}  // namespace

void MergeDeltaRows(std::span<const Value> base, int arity,
                    std::span<const Value> inserts,
                    std::span<const Value> deletes, std::vector<Value>* out) {
  out->clear();
  if (arity <= 0) {
    out->assign(base.begin(), base.end());
    return;
  }
  const size_t n = base.size() / static_cast<size_t>(arity);
  const size_t ni = inserts.size() / static_cast<size_t>(arity);
  const size_t nd = deletes.size() / static_cast<size_t>(arity);
  out->reserve(base.size() + inserts.size());
  auto row = [&](std::span<const Value> flat, size_t k) {
    return flat.data() + k * arity;
  };
  size_t b = 0, i = 0, d = 0;
  while (i < ni || d < nd) {
    // Next event in tuple order; inserts and deletes are disjoint, so
    // the two streams never tie.
    bool is_insert;
    const Value* t;
    if (i < ni && (d >= nd || CompareRows(row(inserts, i), row(deletes, d),
                                           arity) < 0)) {
      is_insert = true;
      t = row(inserts, i++);
    } else {
      is_insert = false;
      t = row(deletes, d++);
    }
    const size_t pos = RowLowerBound(base, arity, t, b);
    // Run-copy the untouched stretch below the event.
    out->insert(out->end(), row(base, b), row(base, pos));
    b = pos;
    const bool present =
        pos < n && CompareRows(row(base, pos), t, arity) == 0;
    if (is_insert) {
      out->insert(out->end(), t, t + arity);
      if (present) b = pos + 1;  // already there: emit once, not twice
    } else if (present) {
      b = pos + 1;  // tombstone consumes the row
    }                // tombstone of an absent row: no-op
  }
  out->insert(out->end(), row(base, b), base.data() + base.size());
}

DeltaBatch ComposeDelta(const DeltaBatch& first, const DeltaBatch& then) {
  DeltaBatch net;
  net.inserts =
      RowsUnion(RowsDifference(first.inserts, then.deletes), then.inserts);
  net.deletes =
      RowsDifference(RowsUnion(first.deletes, then.deletes), net.inserts);
  return net;
}

WriteBatch& WriteBatch::Insert(std::string relation,
                               std::vector<Value> tuple) {
  Op op;
  op.kind = Op::kInsert;
  op.name = std::move(relation);
  op.tuple = std::move(tuple);
  ops_.push_back(std::move(op));
  return *this;
}

WriteBatch& WriteBatch::Delete(std::string relation,
                               std::vector<Value> tuple) {
  Op op;
  op.kind = Op::kDelete;
  op.name = std::move(relation);
  op.tuple = std::move(tuple);
  ops_.push_back(std::move(op));
  return *this;
}

WriteBatch& WriteBatch::Create(std::string name, Relation rel) {
  return Create(std::move(name),
                std::make_shared<const Relation>(std::move(rel)));
}

WriteBatch& WriteBatch::Create(std::string name,
                               std::shared_ptr<const Relation> rel) {
  Op op;
  op.kind = Op::kCreate;
  op.name = std::move(name);
  op.rel = std::move(rel);
  ops_.push_back(std::move(op));
  return *this;
}

WriteBatch& WriteBatch::AliasRelation(std::string alias, std::string target) {
  Op op;
  op.kind = Op::kAlias;
  op.name = std::move(alias);
  op.target = std::move(target);
  ops_.push_back(std::move(op));
  return *this;
}

std::vector<std::string> WriteBatch::TouchedNames() const {
  std::vector<std::string> names;
  for (const Op& op : ops_) {
    if (std::find(names.begin(), names.end(), op.name) == names.end()) {
      names.push_back(op.name);
    }
  }
  return names;
}

}  // namespace adj::storage
