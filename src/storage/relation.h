#ifndef ADJ_STORAGE_RELATION_H_
#define ADJ_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/schema.h"

namespace adj::storage {

/// A relation: a set of fixed-arity tuples stored row-major in one flat
/// vector. This is the unit of storage, shuffling, and trie building.
///
/// Invariants are *not* enforced on append; call SortAndDedup() to put
/// the relation into the canonical (lexicographically sorted, unique)
/// state the trie builder requires.
///
/// A relation can also *alias* an external row payload: AliasSpan views
/// read-only memory kept alive by an opaque handle and costs no copy.
/// Hash-join binds alias the index cache's canonical permuted rows
/// under their atom's attribute labels, and persist views mmap'ed snapshot
/// segments with zero parsing. Mutation detaches (copy-on-write), so
/// aliasing stays an implementation detail to callers.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema) : schema_(std::move(schema)) {}

  /// A relation whose rows view `rows` directly — typically a segment
  /// of an mmap'ed snapshot. `keepalive` must own the viewed memory
  /// (the persist::MappedFile, or the canonical Relation the span
  /// belongs to) and is held for the alias's lifetime. Mutators
  /// copy-on-write.
  static Relation AliasSpan(Schema schema, std::span<const Value> rows,
                            std::shared_ptr<const void> keepalive) {
    Relation r(std::move(schema));
    r.view_ = rows;
    r.keepalive_ = std::move(keepalive);
    return r;
  }

  const Schema& schema() const { return schema_; }
  int arity() const { return schema_.arity(); }
  uint64_t size() const {
    return arity() == 0 ? (rows().empty() ? 0 : 1)
                        : rows().size() / static_cast<uint64_t>(arity());
  }
  bool empty() const { return rows().empty(); }

  /// Bytes of tuple payload (what shuffling transmits).
  uint64_t SizeBytes() const { return rows().size() * sizeof(Value); }

  /// Row accessor: the i-th tuple as a span of `arity` values.
  std::span<const Value> Row(uint64_t i) const {
    return {rows().data() + i * arity(), static_cast<size_t>(arity())};
  }
  Value At(uint64_t row, int col) const {
    return rows()[row * arity() + col];
  }

  void Reserve(uint64_t rows) {
    Detach();
    data_.reserve(rows * arity());
  }
  void Append(std::span<const Value> tuple);
  void Append(std::initializer_list<Value> tuple) {
    Append(std::span<const Value>(tuple.begin(), tuple.size()));
  }

  /// Lexicographic sort + duplicate elimination (set semantics).
  void SortAndDedup();
  bool IsSortedUnique() const;

  /// New relation with columns permuted: column i of the result is
  /// column perm[i] of this relation, under schema `new_schema`.
  Relation PermuteColumns(const Schema& new_schema,
                          const std::vector<int>& perm) const;

  /// Distinct values of column `col` (sorted ascending).
  std::vector<Value> DistinctColumn(int col) const;

  /// Keep only rows whose column `col` value appears in `keep`
  /// (`keep` must be sorted). This is the semijoin filter used by the
  /// distributed sampler's database-reduction step.
  Relation SemiJoinFilter(int col, const std::vector<Value>& keep) const;

  /// Flat row-major payload. A borrowed view for aliased (shared /
  /// mmap-backed) relations; valid as long as this relation (and its
  /// keepalive) live and no mutator runs.
  std::span<const Value> raw() const { return rows(); }
  std::vector<Value>& mutable_raw() {
    Detach();
    return data_;
  }

  /// Identity of the row payload for dedup accounting: aliasing
  /// relations built over the same physical buffer report the same
  /// pointer. Owned storage reports its own buffer.
  const void* RowsIdentity() const {
    return keepalive_ ? static_cast<const void*>(view_.data())
                      : static_cast<const void*>(&data_);
  }

  /// Whether reads go through a borrowed payload (AliasSpan)
  /// rather than owned heap storage.
  bool is_alias() const { return keepalive_ != nullptr; }

  std::string ToString(uint64_t max_rows = 16) const;

 private:
  std::span<const Value> rows() const {
    return keepalive_ ? view_ : std::span<const Value>(data_);
  }
  /// Copy-on-write: materialize the borrowed payload into owned
  /// storage before any mutation.
  void Detach() {
    if (keepalive_) {
      data_.assign(view_.begin(), view_.end());
      view_ = {};
      keepalive_.reset();
    }
  }

  Schema schema_;
  std::vector<Value> data_;
  std::span<const Value> view_;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace adj::storage

#endif  // ADJ_STORAGE_RELATION_H_
