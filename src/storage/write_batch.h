#ifndef ADJ_STORAGE_WRITE_BATCH_H_
#define ADJ_STORAGE_WRITE_BATCH_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/relation.h"

namespace adj::storage {

/// One coalesced tuple-level change set against a single relation
/// version: rows to add and tombstones to drop, disjoint sets, each
/// lexicographically sorted and duplicate-free. Catalog::Apply appends
/// one DeltaBatch per written name; the chain hangs off the catalog
/// entry (immutable base + ordered deltas) until compaction folds it
/// into a new base. The index cache keeps a handle per delta so a
/// cached index of the pre-write relation can be *patched* into the
/// post-write one instead of being rebuilt (merge-on-read).
struct DeltaBatch {
  Relation inserts;  // sorted, unique, disjoint from deletes
  Relation deletes;  // tombstones; sorted, unique

  uint64_t rows() const { return inserts.size() + deletes.size(); }
  uint64_t SizeBytes() const {
    return inserts.SizeBytes() + deletes.SizeBytes();
  }
};

/// Applies one delta to a sorted duplicate-free row payload:
/// out = (base \ deletes) ∪ inserts, sorted and unique. Cost is
/// O(delta · log base) locate work — galloping lower-bound probes, the
/// Leapfrog seek discipline (arity-1 payloads are strictly increasing
/// flat runs and go through wcoj::intersect::SeekGEQ itself) — plus
/// run-copies of the untouched stretches between events; base is never
/// re-sorted. This one kernel maintains both the catalog's effective
/// relation and the index cache's merge-on-read patch (where `base` is
/// a cached canonical permuted payload and the delta rows have been
/// permuted to match). `inserts`/`deletes` follow DeltaBatch's
/// contract: sorted, unique, mutually disjoint.
void MergeDeltaRows(std::span<const Value> base, int arity,
                    std::span<const Value> inserts,
                    std::span<const Value> deletes, std::vector<Value>* out);

/// Lexicographic three-way compare of two arity-length tuples.
int CompareRows(const Value* a, const Value* b, int arity);

/// First tuple index in [hint, rows.size()/arity) of the sorted-unique
/// arity-strided `rows` whose tuple is lexicographically >= `t` —
/// the galloping probe MergeDeltaRows positions with, exported for
/// presence checks against a canonical payload.
size_t RowLowerBound(std::span<const Value> rows, int arity, const Value* t,
                     size_t hint = 0);

/// The net delta equivalent to applying `first` then `then` to any row
/// set: netI = (I1 \ D2) ∪ I2, netD = (D1 ∪ D2) \ netI. Used by the
/// index cache to keep one composed delta per cached payload when a
/// relation is written several times between binds.
DeltaBatch ComposeDelta(const DeltaBatch& first, const DeltaBatch& then);

/// An ordered group of catalog mutations applied atomically by
/// Catalog::Apply / api::Database::Apply — the only write surface.
/// Every queueing method returns the batch, so a small write stays one
/// statement: `catalog.Apply(WriteBatch().Create("G", std::move(g)))`.
///
/// Ops execute in the order they were queued; tuple ops against one
/// relation coalesce into a single DeltaBatch per Apply (an insert
/// cancels a queued tombstone of the same tuple and vice versa — last
/// op wins, exactly as if applied one by one). Validation is deferred
/// to Apply, which checks every op against the live catalog (names
/// resolve, tuple arities match) before mutating anything: a rejected
/// batch leaves the catalog untouched.
class WriteBatch {
 public:
  /// Queues one tuple for insertion into `relation`. Inserting a tuple
  /// the relation already holds is a no-op under set semantics (but
  /// still marks the relation written).
  WriteBatch& Insert(std::string relation, std::vector<Value> tuple);
  WriteBatch& Insert(const std::string& relation,
                     std::initializer_list<Value> tuple) {
    return Insert(relation, std::vector<Value>(tuple));
  }

  /// Queues a tombstone: removes the tuple from `relation` if present
  /// (all copies, set semantics); a tombstone of an absent tuple is a
  /// no-op.
  WriteBatch& Delete(std::string relation, std::vector<Value> tuple);
  WriteBatch& Delete(const std::string& relation,
                     std::initializer_list<Value> tuple) {
    return Delete(relation, std::vector<Value>(tuple));
  }

  /// Queues a create-or-replace of `name` with an owned relation: the
  /// new entry starts a fresh base with an empty delta chain.
  WriteBatch& Create(std::string name, Relation rel);

  /// Create-or-replace with an already-shared relation (no tuple data
  /// copied). A null relation fails the batch's validation at Apply.
  WriteBatch& Create(std::string name, std::shared_ptr<const Relation> rel);

  /// Queues a rebind of `alias` to the relation version `target`
  /// resolves to at this point in the batch. Apply fails (NotFound,
  /// nothing applied) if `target` resolves to nothing.
  WriteBatch& AliasRelation(std::string alias, std::string target);

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

  /// Distinct relation names this batch writes (any op kind), in
  /// queue-first order — what callers use to reason about which cache
  /// entries a batch can invalidate.
  std::vector<std::string> TouchedNames() const;

 private:
  friend class Catalog;

  struct Op {
    enum Kind { kInsert, kDelete, kCreate, kAlias };
    Kind kind = kInsert;
    std::string name;
    std::string target;                   // kAlias
    std::vector<Value> tuple;             // kInsert / kDelete
    std::shared_ptr<const Relation> rel;  // kCreate
  };
  std::vector<Op> ops_;
};

}  // namespace adj::storage

#endif  // ADJ_STORAGE_WRITE_BATCH_H_
