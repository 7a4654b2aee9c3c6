#ifndef ADJ_WCOJ_LEAPFROG_H_
#define ADJ_WCOJ_LEAPFROG_H_

#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include <memory>

#include "common/status.h"
#include "query/attribute_order.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/trie.h"

namespace adj::wcoj {

/// One trie participating in a Leapfrog join. `attrs[l]` is the query
/// attribute indexed by trie level l; the attrs must appear in the same
/// relative order as in the join's global attribute order.
struct JoinInput {
  const storage::Trie* trie = nullptr;
  std::vector<AttrId> attrs;
};

/// Per-run counters. `tuples_at_level[i]` is |T_{i+1}| of the paper:
/// the number of partial bindings emitted while extending to the
/// attribute at order position i. The computation-cost model and the
/// Fig. 6 / Fig. 8 experiments are built from these.
struct JoinStats {
  std::vector<uint64_t> tuples_at_level;
  uint64_t seeks = 0;
  uint64_t extensions = 0;  // == sum(tuples_at_level)
  double seconds = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  // Kernel dispatch counters: how many 2-way intersections ran on a
  // SIMD kernel vs the scalar baseline (see wcoj/intersect.h).
  uint64_t simd_intersections = 0;
  uint64_t scalar_fallbacks = 0;
  // Compressed-level blocks decoded into kernel scratch (0 when every
  // bound trie is raw).
  uint64_t blocks_decoded = 0;

  void Merge(const JoinStats& other);
};

/// Abort thresholds emulating the paper's failure modes (memory
/// overflow / 12-hour timeout). `max_extensions` bounds Leapfrog's
/// total work (it streams results, so this is a time-style budget);
/// `max_materialized_rows` bounds engines that materialize
/// intermediates (binary join, BigJoin) — the real out-of-memory
/// mode of the paper's multi-round baselines.
struct JoinLimits {
  uint64_t max_extensions = std::numeric_limits<uint64_t>::max();
  double max_seconds = std::numeric_limits<double>::infinity();
  uint64_t max_materialized_rows = std::numeric_limits<uint64_t>::max();
};

/// The root values (order[0]) one run covers: [lo, hi). The bounds
/// are 64-bit so a range can reach past the largest Value; the default
/// covers every value.
struct RootRange {
  uint64_t lo = 0;
  uint64_t hi = uint64_t{std::numeric_limits<Value>::max()} + 1;
};

/// Optional memoization of per-level intersections — the CacheTrieJoin
/// mechanism behind the HCubeJ+Cache baseline. Entries are keyed by
/// the exact set of sibling ranges being intersected; capacity is a
/// value budget shared across levels, mimicking the fixed cache memory
/// that HCube storage competes with.
class IntersectionCache {
 public:
  explicit IntersectionCache(uint64_t capacity_values)
      : capacity_(capacity_values) {}

  struct Entry {
    std::vector<Value> vals;       // intersection result
    std::vector<uint32_t> idxs;    // per value: index in each input range
  };

  const Entry* Lookup(uint64_t key) const;

  /// Stores `entry` and returns the resident copy (stable address: the
  /// map never evicts, and rehashing preserves node addresses), so the
  /// caller iterates the stored entry instead of keeping its own copy.
  /// Returns nullptr — leaving `entry` untouched — when the value
  /// budget is exhausted.
  const Entry* Insert(uint64_t key, Entry&& entry);

  uint64_t stored_values() const { return stored_values_; }
  uint64_t capacity() const { return capacity_; }
  void Clear();

 private:
  uint64_t capacity_;
  uint64_t stored_values_ = 0;
  std::unordered_map<uint64_t, Entry> map_;
};

/// Callback receiving each result tuple, in attribute-order layout
/// (element i = value of order[i]).
using EmitFn = std::function<void(std::span<const Value>)>;

/// Leapfrog TrieJoin (Alg. 1) bound to one set of inputs under one
/// order. Bind validates the inputs against the order and sizes the
/// per-position kernel arena and compressed-block decode caches once;
/// every Run then reuses them, so k runs over the same tries pay that
/// set-up once (the sampler's k pinned runs per worker). Decoded blocks
/// stay cached across runs. Not thread-safe: one instance per thread.
/// `inputs` and `order` are borrowed and must outlive the instance.
class Leapfrog {
 public:
  static StatusOr<Leapfrog> Bind(const std::vector<JoinInput>& inputs,
                                 const query::AttributeOrder& order,
                                 const JoinLimits& limits = {},
                                 IntersectionCache* cache = nullptr);

  /// Unbound (what an error StatusOr holds); Run fails until a bound
  /// instance is moved in.
  Leapfrog();
  Leapfrog(Leapfrog&&) noexcept;
  Leapfrog& operator=(Leapfrog&&) noexcept;
  ~Leapfrog();

  /// One join: emits result tuples through `emit` (nullptr = count
  /// only) and adds this run's counters to `stats` (may be null).
  /// `first_value`, when set, pins the first attribute to one value —
  /// the sampler's "Leapfrog starting from A with the attribute fixed
  /// as a". The limits apply to each run on its own. The run stops
  /// once it has found `stop_at` result tuples and returns that
  /// partial count (the stats then cover the work done so far).
  ///
  /// Returns the number of result tuples, or ResourceExhausted /
  /// DeadlineExceeded when a limit trips.
  StatusOr<uint64_t> Run(
      const EmitFn* emit, JoinStats* stats,
      std::optional<Value> first_value = {},
      uint64_t stop_at = std::numeric_limits<uint64_t>::max());

  /// One join restricted to root values in `range`, under `limits`
  /// instead of the bound ones. Each root participant's span is
  /// narrowed by binary search before the root intersection, so runs
  /// over disjoint ranges split one join's work (and its output, in
  /// order) without repeating any of it — the morsels of one server.
  StatusOr<uint64_t> Run(const EmitFn* emit, JoinStats* stats,
                         const RootRange& range, const JoinLimits& limits);

 private:
  class Executor;
  explicit Leapfrog(std::unique_ptr<Executor> exec);

  std::unique_ptr<Executor> exec_;
};

/// One-shot Leapfrog: Bind then a single Run.
StatusOr<uint64_t> LeapfrogJoin(const std::vector<JoinInput>& inputs,
                                const query::AttributeOrder& order,
                                const EmitFn* emit, JoinStats* stats,
                                const JoinLimits& limits = {},
                                std::optional<Value> first_value = {},
                                IntersectionCache* cache = nullptr);

/// A relation re-columned and indexed for a particular attribute
/// order: columns permuted so attribute ranks ascend, then sorted,
/// deduplicated, and trie-built.
struct PreparedRelation {
  storage::Relation rel;
  storage::Trie trie;
  std::vector<AttrId> attrs;  // attribute of each trie level
};

/// Binds `base` (the atom's stored relation) to `atom_attrs` and
/// prepares it for a join whose attribute ranks are `rank`
/// (rank[attr] = position in the global order).
///
/// Builds a private copy every call — measurement and micro-bench
/// paths only. Execution paths use PrepareRelationShared, which
/// resolves the same artifact through the shared index layer.
StatusOr<PreparedRelation> PrepareRelation(const storage::Relation& base,
                                           const std::vector<AttrId>& atom_attrs,
                                           const std::vector<int>& rank);

/// A bound atom whose index is borrowed from the shared cache: the
/// PreparedIndex (permuted sorted relation + trie) is pointer-shared
/// with every other consumer of the same (relation, column order) —
/// nothing is rebuilt or deep-copied. The index carries no labels; the
/// atom's own are `attrs`.
struct SharedPreparedRelation {
  std::shared_ptr<const storage::PreparedIndex> index;
  std::vector<AttrId> attrs;  // attribute of each trie level

  const storage::Relation& rel() const { return *index->rel; }
  const storage::Trie& trie() const { return *index->trie; }
};

/// Cache-backed PrepareRelation: resolves the index for
/// (base identity, column order implied by `atom_attrs` under `rank`)
/// through `cache`, building it only on first use. `stats`, when
/// given, records whether this call built or reused.
StatusOr<SharedPreparedRelation> PrepareRelationShared(
    std::shared_ptr<const storage::Relation> base,
    const std::vector<AttrId>& atom_attrs, const std::vector<int>& rank,
    storage::IndexCache& cache, storage::IndexBuildStats* stats = nullptr);

/// Trie-less PrepareRelationShared — what hash-join-only consumers
/// bind: same key resolution, but the artifact is the permuted sorted
/// rows alone (no trie is built), shared by pointer with trie-backed
/// binds of the same column order and viewed under the atom's sorted
/// schema, which is what hash joins match columns by.
StatusOr<std::shared_ptr<const storage::Relation>> PrepareRelationRowsShared(
    std::shared_ptr<const storage::Relation> base,
    const std::vector<AttrId>& atom_attrs, const std::vector<int>& rank,
    storage::IndexCache& cache, storage::IndexBuildStats* stats = nullptr);

/// rank[attr] = attr for `num_attrs` attributes — the rank vector that
/// binds an atom with columns in ascending attribute-id order (the
/// normalization the hash-join paths and sub-query sampling share).
std::vector<int> AscendingRank(int num_attrs);

}  // namespace adj::wcoj

#endif  // ADJ_WCOJ_LEAPFROG_H_
