#ifndef ADJ_STORAGE_INDEX_CACHE_H_
#define ADJ_STORAGE_INDEX_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/trie.h"
#include "storage/write_batch.h"

namespace adj::storage {

/// A relation re-columned for one column order and indexed: the
/// canonical rows (the base's columns permuted, sorted and
/// deduplicated, under the base schema permuted alike) plus the trie
/// built over them. It carries no attribute labels: every atom that
/// binds this (relation, column order) shares it by pointer and brings
/// its own attribute list. This is the immutable artifact every join
/// consumer *borrows* from the IndexCache instead of rebuilding per
/// run — the way RDF-TDAA persists its trie-shaped indexes across
/// queries rather than reconstructing them per lookup.
struct PreparedIndex {
  std::shared_ptr<const Relation> rel;  // canonical permuted rows
  std::shared_ptr<const Trie> trie;     // built over `rel`

  /// Resident payload: tuple data plus the trie's arrays (compressed
  /// levels at their encoded size).
  uint64_t Bytes() const {
    return (rel ? rel->SizeBytes() : 0) + (trie ? trie->ResidentBytes() : 0);
  }
};

/// Per-call build accounting, threaded from a bind site up into the
/// RunReport so "the second run built zero tries" is observable.
struct IndexBuildStats {
  uint64_t builds = 0;     // artifacts constructed by this consumer
  uint64_t hits = 0;       // artifacts served from the cache
  uint64_t mmap_hits = 0;  // subset of hits served by snapshot-mapped
                           // artifacts (persist warm restore)
  uint64_t patched = 0;    // artifacts obtained by delta-patching a
                           // cached payload of the pre-write relation
                           // version (merge-on-read), not rebuilding
  uint64_t delta_rows_merged = 0;  // delta rows galloping-merged into
                                   // patched payloads by this consumer
};

/// Process-wide cache of index artifacts keyed by (relation identity,
/// build spec) — the shared index layer. One instance lives alongside
/// each root storage::Catalog (execution and reduced catalogs share
/// their source's cache), so every bind site that used to permute,
/// sort, and Trie::Build inline now asks the cache and shares the
/// result by pointer; tries are never deep-copied.
///
/// Key: `identity` is the address of the physical source object (a
/// base Relation for bound-atom indexes, an index's canonical rows for
/// HCube shard artifacts); `spec` encodes everything else the build
/// depends on (column order, share vector, variant, server count, the
/// attributes a shard routes by). No bound-atom key carries attribute
/// labels: a (relation, column order) is one rows entry and one index
/// entry, whatever atoms bind it. Relations reachable through a catalog
/// are immutable, so an entry never goes *stale* — it only becomes
/// garbage once its source is unreachable.
///
/// Lifetime / invalidation: every entry carries a `pin`, a shared
/// handle to its source. Sweep() — called by Catalog after every
/// Apply and Restore — drops entries whose pin the cache alone still
/// holds: replacing a relation evicts its indexes (and, transitively,
/// shard indexes derived from them) as soon as the last consumer lets
/// go, while indexes of untouched relations survive pointer-identical.
/// The pin also rules out identity ABA: a key address cannot be reused
/// while its entry is resident.
///
/// Concurrency: all operations are mutex-serialized except the build
/// itself, which runs outside the lock under single-flight — N threads
/// requesting one missing key perform exactly one build; the rest
/// block and share the artifact. A failed build is not cached (the
/// next request retries).
///
/// Memory: resident_bytes() totals every entry's artifact; an optional
/// byte budget evicts least-recently-used entries that no consumer
/// currently holds. (The serving layer additionally accounts the
/// indexes *pinned* by cached prepared queries toward its own budget —
/// see serve::PreparedQueryCache.)
///
/// Persistence: the permuted layers can round-trip through a snapshot.
/// ExportPermutedIndexes() hands the writer every (relation, column
/// order) payload; AdoptPermuted() re-seats payloads whose arrays view
/// an mmap'ed snapshot, flagged so hits report as mmap-loaded.
class IndexCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t mmap_hits = 0;  // hits served by snapshot-mapped entries
    uint64_t builds = 0;
    uint64_t patched_builds = 0;  // entries produced by delta-patching
                                  // instead of a from-scratch build
    uint64_t delta_rows_merged = 0;  // total delta rows merged in
    uint64_t build_failures = 0;
    uint64_t evictions = 0;  // Sweep GC + budget evictions
    uint64_t resident_bytes = 0;
    uint64_t entries = 0;
    uint64_t mmap_entries = 0;  // entries adopted from a snapshot
    // Builds and hits of planner statistics (BuildResult::statistic),
    // which `builds` and `hits` leave out: those count indexes.
    uint64_t statistic_builds = 0;
    uint64_t statistic_hits = 0;
  };

  /// `budget_bytes` caps resident artifact bytes (0 = unbounded).
  explicit IndexCache(uint64_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  /// Whether freshly built or delta-patched tries are re-encoded
  /// through Trie::Compress (per-level density heuristic — tiny or
  /// incompressible levels stay raw, and compressed levels of a
  /// patched predecessor stay compressed). On by default so large
  /// indexes are charged at their encoded size; benches flip it off
  /// to measure the raw baseline.
  void set_compress_tries(bool on) {
    compress_tries_.store(on, std::memory_order_relaxed);
  }
  bool compress_tries() const {
    return compress_tries_.load(std::memory_order_relaxed);
  }

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// What a build hands back: the type-erased artifact and its
  /// resident size (charged against the budget).
  struct BuildResult {
    std::shared_ptr<const void> artifact;
    uint64_t bytes = 0;
    // Set when the artifact was produced by (or derived from) a
    // delta-patch of a cached predecessor payload: the entry ticks
    // `patched` counters rather than `builds`, and hands the flag down
    // to layers built over it.
    bool patched = false;
    uint64_t delta_rows_merged = 0;
    // Set when the artifact is a planner statistic (a distinct-column
    // list), not an index: its builds and hits tick the `statistic_*`
    // counters, never `builds`/`hits` or the caller's IndexBuildStats.
    bool statistic = false;
  };

  /// What a derived artifact can be patched from after a write: the
  /// artifact the same spec resolved to over the pre-write version of
  /// the bound index `pin` names, and the net delta between the two
  /// versions with its rows permuted into that index's column order
  /// (sorted, unique, disjoint — DeltaBatch's contract).
  struct PatchBase {
    std::shared_ptr<const void> artifact;
    DeltaBatch delta;
  };
  using PatchFn = std::function<StatusOr<BuildResult>(const PatchBase*)>;

  /// The generic get-or-build: returns the artifact under
  /// (identity, spec), invoking `build` (outside the cache lock,
  /// single-flight) when absent. `pin` must keep `identity` alive and
  /// is what Sweep() uses to decide reachability. `stats`, when given,
  /// receives one hit or build tick.
  ///
  /// When `pin` is a PreparedIndex GetPermuted returned (the HCube
  /// shard layer keys its fragments this way) and LinkDelta recorded
  /// the artifact the same spec resolved to over the index's previous
  /// version, `build` receives it so it can patch at delta cost
  /// (setting BuildResult::patched); otherwise it gets null and builds
  /// from scratch. Each recorded predecessor serves one miss.
  StatusOr<std::shared_ptr<const void>> GetOrBuild(
      const void* identity, const std::string& spec,
      std::shared_ptr<const void> pin, const PatchFn& build,
      IndexBuildStats* stats = nullptr);

  /// The bound-atom index for (relation identity, column order):
  /// `base` with column i of the result taken from column perm[i],
  /// sorted, deduplicated, and trie-indexed. One entry per (base,
  /// perm), shared by every atom that binds that column order whatever
  /// its attribute labels — pointer-equal results for repeated
  /// requests. Its rows are the GetPermutedRows entry: a trie-less bind
  /// and a trie-backed one of the same order share one rows buffer.
  /// `stats`, when given, receives one hit, build or patch tick.
  StatusOr<std::shared_ptr<const PreparedIndex>> GetPermuted(
      std::shared_ptr<const Relation> base, const std::vector<int>& perm,
      IndexBuildStats* stats = nullptr);

  /// Trie-less get for hash-join-only binds: the canonical permuted,
  /// sorted, deduplicated rows of (base, perm) — the rows GetPermuted's
  /// index holds — without ever paying for a trie build. Their schema
  /// is the base schema permuted by `perm`; a consumer that joins on
  /// attribute labels aliases them under its own. `stats`, when given,
  /// receives one hit, build or patch tick.
  StatusOr<std::shared_ptr<const Relation>> GetPermutedRows(
      std::shared_ptr<const Relation> base, const std::vector<int>& perm,
      IndexBuildStats* stats = nullptr);

  /// One (relation, column order) payload — the unit the snapshot
  /// writer serializes.
  struct ExportedPayload {
    const void* identity = nullptr;       // base relation address
    std::vector<int> perm;
    std::shared_ptr<const Relation> rows;  // canonical permuted relation
    std::shared_ptr<const Trie> trie;      // null if never trie-bound
    uint64_t lru_tick = 0;  // hotter layer's tick, for restore ordering
  };

  /// Snapshot of every resident permuted payload (rows and index
  /// layers folded together). Artifacts are shared, not copied;
  /// identities are only meaningful to a caller that can map them back
  /// to relations it holds (the catalog snapshot writer).
  std::vector<ExportedPayload> ExportPermutedIndexes() const;

  /// Re-seats one permuted payload loaded from a snapshot: `rows`
  /// (sorted, viewing mapped memory) under the GetPermutedRows key
  /// and, when `trie` (FromMapped) is given, the index over them under
  /// the GetPermuted key — flagged mmap so hits report as mmap-loaded.
  /// Existing entries win (adoption never clobbers); the byte budget
  /// applies as usual. `base` must be the relation the payload was
  /// exported from — in the restored catalog, not the saved one.
  Status AdoptPermuted(std::shared_ptr<const Relation> base,
                       const std::vector<int>& perm,
                       std::shared_ptr<const Relation> rows,
                       std::shared_ptr<const Trie> trie);

  /// Registers a delta edge from relation version `prev` to its
  /// successor `next` (the catalog calls this on every tuple write,
  /// before the sweep). For every canonical permuted payload of `prev`
  /// currently resident — plus any payloads `prev` itself inherited
  /// and never consumed, whose deltas compose — the cache records a
  /// *patch source*: {payload handle, trie, derived artifacts, net
  /// delta}. The next GetPermuted* miss under `next` then builds its
  /// canonical rows by permuting + sorting the (small) delta and
  /// galloping-merging it into the recorded payload — O(delta log n)
  /// locate work and run copies — instead of re-permuting and
  /// re-sorting all of `next`; the trie patches likewise, and so does
  /// every artifact derived from a bound index of `prev` (HCube
  /// shards, through GetOrBuild). Patch sources hold the
  /// artifacts themselves, so they survive sweeps/evictions of
  /// `prev`'s entries and compaction of the chain; they die when
  /// consumed, superseded by a newer write, or when `next` itself
  /// becomes unreachable. `prev`'s planner statistics are dropped
  /// here: they are never patched, and planning reads only current
  /// versions.
  void LinkDelta(const std::shared_ptr<const Relation>& prev,
                 const std::shared_ptr<const Relation>& next,
                 std::shared_ptr<const DeltaBatch> delta);

  /// Garbage collection, run after every catalog write: drops
  /// entries (iterating to a fixpoint, so derived entries chain) whose
  /// pin is held by nothing outside this cache.
  void Sweep();

  /// Re-applies the byte budget (LRU eviction of entries no consumer
  /// holds); no-op when unbounded. The snapshot loader calls this
  /// after adoption, once its temporary handles are gone — entries
  /// look in-use while the adopter still holds them.
  void EnforceBudget();

  void Clear();

  uint64_t budget_bytes() const { return budget_bytes_; }
  void set_budget_bytes(uint64_t bytes);

  uint64_t resident_bytes() const;
  size_t size() const;
  Stats stats() const;

 private:
  using BuildFn = std::function<StatusOr<BuildResult>()>;

  /// Structured key for permuted-layer entries, kept so the snapshot
  /// writer can enumerate payloads without parsing spec strings.
  struct PermutedMeta {
    enum Kind { kRows, kIndex };
    Kind kind = kRows;
    std::vector<int> perm;
  };

  struct Entry {
    std::shared_ptr<const void> artifact;  // null while building
    std::shared_ptr<const void> pin;
    uint64_t bytes = 0;
    uint64_t lru_tick = 0;
    bool ready = false;
    bool mmap = false;  // adopted from a snapshot (arrays view the map)
    bool patched = false;  // produced by / derived from a delta patch
    bool statistic = false;  // BuildResult::statistic
    std::shared_ptr<const PermutedMeta> meta;  // permuted layers only
  };
  using Key = std::pair<const void*, std::string>;

  /// One patchable predecessor for (relation, perm): the canonical
  /// permuted rows of an older version of the relation — and the trie
  /// over them, and the artifacts derived from its index, when they
  /// were resident — plus the net delta separating the two versions.
  /// Every layer is consumed independently (each patches once); a
  /// cleared member means that layer already patched or was never
  /// resident.
  struct PatchSource {
    std::shared_ptr<const Relation> payload;
    std::shared_ptr<const DeltaBatch> delta;
    std::shared_ptr<const Trie> trie;
    /// Artifacts derived from the index, by their own spec.
    std::map<std::string, std::shared_ptr<const void>> derived;

    bool Drained() const {
      return payload == nullptr && trie == nullptr && derived.empty();
    }
  };
  /// Patch sources for one successor relation, keyed by SpecJoin(perm).
  /// `child` guards against address reuse: a record is only honored
  /// while child.lock() still yields the relation it was made for.
  struct PatchRecord {
    std::weak_ptr<const Relation> child;
    std::map<std::string, PatchSource> by_perm;
  };

  /// The rows layer under GetPermutedRows and GetPermuted's index
  /// build. `patched_out`, when given, reports whether the returned
  /// rows are delta-patched (on hits too: an index built over them
  /// counts as patched work).
  StatusOr<std::shared_ptr<const Relation>> PermutedRows(
      const std::shared_ptr<const Relation>& base,
      const std::vector<int>& perm, IndexBuildStats* stats,
      bool* patched_out);

  /// Takes (without consuming) the patch source for (base, perm), if a
  /// live record holds one.
  bool PeekPatchSource(const std::shared_ptr<const Relation>& base,
                       const std::vector<int>& perm, PatchSource* out) const;
  /// Clears the source's rows payload (the rows layer has merged),
  /// crediting `merged_rows` to the cache-wide merge counter; the
  /// source survives while its trie is still unconsumed.
  void ConsumePatchSource(const void* identity, const std::vector<int>& perm,
                          uint64_t merged_rows);
  /// Clears the source's trie (the index layer has patched), dropping
  /// the per-perm source — and the record once empty — when the rows
  /// side is already consumed.
  void ConsumeTriePatchSource(const void* identity,
                              const std::vector<int>& perm);
  /// Takes the predecessor of the artifact `spec` derived from the
  /// index `pin`, if its relation's patch source recorded one.
  bool TakeDerivedPatch(const void* pin, const std::string& spec,
                        PatchBase* out);
  /// Drops the per-perm source `pit` of record `it` once every layer
  /// is consumed, and the record once empty. Caller holds mu_.
  void EraseIfDrainedLocked(
      std::map<const void*, PatchRecord>::iterator it,
      std::map<std::string, PatchSource>::iterator pit);

  /// GetOrBuild plus permuted-layer bookkeeping (meta tag, mmap flag
  /// forwarded from adopted builds). `patched_out`, when given,
  /// reports whether the returned entry is delta-patched.
  StatusOr<std::shared_ptr<const void>> GetOrBuildTagged(
      const void* identity, const std::string& spec,
      std::shared_ptr<const void> pin, const BuildFn& build,
      IndexBuildStats* stats, std::shared_ptr<const PermutedMeta> meta,
      bool* patched_out = nullptr);

  /// Installs a ready entry directly (snapshot adoption). No-op
  /// returning false if the key is already present. Caller holds mu_.
  bool AdoptEntryLocked(const Key& key, std::shared_ptr<const void> pin,
                        std::shared_ptr<const void> artifact, uint64_t bytes,
                        std::shared_ptr<const PermutedMeta> meta);

  /// Evicts LRU entries nobody currently holds until the budget is
  /// met. Caller holds mu_.
  void EnforceBudgetLocked();
  /// One GC pass; returns whether anything was dropped. Caller holds
  /// mu_.
  bool SweepOnceLocked();

  uint64_t budget_bytes_;
  std::atomic<bool> compress_tries_{true};
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::map<Key, std::shared_ptr<Entry>> entries_;
  // Patch sources keyed by successor-relation address (ABA-guarded by
  // PatchRecord::child). Payload bytes referenced only from here are
  // not charged to the budget; records are bounded — consumed on the
  // next bind, superseded by the next write, or dropped by Sweep once
  // the successor dies.
  std::map<const void*, PatchRecord> patches_;
  uint64_t tick_ = 0;
  Stats stats_;
};

/// Renders a column permutation / share-style integer vector for use
/// in cache spec strings ("0,2,1").
std::string SpecJoin(const std::vector<int>& xs);

}  // namespace adj::storage

#endif  // ADJ_STORAGE_INDEX_CACHE_H_
