#ifndef ADJ_STORAGE_TRIE_H_
#define ADJ_STORAGE_TRIE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/block_codec.h"
#include "storage/relation.h"

namespace adj::storage {

/// Sorted-array trie over a relation, stored level by level in CSR
/// (nested offsets) form — the layout Leapfrog TrieJoin iterates over
/// and the unit the Merge HCube variant ships pre-built ("a trie ...
/// can be implemented using three arrays", Sec. V).
///
/// Level l holds the distinct values of column l under each distinct
/// prefix of columns 0..l-1, concatenated in prefix order. For
/// l < arity-1, child_begin(l) maps each level-l entry to its range of
/// children in level l+1.
///
/// A "node" at level l is identified by its index into values(l); a
/// set of siblings is a half-open index range [lo, hi).
///
/// A trie either owns its arrays (Build) or views arrays living in
/// externally owned memory (FromMapped) — typically a persist snapshot
/// mapped into the process. Readers cannot tell the difference except
/// through mmap_backed(); every accessor goes through the same spans.
///
/// A level's *value* array additionally has two interchangeable
/// representations: raw (a flat Value array) or block-compressed
/// (blockcodec: fixed-size blocks of zigzag deltas with a per-block
/// min/offset skip table). Compress() picks per level by a density
/// heuristic; child offset arrays always stay raw so positions,
/// ChildRange and the executor's index arithmetic are untouched.
/// Seek/Find/ValueAt work on either form; LevelSpan/RangeSpan are
/// raw-only (callers branch to CompressedView — see wcoj/intersect.h
/// for the kernels that intersect compressed runs directly).
class Trie {
 public:
  /// Range of sibling indexes within one level.
  struct Range {
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint32_t size() const { return hi - lo; }
    bool empty() const { return lo >= hi; }
  };

  /// One level of an externally stored trie: spans into memory the
  /// caller guarantees outlives the Trie (via the keepalive handle).
  /// `child_begin` must be empty for the deepest level and have size
  /// values+1 otherwise. The value array arrives either raw (`values`)
  /// or block-compressed (`compressed` set: block_mins / block_starts
  /// / block_bytes + num_values, `values` empty) — the latter is how
  /// snapshot levels load with zero re-encode.
  struct MappedLevel {
    std::span<const Value> values;
    std::span<const uint32_t> child_begin;
    bool compressed = false;
    uint64_t num_values = 0;
    std::span<const Value> block_mins;
    std::span<const uint32_t> block_starts;
    std::span<const uint8_t> block_bytes;
  };

  /// Per-level compression policy for Compress(). A level is encoded
  /// only when it is big enough to matter and the encoding actually
  /// saves space; tiny or incompressible levels keep the raw array
  /// (decode scratch would cost more than it saves). The root level
  /// stays raw by default (min_level = 1): it participates as a
  /// *whole-level* run in every intersection at its variable, so
  /// probing it decodes blocks far faster than they amortize, while
  /// deeper levels — which hold the bulk of the bytes — are walked as
  /// small, block-local sibling ranges where the decode cache hits.
  struct CompressOptions {
    uint32_t min_level = 1;   // levels below this index stay raw
    uint32_t min_level_values = 1024;
    double max_ratio = 0.85;  // keep raw unless encoded <= ratio * raw
    bool force = false;       // tests: compress every non-empty level
  };

  Trie() = default;

  /// Builds from `rel`, which must be sorted and duplicate-free
  /// (Relation::SortAndDedup). O(rows * arity).
  static Trie Build(const Relation& rel);

  /// Builds the trie over prev's tuples minus `deletes` plus
  /// `inserts`, by splicing the (small) delta into prev's CSR arrays:
  /// sibling runs untouched by any delta row — in practice almost the
  /// whole trie — are appended as bulk span copies with their child
  /// offsets rebased, and only the nodes on a delta row's prefix path
  /// are re-merged. This is what makes refreshing a cached index after
  /// a point write cheaper than Build's per-row scan over all n rows
  /// (storage::IndexCache's trie-layer delta patch).
  ///
  /// Both delta relations must be sorted, duplicate-free, and permuted
  /// into prev's column order; their row sets must be disjoint
  /// (storage::Catalog::Apply guarantees all three). Deletes of absent
  /// rows and inserts of present rows are tolerated as no-ops, and
  /// prev may be mmap-backed — the result always owns its arrays.
  ///
  /// Compressed prev levels stay compressed in the result, and only
  /// touched blocks are re-encoded: every block strictly before the
  /// first delta-affected position is byte-identical under the
  /// deterministic encoder, so its encoded bytes splice verbatim.
  /// Blocks at and after it must re-encode regardless — an insert or
  /// delete shifts downstream positions across block boundaries.
  /// Max-range widths are recomputed from the merged child arrays
  /// (never inherited from prev), so a patch that widens a sibling
  /// range can never leave an executor arena undersized.
  static Trie PatchFrom(const Trie& prev, const Relation& inserts,
                        const Relation& deletes);

  /// Re-encodes `src`'s levels per `opts` (raw levels that pass the
  /// density heuristic become block-compressed; already-compressed
  /// levels are kept as-is). Takes by value: callers move a
  /// freshly-built trie in, and kept-raw arrays transfer without copy.
  static Trie Compress(Trie src, const CompressOptions& opts);
  static Trie Compress(Trie src);

  /// Wraps externally stored level arrays (e.g. segments of an mmap'ed
  /// snapshot) without copying. Validates the CSR structure — sizes,
  /// offset monotonicity, child bounds, sorted sibling runs, and for
  /// compressed levels the block skip-table/payload structure — and
  /// returns kInvalidArgument on any violation, so a corrupt snapshot
  /// surfaces as a Status instead of UB in the join inner loop.
  /// `keepalive` must own the viewed memory and is held for the trie's
  /// lifetime. max-range widths are recomputed, not trusted.
  static StatusOr<Trie> FromMapped(std::vector<MappedLevel> levels,
                                   std::shared_ptr<const void> keepalive);

  /// True when the level arrays view externally owned (mapped) memory
  /// rather than heap storage built by Build.
  bool mmap_backed() const { return keepalive_ != nullptr; }

  int arity() const { return static_cast<int>(levels_.size()); }
  bool empty() const { return arity() == 0 || LevelSize(0) == 0; }

  /// Number of values in one level (raw or compressed).
  uint64_t LevelSize(int level) const {
    const Level& l = levels_[level];
    return l.compressed ? l.comp().size : l.vals().size();
  }

  /// Number of tuples represented (size of the deepest level).
  uint64_t NumTuples() const {
    return levels_.empty() ? 0 : LevelSize(arity() - 1);
  }

  /// Total values stored across all levels ("three arrays" payload),
  /// counting compressed levels at their logical (decoded) size.
  uint64_t StorageValues() const;

  /// Actual resident footprint in bytes: raw arrays at full width,
  /// compressed levels at skip-table + payload size. This is what the
  /// IndexCache charges against its byte budget.
  uint64_t ResidentBytes() const;

  /// Bytes resident in block-compressed levels (0 for raw tries) and
  /// whether any level is compressed.
  uint64_t CompressedBytes() const;
  bool any_compressed() const;

  bool level_compressed(int level) const { return levels_[level].compressed; }

  /// Block-compressed view of one level; only valid when
  /// level_compressed(level).
  blockcodec::CompressedLevelView CompressedView(int level) const {
    return levels_[level].comp();
  }

  /// Decodes one whole level into `out` (raw levels copy). Cold-path
  /// helper for writers and tests; the join kernels decode per block.
  void DecodeLevelInto(int level, std::vector<Value>* out) const;

  std::span<const Value> values(int level) const {
    return levels_[level].vals();
  }

  /// Flat view over one whole level — the array the intersection
  /// kernels index into. Raw levels only; compressed levels go through
  /// CompressedView().
  std::span<const Value> LevelSpan(int level) const {
    return levels_[level].vals();
  }

  /// CSR child-offset array of one level (size values+1; empty for the
  /// deepest level). This is what the snapshot writer serializes.
  std::span<const uint32_t> ChildBeginSpan(int level) const {
    return levels_[level].kids();
  }

  /// A sibling range as a flat span (kernel input). Positions a kernel
  /// emits are relative to the span, i.e. to r.lo. Raw levels only.
  std::span<const Value> RangeSpan(int level, Range r) const {
    return levels_[level].vals().subspan(r.lo, r.size());
  }

  /// Largest sibling-range width at `level` (level 0: the root range
  /// size). Computed once at Build; lets a join executor size its
  /// per-level intersection buffers without rescanning the index.
  uint32_t MaxRangeWidth(int level) const {
    return levels_[level].max_range_width;
  }

  /// Sibling range of the root level.
  Range RootRange() const {
    return {0, static_cast<uint32_t>(levels_.empty() ? 0 : LevelSize(0))};
  }

  /// Children of entry `idx` of `level` as a range in level+1.
  Range ChildRange(int level, uint32_t idx) const {
    std::span<const uint32_t> begin = levels_[level].kids();
    return {begin[idx], begin[idx + 1]};
  }

  /// Value at one position. On a compressed level this decodes the
  /// containing block (O(block)); hot loops stream blocks instead.
  Value ValueAt(int level, uint32_t idx) const;

  /// ValueAt through a caller-held block-decode cache: a probe into a
  /// block the cache already holds costs an array read. Raw levels
  /// ignore the cache.
  Value ValueAt(int level, uint32_t idx,
                blockcodec::DecodeCache* cache) const;

  /// First index in [r.lo, r.hi) whose value is >= v, or r.hi if none.
  /// Galloping (exponential) search: O(log distance) — this is the
  /// "seek" primitive of Leapfrog and the probe the beta calibration
  /// measures. On compressed levels it gallops the block skip table
  /// (only block minima whose position falls inside the sibling range
  /// are comparable — a block may straddle run boundaries) and decodes
  /// a single block.
  uint32_t SeekInRange(int level, Range r, Value v) const;

  /// SeekInRange through a caller-held block-decode cache. Callers
  /// probing one level repeatedly (BigJoin's per-binding trie descent)
  /// keep a cache per level so adjacent probes skip the block decode.
  uint32_t SeekInRange(int level, Range r, Value v,
                       blockcodec::DecodeCache* cache) const;

  /// Index of exactly `v` in [r.lo, r.hi), or r.hi if absent.
  uint32_t FindInRange(int level, Range r, Value v) const;
  uint32_t FindInRange(int level, Range r, Value v,
                       blockcodec::DecodeCache* cache) const;

  std::string ToString() const;

 private:
  /// A level either owns its arrays (`*_store`, mapped == false) or
  /// views external memory (`*_map`, mapped == true). The two cases
  /// never mix, so default copy/move stay safe: spans never point into
  /// the level's own vectors. Orthogonally the value array is raw or
  /// block-compressed (`compressed`); child offsets are always raw.
  struct Level {
    std::vector<Value> values_store;
    // Size values+1; absent (empty) for the deepest level.
    std::vector<uint32_t> child_store;
    std::span<const Value> values_map;
    std::span<const uint32_t> child_map;
    // Block-compressed value array (owned / mapped mirror of the two
    // cases above). When `compressed`, the raw value members are empty.
    blockcodec::CompressedLevel comp_store;
    blockcodec::CompressedLevelView comp_map;
    bool mapped = false;
    bool compressed = false;
    // Widest sibling range within this level (level 0: values size).
    uint32_t max_range_width = 0;

    std::span<const Value> vals() const {
      return mapped ? values_map : std::span<const Value>(values_store);
    }
    std::span<const uint32_t> kids() const {
      return mapped ? child_map : std::span<const uint32_t>(child_store);
    }
    blockcodec::CompressedLevelView comp() const {
      return mapped ? comp_map : comp_store.View();
    }
  };
  /// Fills every level's max_range_width from the child arrays (the
  /// final step of Build and PatchFrom).
  void FinishWidths();

  std::vector<Level> levels_;
  // Owns the memory behind mapped levels; null for built tries.
  std::shared_ptr<const void> keepalive_;
};

}  // namespace adj::storage

#endif  // ADJ_STORAGE_TRIE_H_
