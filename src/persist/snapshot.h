#ifndef ADJ_PERSIST_SNAPSHOT_H_
#define ADJ_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "persist/mmap_file.h"
#include "storage/catalog.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/trie.h"

namespace adj::persist {

/// Snapshot file format v4 — the build-once / mmap-many layer
/// (docs/PERSISTENCE.md has the full layout diagram):
///
///   header | segment* | manifest segment | TOC segment | footer
///
/// The manifest records each catalog name's full delta-aware entry
/// state — the immutable base relation, the ordered append/tombstone
/// delta chain (rows inline in the manifest; chains are bounded by the
/// compaction threshold), the effective relation, and the per-relation
/// version — so Save/Open round-trips a *written-to* catalog: a
/// restored entry keeps its mmap-backed base and re-applies only
/// O(delta) heap rows.
///
/// Each trie level is written exactly once, in its execution form:
/// raw levels as the raw array, compressed levels as their three
/// blockcodec arrays (per-block minima, byte offsets, packed payload)
/// that `Trie::FromMapped` views in place — a warm restart serves
/// compressed tries with zero re-encode. Relation and payload rows are
/// stored once, as their raw arrays.
///
/// All raw array segments use the exact little-endian layout
/// `Relation::AliasSpan` and `Trie::FromMapped` can view in place,
/// 64-byte aligned so a reopened process serves from the page cache
/// with zero parsing. The footer points at a TOC listing every
/// segment's offset, size, and checksum, so individual segments can
/// be mapped (and later paged) on demand.
///
/// Versioning policy: `kVersion` bumps on any layout change; the
/// reader accepts `kVersion` only and rejects anything else, as well
/// as snapshots written on a platform with different endianness or
/// Value width.

inline constexpr char kMagic[8] = {'A', 'D', 'J', 'S', 'N', 'A', 'P', '1'};
inline constexpr char kFooterMagic[8] = {'A', 'D', 'J', 'S', 'E', 'O', 'F',
                                         '1'};
inline constexpr uint32_t kVersion = 4;
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr uint64_t kHeaderSize = 32;
inline constexpr uint64_t kFooterSize = 40;
inline constexpr uint64_t kSegmentAlign = 64;

/// Segment kinds recorded in the TOC (informative; the manifest is
/// what binds segments to structures). Numbers are part of the file
/// format; 5-7 belonged to retired verify-only mirrors and stay unused.
enum class SegmentKind : uint8_t {
  kManifest = 0,
  kRelationRows = 1,   // raw rows of a catalog relation
  kPayloadRows = 2,    // raw rows of a permuted index payload
  kTrieValues = 3,     // raw value array of one trie level
  kTrieChild = 4,      // raw CSR child-offset array of one trie level
  // Block-compressed trie level (the execution format, mapped in
  // place by Trie::FromMapped — see storage/block_codec.h).
  kTrieLevelMins = 8,    // per-block first values (skip table)
  kTrieLevelStarts = 9,  // per-block payload byte offsets (skip table)
  kTrieLevelBytes = 10,  // packed zigzag-delta payload
};

/// One TOC row.
struct SegmentInfo {
  SegmentKind kind = SegmentKind::kManifest;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

/// Fast content checksum: Mix64-chained over 64-bit words (seeded with
/// the length, tail bytes folded in) — order-sensitive, ~word speed.
uint64_t Checksum(const uint8_t* data, size_t n);

/// What Write() put into the file, for logs and bench records.
struct WriteStats {
  uint64_t relations = 0;  // distinct physical relations (bases + effectives)
  uint64_t names = 0;      // name bindings (>= relations, aliases)
  uint64_t file_bytes = 0;
  uint64_t compressed_levels = 0;  // trie levels stored block-compressed
};

/// Serializes a catalog — relations, name bindings, and every resident
/// permuted-index payload of its IndexCache — into one snapshot file.
class SnapshotWriter {
 public:
  /// Writes atomically (temp file + rename). Overwrites `path`.
  static StatusOr<WriteStats> Write(const storage::Catalog& catalog,
                                    const std::string& path);
};

/// Opens a snapshot and restores it into a catalog. Open() maps the
/// file and validates header, footer, TOC, and manifest structure
/// (every segment bounds-checked) without touching payload bytes;
/// VerifyChecksums() reads every segment once; LoadInto() aliases the
/// mapped arrays into relations/tries and adopts them into the
/// catalog's IndexCache. All failure paths are Status errors — a
/// corrupt file never crashes the process.
class SnapshotReader {
 public:
  SnapshotReader() = default;

  static StatusOr<SnapshotReader> Open(const std::string& path);

  const std::vector<SegmentInfo>& segments() const { return segments_; }
  const std::shared_ptr<const MappedFile>& file() const { return file_; }

  /// Recomputes and compares every segment checksum (including the
  /// TOC's own, already checked at Open).
  Status VerifyChecksums() const;

  /// Deep verification: VerifyChecksums, then maps every stored trie
  /// through `Trie::FromMapped`'s structural validation and checks its
  /// tuple count against the payload rows. The strongest offline
  /// integrity check; used by tests, not by the serving path.
  Status Verify() const;

  struct LoadStats {
    uint64_t relations = 0;  // distinct physical relations
    uint64_t names = 0;      // name bindings restored
  };

  /// Restores the snapshot into `catalog`: Catalog::Restore every
  /// name's saved entry state — base, pending delta chain, effective,
  /// version (this bumps the name's version, like any reload) — then
  /// adopts index payloads, hottest last, into the catalog's
  /// IndexCache under its byte budget.
  /// Relations and tries view the mapped file; the MappedFile handle
  /// is kept alive by them. Delta-chain rows are small (bounded by the
  /// compaction threshold) and live on the heap.
  StatusOr<LoadStats> LoadInto(storage::Catalog* catalog) const;

 private:
  struct PhysRel {
    storage::Schema schema;
    uint64_t row_count = 0;
    uint32_t rows_seg = 0;
  };
  struct TrieLevelRef {
    uint64_t values_count = 0;
    bool compressed = false;  // level stored in blockcodec form
    uint32_t values_seg = 0;  // raw levels only
    int64_t mins_seg = -1;    // compressed levels only
    int64_t starts_seg = -1;
    int64_t bytes_seg = -1;
    int64_t child_seg = -1;  // -1: deepest level
  };
  struct Payload {
    uint32_t phys = 0;
    std::vector<int> perm;
    uint64_t row_count = 0;
    uint32_t rows_seg = 0;
    bool has_trie = false;
    std::vector<TrieLevelRef> levels;
    std::vector<storage::IndexCache::Binding> bindings;
  };

  StatusOr<std::span<const uint8_t>> SegmentBytes(uint64_t index) const;
  StatusOr<std::span<const Value>> SegmentValues(
      uint64_t index) const;
  StatusOr<std::span<const uint32_t>> SegmentOffsets(uint64_t index) const;

  /// Views one payload's stored trie levels (raw or compressed per
  /// level) through `Trie::FromMapped`'s structural validation and
  /// checks the tuple count against the payload rows. Shared by Verify
  /// and LoadInto.
  StatusOr<storage::Trie> MapTrie(const Payload& p) const;

  /// One delta batch's rows as decoded from the manifest (row-major,
  /// base arity), turned into DeltaBatch relations at load time.
  struct DeltaRows {
    std::vector<Value> inserts;
    std::vector<Value> deletes;
  };
  /// One name's saved entry state, by physical-relation index.
  struct NameEntry {
    std::string name;
    uint32_t base = 0;
    uint32_t effective = 0;
    uint64_t version = 0;
    std::vector<DeltaRows> deltas;
  };

  std::shared_ptr<const MappedFile> file_;
  std::vector<SegmentInfo> segments_;
  std::vector<PhysRel> relations_;
  std::vector<NameEntry> names_;
  std::vector<Payload> payloads_;  // ascending hotness (LRU order)
};

}  // namespace adj::persist

#endif  // ADJ_PERSIST_SNAPSHOT_H_
