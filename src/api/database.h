#ifndef ADJ_API_DATABASE_H_
#define ADJ_API_DATABASE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/relation.h"

namespace adj::api {

class Session;

/// The facade's entry point: owns the catalog and hands out sessions.
/// Load-then-serve lifecycle — load relations up front (builtin
/// datasets by name, SNAP edge lists from disk, or relations built in
/// memory), then open any number of sessions. Sessions share the
/// catalog read-only and keep it alive, so they may outlive the
/// Database.
///
/// Thread-safety: const access (catalog reads, OpenSession, running
/// queries through sessions) is safe from any number of threads,
/// because everything reachable through the catalog is immutable. The
/// load methods and Apply are the writers: writing while any session
/// or server is executing queries is a data race — quiesce first
/// (serve::Server::Apply does this with a reader/writer lock; outside
/// a server, simply don't run queries concurrently with writes). Every
/// write advances the touched relations' relation_version()s, which is
/// how plan caches detect exactly which entries went stale.
class Database {
 public:
  Database() : catalog_(std::make_shared<storage::Catalog>()) {}

  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// One-liner for the common case: the named builtin dataset (the
  /// Table I stand-ins WB/AS/WT/LJ/EN/OK) loaded as relation "G".
  static StatusOr<Database> OpenBuiltin(const std::string& dataset,
                                        double scale = 1.0);

  /// Generates builtin dataset `dataset` and registers it as `as`.
  Status LoadBuiltin(const std::string& dataset, double scale = 1.0,
                     const std::string& as = "G");

  /// Loads a SNAP-format text edge list and registers it as `as`.
  Status LoadEdgeList(const std::string& path, const std::string& as = "G");

  /// Registers an already-built relation (replacing any previous
  /// binding of `name`). Equivalent to a one-op WriteBatch with
  /// Create(name, rel) — prefer Apply for anything beyond a single
  /// full replacement.
  void AddRelation(const std::string& name, storage::Relation rel);

  /// The write API: applies `batch` — tuple inserts, tombstones, full
  /// creates, aliases — atomically. Validation happens before any
  /// mutation, so a failed Apply leaves the database untouched; on
  /// success every touched relation's relation_version() advances and
  /// untouched relations (and every index and prepared plan bound to
  /// them) stay exactly as they were. Tuple writes land as delta
  /// batches on the relation's immutable base: readers see the merged
  /// ("effective") relation immediately, while cached indexes of the
  /// pre-write version are delta-patched on their next bind instead of
  /// rebuilt (see storage::Catalog and docs/UPDATES.md).
  ///
  /// Thread-safety matches the load methods: Apply is a writer — do
  /// not run it concurrently with query execution. serve::Server::Apply
  /// is the synchronized form for a live server.
  Status Apply(const storage::WriteBatch& batch) {
    return catalog_->Apply(batch);
  }

  /// Accumulated delta rows at which a written relation folds its
  /// pending chain into a new base (storage::Catalog compaction,
  /// default 4096). A write-workload tuning knob: lower trades merge
  /// work on reads for more frequent O(base) folds.
  void set_delta_compact_threshold(uint64_t rows) {
    catalog_->set_delta_compact_threshold(rows);
  }

  /// Serializes the catalog into a versioned, checksummed snapshot:
  /// every relation plus every resident permuted-index artifact of
  /// the index cache, each written raw (mmap-able) and compressed.
  /// Atomic (temp file + rename); overwrites `path`.
  Status Save(const std::string& path) const;

  /// Restores a snapshot written by Save into this database: verifies
  /// header/TOC/segment checksums, then maps the file and registers
  /// relations and warm indexes that *view the mapped bytes in place*
  /// — no parsing, no trie builds; a prepared query right after Open
  /// binds mmap-loaded indexes (see Result::index_mmap_loaded).
  /// Registering bumps every restored name's relation_version() like
  /// any other reload, so serve-layer plan caches invalidate correctly.
  /// Snapshot contents are added to (and replace same-named entries
  /// of) the current catalog. Corrupt or incompatible files fail with a
  /// Status error and leave the catalog untouched.
  Status Open(const std::string& path);

  const storage::Catalog& catalog() const { return *catalog_; }
  std::vector<std::string> relation_names() const;
  uint64_t total_tuples() const;

  /// The version of `name`'s current binding (0 if absent): advances
  /// exactly when a write changes the relation's content or rebinds
  /// the name. This is the catalog's only freshness signal: a prepared
  /// plan is fresh iff every relation it reads still has the version
  /// it was prepared at (see PreparedQuery::dependency_versions and
  /// serve::PreparedQueryCache).
  uint64_t relation_version(const std::string& name) const {
    return catalog_->VersionOf(name);
  }

  /// A session with default options; customize via Session::options().
  Session OpenSession() const;

 private:
  std::shared_ptr<storage::Catalog> catalog_;
};

}  // namespace adj::api

#endif  // ADJ_API_DATABASE_H_
