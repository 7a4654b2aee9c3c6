// Persistence subsystem tests: the manifest's varint encoding, snapshot
// round trips (relations, name aliases, warm index payloads, mapped
// tries), the corrupt-file error paths (truncation, bit flips, wrong
// magic/version/endianness/value width — every one a clean Status,
// never a crash; this file runs under the ASan/UBSan CI leg),
// budget-bounded adoption, and the randomized save→open→every-strategy
// equivalence property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.h"
#include "common/rng.h"
#include "core/engine.h"
#include "persist/snapshot.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/trie.h"
#include "wcoj/leapfrog.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
}

/// A small catalog with deliberately unsorted rows (the snapshot must
/// store catalog relations in their own order) and an alias name
/// sharing the physical relation.
storage::Catalog MakeCatalog() {
  storage::Catalog db;
  storage::Relation edges((storage::Schema({0, 1})));
  edges.Append({5, 1});
  edges.Append({2, 9});
  edges.Append({2, 3});
  edges.Append({7, 7});
  EXPECT_TRUE(
      db.Apply(storage::WriteBatch().Create("E", std::move(edges))).ok());
  EXPECT_TRUE(db.Apply(storage::WriteBatch().AliasRelation("E2", "E")).ok());
  storage::Relation triple((storage::Schema({0, 1, 2})));
  triple.Append({1, 2, 3});
  triple.Append({1, 2, 4});
  EXPECT_TRUE(
      db.Apply(storage::WriteBatch().Create("T", std::move(triple))).ok());
  return db;
}

/// A warmed api::Database: builtin graph, one prepared triangle query
/// executed once on a single server, so the index cache holds the
/// permuted rows and tries Save() persists.
api::Database MakeWarmDatabase(uint64_t* count) {
  api::Database db;
  EXPECT_TRUE(db.LoadBuiltin("AS", 0.15).ok());
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  // Pin the cost model: on instrumented (sanitizer) builds the
  // measured seek rate can flip the plan to precompute, whose
  // materialized bag is heap-built — the warm-restart assertions
  // below need the plan to bind the base tries deterministically.
  session.options().beta_precomputed_override = 4e6;
  session.options().beta_raw_override = 4e6;
  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  EXPECT_TRUE(prepared.ok()) << prepared.status();
  api::Result r = prepared->Run();
  EXPECT_TRUE(r.ok()) << r.status();
  if (count != nullptr) *count = r.count();
  return db;
}

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint8_t> buf;
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      0xFFFFFFFF, 1ull << 40,
                            ~0ull};
  for (uint64_t v : cases) persist::PutVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : cases) {
    StatusOr<uint64_t> got = persist::GetVarint(buf, &pos);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncatedFails) {
  // The reader's guard against a manifest that ends inside a varint.
  std::vector<uint8_t> buf;
  persist::PutVarint(1ull << 40, &buf);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(persist::GetVarint(buf, &pos).ok());
}

TEST(SnapshotRoundTrip, RelationsNamesAndAliases) {
  const std::string path = TempPath("roundtrip.adjsnap");
  storage::Catalog db = MakeCatalog();
  StatusOr<persist::WriteStats> written =
      persist::SnapshotWriter::Write(db, path);
  ASSERT_TRUE(written.ok()) << written.status();
  EXPECT_EQ(written->relations, 2u);  // E/E2 share one physical
  EXPECT_EQ(written->names, 3u);

  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  storage::Catalog loaded;
  StatusOr<persist::SnapshotReader::LoadStats> stats =
      reader->LoadInto(&loaded);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->names, 3u);

  for (const std::string& name : db.Names()) {
    StatusOr<const storage::Relation*> want = db.Get(name);
    StatusOr<const storage::Relation*> got = loaded.Get(name);
    ASSERT_TRUE(want.ok() && got.ok()) << name;
    EXPECT_EQ((*want)->schema().ToString(), (*got)->schema().ToString());
    EXPECT_TRUE(std::ranges::equal((*want)->raw(), (*got)->raw())) << name;
  }
  // The alias still shares its physical relation after the round trip.
  StatusOr<std::shared_ptr<const storage::Relation>> e = loaded.GetShared("E");
  StatusOr<std::shared_ptr<const storage::Relation>> e2 =
      loaded.GetShared("E2");
  ASSERT_TRUE(e.ok() && e2.ok());
  EXPECT_EQ((*e)->RowsIdentity(), (*e2)->RowsIdentity());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, EmptyCatalog) {
  const std::string path = TempPath("empty.adjsnap");
  storage::Catalog db;
  ASSERT_TRUE(persist::SnapshotWriter::Write(db, path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->Verify().ok());
  storage::Catalog loaded;
  StatusOr<persist::SnapshotReader::LoadStats> stats =
      reader->LoadInto(&loaded);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_TRUE(loaded.Names().empty());
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, WarmIndexesServeMmapLoaded) {
  const std::string path = TempPath("warm.adjsnap");
  uint64_t in_memory_count = 0;
  api::Database db = MakeWarmDatabase(&in_memory_count);
  ASSERT_TRUE(db.Save(path).ok());

  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  EXPECT_EQ(restarted.relation_names(), db.relation_names());
  EXPECT_GT(restarted.relation_version("G"), 0u);
  EXPECT_GT(restarted.catalog().index_cache().stats().mmap_entries, 0u);

  api::Session session = restarted.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  session.options().beta_precomputed_override = 4e6;
  session.options().beta_raw_override = 4e6;
  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  api::Result r = prepared->Run();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), in_memory_count);
  EXPECT_EQ(r.index_builds(), 0u);
  EXPECT_GT(r.index_mmap_loaded(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, UnboundLabelingOfSavedOrderIsMmapHit) {
  // A snapshot stores indexes per (relation, column order), not per
  // atom: after Open, a labeling Save never saw binds the saved index.
  const std::string path = TempPath("labels.adjsnap");
  storage::Catalog db = MakeCatalog();
  const std::vector<int> rank = wcoj::AscendingRank(3);
  ASSERT_TRUE(wcoj::PrepareRelationShared(*db.GetShared("E"), {0, 1}, rank,
                                          db.index_cache())
                  .ok());
  ASSERT_TRUE(persist::SnapshotWriter::Write(db, path).ok());

  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  storage::Catalog loaded;
  ASSERT_TRUE(reader->LoadInto(&loaded).ok());
  storage::IndexBuildStats stats;
  StatusOr<wcoj::SharedPreparedRelation> bc = wcoj::PrepareRelationShared(
      *loaded.GetShared("E"), {1, 2}, rank, loaded.index_cache(), &stats);
  ASSERT_TRUE(bc.ok()) << bc.status();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.mmap_hits, 1u);
  EXPECT_TRUE(bc->trie().mmap_backed());
  EXPECT_EQ(bc->attrs, (std::vector<AttrId>{1, 2}));
  EXPECT_EQ(loaded.index_cache().stats().builds, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, MappedTriesAgreeWithBuild) {
  const std::string path = TempPath("tries.adjsnap");
  api::Database db = MakeWarmDatabase(nullptr);
  ASSERT_TRUE(db.Save(path).ok());

  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  std::vector<storage::IndexCache::ExportedPayload> payloads =
      restarted.catalog().index_cache().ExportPermutedIndexes();
  ASSERT_FALSE(payloads.empty());
  size_t tries = 0;
  for (const auto& payload : payloads) {
    if (payload.trie == nullptr) continue;
    ++tries;
    EXPECT_TRUE(payload.trie->mmap_backed());
    ASSERT_NE(payload.rows, nullptr);
    // The mapped spans must describe exactly the trie a fresh build
    // over the same canonical rows produces — array for array.
    storage::Trie built = storage::Trie::Build(*payload.rows);
    EXPECT_EQ(payload.trie->NumTuples(), built.NumTuples());
    const int depth = payload.rows->arity();
    for (int level = 0; level < depth; ++level) {
      // Levels may be stored block-compressed (the snapshot maps them
      // in place); decoded content must match the fresh build exactly.
      std::vector<Value> mapped_vals;
      std::vector<Value> built_vals;
      payload.trie->DecodeLevelInto(level, &mapped_vals);
      built.DecodeLevelInto(level, &built_vals);
      EXPECT_TRUE(mapped_vals == built_vals) << "values, level " << level;
      if (level + 1 < depth) {
        EXPECT_TRUE(std::ranges::equal(payload.trie->ChildBeginSpan(level),
                                       built.ChildBeginSpan(level)))
            << "child offsets, level " << level;
      }
    }
  }
  EXPECT_GT(tries, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, DeepVerifyPasses) {
  const std::string path = TempPath("verify.adjsnap");
  api::Database db = MakeWarmDatabase(nullptr);
  ASSERT_TRUE(db.Save(path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader->VerifyChecksums().ok());
  EXPECT_TRUE(reader->Verify().ok());
  // Every segment is one the reader maps or parses: the v3 mirror
  // kinds (5: relation dictionary, 6: payload block) are gone.
  for (const persist::SegmentInfo& seg : reader->segments()) {
    EXPECT_NE(static_cast<int>(seg.kind), 5);
    EXPECT_NE(static_cast<int>(seg.kind), 6);
  }
  std::remove(path.c_str());
}

TEST(SnapshotRoundTrip, BudgetBoundedAdoption) {
  const std::string path = TempPath("budget.adjsnap");
  uint64_t in_memory_count = 0;
  api::Database db = MakeWarmDatabase(&in_memory_count);
  ASSERT_TRUE(db.Save(path).ok());

  // A budget far below the payload sizes: adoption must respect it
  // (evicting coldest-first) and the catalog must still answer
  // correctly — indexes rebuild on demand.
  api::Database restarted;
  restarted.catalog().index_cache().set_budget_bytes(1024);
  ASSERT_TRUE(restarted.Open(path).ok());
  EXPECT_LE(restarted.catalog().index_cache().stats().resident_bytes, 1024u);

  api::Session session = restarted.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 64;
  api::Result r = session.Run("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), in_memory_count);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corrupt-file paths. Every mutation must produce a Status error from
// Open / VerifyChecksums / Database::Open — and a failed Database::Open
// must leave the target catalog untouched.

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.adjsnap");
    storage::Catalog db = MakeCatalog();
    ASSERT_TRUE(persist::SnapshotWriter::Write(db, path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GE(bytes_.size(), persist::kHeaderSize + persist::kFooterSize);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Expects that the file at path_ (already mutated) fails cleanly:
  /// either Open itself errors, or checksum verification does. Returns
  /// the rejecting Database::Open status.
  Status ExpectRejected(const std::string& what) {
    StatusOr<persist::SnapshotReader> reader =
        persist::SnapshotReader::Open(path_);
    if (reader.ok()) {
      EXPECT_FALSE(reader->VerifyChecksums().ok()) << what;
    } else {
      EXPECT_FALSE(reader.status().ok()) << what;
    }
    // The api-level Open (which always verifies) must reject too, and
    // must not disturb the database it was called on.
    api::Database db;
    storage::Relation keep((storage::Schema({0, 1})));
    keep.Append({1, 2});
    db.AddRelation("KEEP", std::move(keep));
    const uint64_t version = db.relation_version("KEEP");
    const Status opened = db.Open(path_);
    EXPECT_FALSE(opened.ok()) << what;
    EXPECT_EQ(db.relation_names(), std::vector<std::string>{"KEEP"}) << what;
    EXPECT_EQ(db.relation_version("KEEP"), version) << what;
    return opened;
  }

  std::string path_;
  std::vector<uint8_t> bytes_;
};

TEST_F(SnapshotCorruptionTest, TruncatedAtEveryRegion) {
  for (size_t keep :
       {size_t(0), size_t(1), persist::kHeaderSize - 1, persist::kHeaderSize,
        bytes_.size() / 2, bytes_.size() - persist::kFooterSize,
        bytes_.size() - 1}) {
    std::vector<uint8_t> cut(bytes_.begin(),
                             bytes_.begin() + std::ptrdiff_t(keep));
    WriteFile(path_, cut);
    ExpectRejected("truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST_F(SnapshotCorruptionTest, FlippedByteInEverySegment) {
  // Locate the real segments first (bytes between them are alignment
  // padding no reader ever consumes), then flip one byte in each.
  StatusOr<persist::SnapshotReader> pristine =
      persist::SnapshotReader::Open(path_);
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  for (const persist::SegmentInfo& seg : pristine->segments()) {
    if (seg.size == 0) continue;
    std::vector<uint8_t> mutated = bytes_;
    mutated[seg.offset + seg.size / 2] ^= 0x40;
    WriteFile(path_, mutated);
    ExpectRejected("flipped byte in segment at offset " +
                   std::to_string(seg.offset));
  }
}

TEST_F(SnapshotCorruptionTest, FlippedTocChecksumByte) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[mutated.size() - persist::kFooterSize + 16] ^= 0x01;
  WriteFile(path_, mutated);
  ExpectRejected("flipped TOC checksum");
}

TEST_F(SnapshotCorruptionTest, WrongMagic) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[0] = 'X';
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("magic"), std::string::npos);
  ExpectRejected("wrong magic");
}

TEST_F(SnapshotCorruptionTest, WrongVersion) {
  // The reader accepts kVersion only: the retired v2 layout, the v3
  // layout with verify-only mirror segments, the v4 layout with
  // per-labeling binding lists, and an unknown future version are all
  // refused up front with InvalidArgument, by the reader and by
  // Database::Open.
  ASSERT_EQ(bytes_[8], persist::kVersion);
  for (uint8_t version :
       {uint8_t(2), uint8_t(3), uint8_t(4), uint8_t(0x7F)}) {
    std::vector<uint8_t> mutated = bytes_;
    mutated[8] = version;  // version field: little-endian u32 at offset 8
    WriteFile(path_, mutated);
    StatusOr<persist::SnapshotReader> reader =
        persist::SnapshotReader::Open(path_);
    ASSERT_FALSE(reader.ok());
    EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reader.status().ToString().find("format version " +
                                              std::to_string(version)),
              std::string::npos)
        << reader.status();
    const Status opened =
        ExpectRejected("version " + std::to_string(version));
    EXPECT_EQ(opened.code(), StatusCode::kInvalidArgument) << opened;
  }
}

TEST_F(SnapshotCorruptionTest, ForeignEndianness) {
  std::vector<uint8_t> mutated = bytes_;
  std::reverse(mutated.begin() + 12, mutated.begin() + 16);  // endian tag
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("endian"), std::string::npos);
  ExpectRejected("foreign endianness");
}

TEST_F(SnapshotCorruptionTest, WrongValueWidth) {
  std::vector<uint8_t> mutated = bytes_;
  mutated[16] = uint8_t(mutated[16] * 2);  // value-size field
  WriteFile(path_, mutated);
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  ExpectRejected("wrong value width");
}

TEST_F(SnapshotCorruptionTest, MissingAndEmptyFiles) {
  api::Database db;
  EXPECT_FALSE(db.Open(TempPath("does_not_exist.adjsnap")).ok());
  WriteFile(path_, {});
  ExpectRejected("empty file");
}

// ---------------------------------------------------------------------------
// Randomized property: save → open → every strategy answers exactly
// like the NaiveJoin oracle over the original in-memory catalog.

struct RandomCase {
  query::Query query;
  storage::Catalog db;
};

RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed);
  const int num_attrs = 3 + int(rng.Uniform(2));  // 3..4
  const int num_atoms = 2 + int(rng.Uniform(3));  // 2..4

  RandomCase out;
  std::vector<query::Atom> atoms;
  AttrMask covered = 0;
  for (int i = 0; i < num_atoms; ++i) {
    const int arity = 2 + int(rng.Uniform(2));  // 2..3
    std::vector<AttrId> attrs;
    if (covered != 0) {
      std::vector<AttrId> pool;
      for (int a = 0; a < num_attrs; ++a) {
        if (covered & (AttrMask(1) << a)) pool.push_back(a);
      }
      attrs.push_back(pool[rng.Uniform(pool.size())]);
    }
    while (int(attrs.size()) < arity) {
      AttrId a = AttrId(rng.Uniform(uint64_t(num_attrs)));
      if (std::find(attrs.begin(), attrs.end(), a) == attrs.end()) {
        attrs.push_back(a);
      }
    }
    for (AttrId a : attrs) covered |= (AttrMask(1) << a);

    const std::string name = "R" + std::to_string(i);
    storage::Relation rel(
        (storage::Schema(std::vector<AttrId>(attrs.begin(), attrs.end()))));
    const uint64_t rows = 30 + rng.Uniform(90);
    const uint64_t domain = 5 + rng.Uniform(12);
    for (uint64_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < attrs.size(); ++c) {
        row.push_back(Value(rng.Uniform(domain)));
      }
      rel.Append(row);
    }
    rel.SortAndDedup();
    EXPECT_TRUE(
        out.db.Apply(storage::WriteBatch().Create(name, std::move(rel))).ok());
    atoms.push_back(query::Atom{name, storage::Schema(attrs)});
  }
  std::vector<std::string> used_names;
  std::vector<query::Atom> remapped;
  std::vector<AttrId> remap(size_t(num_attrs), -1);
  for (int a = 0; a < num_attrs; ++a) {
    if (covered & (AttrMask(1) << a)) {
      remap[size_t(a)] = AttrId(used_names.size());
      used_names.push_back(std::string(1, char('a' + a)));
    }
  }
  for (query::Atom& atom : atoms) {
    std::vector<AttrId> attrs;
    for (AttrId a : atom.schema.attrs()) attrs.push_back(remap[size_t(a)]);
    remapped.push_back(query::Atom{atom.relation, storage::Schema(attrs)});
  }
  out.query = query::Query::Make(used_names, remapped);
  return out;
}

class SnapshotPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotPropertyTest, ReopenedCatalogMatchesOracleOnAllStrategies) {
  RandomCase c = MakeRandomCase(uint64_t(GetParam()) * 104729 + 7);
  auto naive = wcoj::NaiveJoin(c.query, c.db, 5'000'000);
  ASSERT_TRUE(naive.ok()) << naive.status();
  const uint64_t truth = naive->size();

  const std::string path =
      TempPath("property_" + std::to_string(GetParam()) + ".adjsnap");
  ASSERT_TRUE(persist::SnapshotWriter::Write(c.db, path).ok());
  StatusOr<persist::SnapshotReader> reader =
      persist::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->Verify().ok());
  storage::Catalog loaded;
  ASSERT_TRUE(reader->LoadInto(&loaded).ok());

  core::Engine engine(&loaded);
  core::EngineOptions opts;
  opts.cluster.num_servers = 3;
  opts.num_samples = 32;
  for (core::Strategy s :
       {core::Strategy::kCommFirst, core::Strategy::kCachedCommFirst,
        core::Strategy::kBinaryJoin, core::Strategy::kBigJoin,
        core::Strategy::kCoOpt}) {
    auto report = engine.Run(c.query, s, opts);
    ASSERT_TRUE(report.ok())
        << core::StrategyName(s) << ": " << report.status();
    ASSERT_TRUE(report->ok())
        << core::StrategyName(s) << ": " << report->status;
    EXPECT_EQ(report->output_count, truth)
        << core::StrategyName(s) << " on " << c.query.ToString();
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotPropertyTest,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace adj
