// Delta-aware update coverage: WriteBatch/Apply semantics (atomicity,
// per-name versions, compaction, tombstones of delta rows), the
// MergeDeltaRows / ComposeDelta kernels against set oracles, delta-
// patched tries and HCube shards against scratch builds, snapshot
// round-trips of written-to catalogs, and the randomized mixed
// read/write property suite — interleaved batches and prepared runs
// across all five strategies must match a rebuild-from-scratch oracle
// after every write. Runs under the ASan/UBSan leg like every test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "common/rng.h"
#include "core/spj.h"
#include "dataset/generators.h"
#include "dist/cluster.h"
#include "dist/hcube.h"
#include "storage/catalog.h"
#include "storage/trie.h"
#include "storage/write_batch.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

using storage::Catalog;
using storage::DeltaBatch;
using storage::Relation;
using storage::Schema;
using storage::WriteBatch;

using Edge = std::pair<Value, Value>;

Schema EdgeSchema() { return Schema({0, 1}); }

Relation FromEdges(const std::set<Edge>& edges) {
  Relation rel(EdgeSchema());
  for (const auto& [a, b] : edges) rel.Append({a, b});
  return rel;
}

std::set<Edge> ToEdges(const Relation& rel) {
  std::set<Edge> out;
  for (uint64_t i = 0; i < rel.size(); ++i) {
    out.emplace(rel.Row(i)[0], rel.Row(i)[1]);
  }
  return out;
}

/// Ground truth for a query over an explicit edge set: a fresh catalog
/// built from scratch (no deltas, no caches) plus the naive evaluator,
/// with the query's equality selections applied to its output.
uint64_t RebuildOracle(const std::set<Edge>& edges, const std::string& text) {
  Catalog db;
  EXPECT_TRUE(db.Apply(WriteBatch().Create("G", FromEdges(edges))).ok());
  StatusOr<core::SpjQuery> spj = core::ParseSpj(text);
  EXPECT_TRUE(spj.ok()) << spj.status();
  StatusOr<Relation> joined = wcoj::NaiveJoin(spj->join, db);
  EXPECT_TRUE(joined.ok()) << joined.status();
  if (!joined.ok()) return 0;
  uint64_t count = 0;
  for (uint64_t r = 0; r < joined->size(); ++r) {
    bool keep = true;
    for (const core::SpjQuery::Selection& sel : spj->selections) {
      keep = keep && joined->At(r, joined->schema().PositionOf(sel.attr)) ==
                         sel.value;
    }
    count += keep ? 1 : 0;
  }
  return count;
}

// ---------------------------------------------------------------------------
// WriteBatch / Catalog::Apply semantics

TEST(WriteBatchTest, ApplyIsAtomic) {
  Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", FromEdges({{1, 2}, {2, 3}}))).ok());
  const uint64_t version = db.VersionOf("G");
  const std::vector<std::string> names = db.Names();

  // Valid prefix + invalid tail: nothing may stick.
  WriteBatch batch;
  batch.Insert("G", {7, 8});
  batch.Insert("G", {9});  // arity mismatch
  EXPECT_FALSE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {2, 3}}));

  // A create queued before a failing op is discarded with it.
  EXPECT_FALSE(db.Apply(WriteBatch().Create(
      "H", FromEdges({{4, 5}})).Insert("NoSuch", {1, 2})).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(db.VersionOf("H"), 0u);
  EXPECT_EQ(db.Names(), names);
}

TEST(WriteBatchTest, VersionsBumpOnlyWrittenNames) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", FromEdges({{1, 2}}))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("H", FromEdges({{3, 4}}))).ok());
  const uint64_t g_version = db.VersionOf("G");
  const uint64_t h_version = db.VersionOf("H");

  WriteBatch batch;
  batch.Insert("H", {5, 6});
  ASSERT_TRUE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), g_version);
  EXPECT_GT(db.VersionOf("H"), h_version);
  EXPECT_EQ(db.VersionOf("absent"), 0u);
}

TEST(WriteBatchTest, ContentNoOpWriteKeepsVersion) {
  Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", FromEdges({{1, 2}, {2, 3}}))).ok());
  const uint64_t version = db.VersionOf("G");

  // Inserting a present tuple and deleting an absent one change no
  // content; the relation must still read as unwritten so caches over
  // it stay fresh.
  WriteBatch batch;
  batch.Insert("G", {1, 2});
  batch.Delete("G", {100, 200});
  ASSERT_TRUE(db.Apply(batch).ok());
  EXPECT_EQ(db.VersionOf("G"), version);
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {2, 3}}));
}

TEST(WriteBatchTest, DeltaChainCompactsAtThreshold) {
  Catalog db;
  db.set_delta_compact_threshold(4);
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", FromEdges({{1, 1}}))).ok());

  // Below the threshold the chain is pending; crossing it folds the
  // chain into a new base.
  WriteBatch first;
  first.Insert("G", {2, 2});
  first.Insert("G", {3, 3});
  ASSERT_TRUE(db.Apply(first).ok());
  StatusOr<Catalog::EntryState> mid = db.Inspect("G");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->deltas.size(), 1u);
  EXPECT_NE(mid->base.get(), mid->effective.get());

  WriteBatch second;
  second.Insert("G", {4, 4});
  second.Delete("G", {1, 1});
  ASSERT_TRUE(db.Apply(second).ok());
  StatusOr<Catalog::EntryState> folded = db.Inspect("G");
  ASSERT_TRUE(folded.ok());
  EXPECT_TRUE(folded->deltas.empty());
  EXPECT_EQ(folded->base.get(), folded->effective.get());
  EXPECT_EQ(ToEdges(**db.Get("G")),
            (std::set<Edge>{{2, 2}, {3, 3}, {4, 4}}));
}

TEST(WriteBatchTest, TombstoneOfADeltaRow) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", FromEdges({{1, 2}}))).ok());

  // {5,6} only ever exists as a delta insert; the later tombstone must
  // cancel it out of the *chain*, not just the base.
  WriteBatch add;
  add.Insert("G", {5, 6});
  ASSERT_TRUE(db.Apply(add).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}, {5, 6}}));

  WriteBatch del;
  del.Delete("G", {5, 6});
  ASSERT_TRUE(db.Apply(del).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}}));

  // And the reverse order inside ONE batch: insert-then-tombstone of
  // the same tuple coalesces to a no-op for that tuple.
  WriteBatch both;
  both.Insert("G", {7, 8});
  both.Delete("G", {7, 8});
  ASSERT_TRUE(db.Apply(both).ok());
  EXPECT_EQ(ToEdges(**db.Get("G")), (std::set<Edge>{{1, 2}}));
}

// ---------------------------------------------------------------------------
// Merge kernels against set oracles

TEST(MergeDeltaRowsTest, MatchesSetOracleOnRandomInputs) {
  Rng rng(12021);
  for (int round = 0; round < 50; ++round) {
    const int arity = 1 + int(rng.Uniform(3));
    auto random_rel = [&](uint64_t rows) {
      Relation rel(Schema([&] {
        std::vector<AttrId> attrs(arity);
        for (int i = 0; i < arity; ++i) attrs[i] = i;
        return attrs;
      }()));
      for (uint64_t r = 0; r < rows; ++r) {
        std::vector<Value> tuple(arity);
        for (int c = 0; c < arity; ++c) tuple[c] = Value(rng.Uniform(12));
        rel.Append(tuple);
      }
      rel.SortAndDedup();
      return rel;
    };
    Relation base = random_rel(rng.Uniform(60));
    Relation inserts = random_rel(rng.Uniform(10));
    Relation deletes = random_rel(rng.Uniform(10));
    // Keep the two delta sides disjoint, as Catalog::Apply guarantees.
    {
      std::vector<Value> kept;
      for (uint64_t i = 0; i < deletes.size(); ++i) {
        std::span<const Value> row = deletes.Row(i);
        bool inserted = false;
        for (uint64_t j = 0; j < inserts.size(); ++j) {
          if (std::equal(row.begin(), row.end(), inserts.Row(j).begin())) {
            inserted = true;
            break;
          }
        }
        if (!inserted) kept.insert(kept.end(), row.begin(), row.end());
      }
      deletes.mutable_raw() = std::move(kept);
    }

    std::vector<Value> merged;
    storage::MergeDeltaRows(base.raw(), arity, inserts.raw(), deletes.raw(),
                            &merged);

    std::set<std::vector<Value>> oracle;
    auto rows_of = [&](const Relation& rel) {
      std::set<std::vector<Value>> out;
      for (uint64_t i = 0; i < rel.size(); ++i) {
        out.emplace(rel.Row(i).begin(), rel.Row(i).end());
      }
      return out;
    };
    oracle = rows_of(base);
    for (const auto& row : rows_of(deletes)) oracle.erase(row);
    for (const auto& row : rows_of(inserts)) oracle.insert(row);

    std::vector<Value> expect;
    for (const auto& row : oracle) {
      expect.insert(expect.end(), row.begin(), row.end());
    }
    EXPECT_EQ(merged, expect) << "round " << round << " arity " << arity;
  }
}

TEST(TriePatchTest, MatchesScratchBuildOnRandomDeltas) {
  Rng rng(4242);
  for (int round = 0; round < 80; ++round) {
    const int arity = 1 + int(rng.Uniform(3));
    std::vector<AttrId> attrs(arity);
    for (int i = 0; i < arity; ++i) attrs[i] = i;
    const Schema schema(attrs);
    auto random_row = [&](uint64_t domain) {
      std::vector<Value> row(arity);
      for (int c = 0; c < arity; ++c) row[c] = Value(rng.Uniform(domain));
      return row;
    };

    Relation base(schema);
    const uint64_t rows = rng.Uniform(80);
    for (uint64_t r = 0; r < rows; ++r) base.Append(random_row(9));
    base.SortAndDedup();

    // Deletes: a sample of real rows plus a couple of dangling ones
    // (absent rows -- PatchFrom must treat them as no-ops, matching
    // MergeDeltaRows). Inserts: random rows outside the delete set.
    Relation deletes(schema);
    for (uint64_t r = 0; r < base.size(); ++r) {
      if (rng.Uniform(4) == 0) {
        std::span<const Value> row = base.Row(r);
        deletes.Append(std::vector<Value>(row.begin(), row.end()));
      }
    }
    for (int i = 0; i < 2; ++i) deletes.Append(random_row(14));
    deletes.SortAndDedup();
    auto contains = [&](const Relation& rel, std::span<const Value> row) {
      for (uint64_t r = 0; r < rel.size(); ++r) {
        if (std::equal(row.begin(), row.end(), rel.Row(r).begin())) {
          return true;
        }
      }
      return false;
    };
    Relation inserts(schema);
    for (uint64_t i = rng.Uniform(12); i > 0; --i) {
      std::vector<Value> row = random_row(12);
      if (!contains(deletes, row)) inserts.Append(row);
    }
    inserts.SortAndDedup();

    std::vector<Value> merged_raw;
    storage::MergeDeltaRows(base.raw(), arity, inserts.raw(), deletes.raw(),
                            &merged_raw);
    Relation merged(schema);
    merged.mutable_raw() = std::move(merged_raw);

    const storage::Trie patched =
        storage::Trie::PatchFrom(storage::Trie::Build(base), inserts, deletes);
    const storage::Trie built = storage::Trie::Build(merged);
    ASSERT_EQ(patched.arity(), built.arity()) << "round " << round;
    ASSERT_EQ(patched.NumTuples(), built.NumTuples()) << "round " << round;
    for (int l = 0; l < built.arity(); ++l) {
      const auto pv = patched.LevelSpan(l), bv = built.LevelSpan(l);
      ASSERT_TRUE(std::equal(pv.begin(), pv.end(), bv.begin(), bv.end()))
          << "values differ at level " << l << " round " << round;
      const auto pk = patched.ChildBeginSpan(l), bk = built.ChildBeginSpan(l);
      ASSERT_TRUE(std::equal(pk.begin(), pk.end(), bk.begin(), bk.end()))
          << "child offsets differ at level " << l << " round " << round;
      EXPECT_EQ(patched.MaxRangeWidth(l), built.MaxRangeWidth(l))
          << "width differs at level " << l << " round " << round;
    }
  }
}

/// Shuffles `index` (bound to attributes {0, 1}) onto a fresh
/// 4-server cluster; through `cache` when given, else inline.
dist::Cluster ShuffleIndex(
    const std::shared_ptr<const storage::PreparedIndex>& index,
    const dist::ShareVector& share, dist::HCubeVariant variant,
    storage::IndexCache* cache, storage::IndexBuildStats* stats,
    dist::CommStats* comm) {
  dist::HCubeInput in = dist::HCubeInput::Indexed(index, {0, 1});
  dist::ClusterConfig config;
  config.num_servers = 4;
  dist::Cluster cluster(config);
  StatusOr<dist::HCubeResult> shuffled =
      dist::HCubeShuffle({in}, share, variant, &cluster, cache, stats);
  EXPECT_TRUE(shuffled.ok()) << shuffled.status();
  if (shuffled.ok()) *comm = shuffled->comm;
  return cluster;
}

TEST(ShardPatchTest, PatchedShardsEqualScratchBuildOnRandomDeltas) {
  // After a write, HCube shard artifacts move forward by routing only
  // the delta. Per server, the patched fragment must be structurally
  // the fragment a scratch BuildSharded of the new version produces:
  // the same rows, the same trie arrays, the same modeled wire bytes —
  // under every variant, for shares that partition on one attribute,
  // on both, or duplicate along a free one, and for two column orders.
  const std::vector<dist::ShareVector> shares = {
      {{2, 2}}, {{4, 1}}, {{1, 3}}, {{2, 1, 3}}};
  const dist::HCubeVariant variants[] = {dist::HCubeVariant::kPush,
                                         dist::HCubeVariant::kPull,
                                         dist::HCubeVariant::kMerge};
  Rng rng(9090);
  for (dist::HCubeVariant variant : variants) {
    for (const dist::ShareVector& share : shares) {
      for (const std::vector<int>& perm :
           {std::vector<int>{0, 1}, std::vector<int>{1, 0}}) {
        const std::string where = std::string(dist::HCubeVariantName(variant)) +
                                  " share " + share.ToString() + " perm " +
                                  storage::SpecJoin(perm);
        Catalog db;
        db.set_delta_compact_threshold(1 << 20);
        ASSERT_TRUE(db.Apply(WriteBatch().Create(
                        "G", dataset::ErdosRenyi(30, 160, rng))).ok());
        std::set<Edge> mirror = ToEdges(**db.Get("G"));
        auto bind = [&] {
          StatusOr<std::shared_ptr<const storage::PreparedIndex>> index =
              db.index_cache().GetPermuted(*db.GetShared("G"), perm);
          EXPECT_TRUE(index.ok()) << index.status();
          return *index;
        };
        dist::CommStats comm;
        // The shards every later round patches forward from.
        ShuffleIndex(bind(), share, variant, &db.index_cache(), nullptr,
                     &comm);
        for (int round = 0; round < 4; ++round) {
          // Round 2 applies two batches before the next read: the
          // shards must patch across the composed delta.
          for (int batch_no = 0; batch_no < (round == 2 ? 2 : 1);
               ++batch_no) {
            WriteBatch batch;
            for (int i = 0; i < 6; ++i) {
              if (rng.Uniform(3) == 0 && !mirror.empty()) {
                auto victim = mirror.begin();
                std::advance(victim, rng.Uniform(mirror.size()));
                batch.Delete("G", {victim->first, victim->second});
                mirror.erase(victim);
              } else {
                const Value a = Value(rng.Uniform(40));
                const Value b = Value(rng.Uniform(40));
                batch.Insert("G", {a, b});
                mirror.insert({a, b});
              }
            }
            ASSERT_TRUE(db.Apply(batch).ok());
          }
          storage::IndexBuildStats stats;
          dist::CommStats patched_comm;
          dist::Cluster patched = ShuffleIndex(
              bind(), share, variant, &db.index_cache(), &stats,
              &patched_comm);
          EXPECT_EQ(stats.builds, 0u) << where << " round " << round;
          EXPECT_EQ(stats.patched, 1u) << where << " round " << round;

          // The scratch build: the same rows under a fresh identity,
          // shuffled inline.
          Catalog scratch_db;
          ASSERT_TRUE(scratch_db.Apply(WriteBatch().Create(
                          "G", FromEdges(mirror))).ok());
          StatusOr<std::shared_ptr<const storage::PreparedIndex>> scratch =
              scratch_db.index_cache().GetPermuted(
                  *scratch_db.GetShared("G"), perm);
          ASSERT_TRUE(scratch.ok()) << scratch.status();
          dist::CommStats scratch_comm;
          dist::Cluster built = ShuffleIndex(*scratch, share, variant,
                                             nullptr, nullptr, &scratch_comm);
          EXPECT_EQ(patched_comm.tuple_copies, scratch_comm.tuple_copies)
              << where << " round " << round;
          EXPECT_EQ(patched_comm.blocks, scratch_comm.blocks) << where;
          EXPECT_EQ(patched_comm.bytes, scratch_comm.bytes)
              << "wire bytes differ: " << where << " round " << round;
          for (int s = 0; s < 4; ++s) {
            const Relation& prow = *patched.shard(s).atoms[0];
            const Relation& brow = *built.shard(s).atoms[0];
            ASSERT_TRUE(std::ranges::equal(prow.raw(), brow.raw()))
                << "rows differ on server " << s << ": " << where
                << " round " << round;
            const storage::Trie& pt = *patched.shard(s).tries[0];
            const storage::Trie& bt = *built.shard(s).tries[0];
            ASSERT_EQ(pt.arity(), bt.arity()) << where << " server " << s;
            for (int l = 0; l < bt.arity(); ++l) {
              const auto pv = pt.LevelSpan(l), bv = bt.LevelSpan(l);
              ASSERT_TRUE(std::ranges::equal(pv, bv))
                  << "trie values differ at level " << l << " on server "
                  << s << ": " << where;
              const auto pk = pt.ChildBeginSpan(l), bk = bt.ChildBeginSpan(l);
              ASSERT_TRUE(std::ranges::equal(pk, bk))
                  << "child offsets differ at level " << l << " on server "
                  << s << ": " << where;
            }
          }
        }
      }
    }
  }
}

TEST(ComposeDeltaTest, CompositionEqualsSequentialApplication) {
  Rng rng(777);
  for (int round = 0; round < 30; ++round) {
    Catalog sequential;
    ASSERT_TRUE(sequential.Apply(
        WriteBatch().Create("G", dataset::ErdosRenyi(12, 30, rng))).ok());
    const std::set<Edge> start = ToEdges(**sequential.Get("G"));

    auto random_batch = [&] {
      WriteBatch batch;
      for (int i = 0; i < 4; ++i) {
        Value a = Value(rng.Uniform(12)), b = Value(rng.Uniform(12));
        if (rng.Uniform(2) == 0) {
          batch.Insert("G", {a, b});
        } else {
          batch.Delete("G", {a, b});
        }
      }
      return batch;
    };
    WriteBatch first = random_batch();
    WriteBatch second = random_batch();
    ASSERT_TRUE(sequential.Apply(first).ok());
    ASSERT_TRUE(sequential.Apply(second).ok());

    // ComposeDelta is exercised through the catalog: two chained
    // batches against one relation produce the same content as the
    // composed net delta the index cache patches with (checked against
    // the sequential result via a third, batch-merged application).
    Catalog merged;
    ASSERT_TRUE(merged.Apply(WriteBatch().Create("G", FromEdges(start))).ok());
    ASSERT_TRUE(merged.Apply(first).ok());
    ASSERT_TRUE(merged.Apply(second).ok());
    EXPECT_EQ(ToEdges(**merged.Get("G")), ToEdges(**sequential.Get("G")));

    // And the kernel directly: compose two random DeltaBatches, apply
    // once, compare with applying them one after the other.
    auto delta_of = [&](int rows) {
      DeltaBatch d;
      d.inserts = Relation(EdgeSchema());
      d.deletes = Relation(EdgeSchema());
      for (int i = 0; i < rows; ++i) {
        Value a = Value(rng.Uniform(10)), b = Value(rng.Uniform(10));
        if (rng.Uniform(2) == 0) {
          d.inserts.Append({a, b});
        } else {
          d.deletes.Append({a, b});
        }
      }
      d.inserts.SortAndDedup();
      d.deletes.SortAndDedup();
      // Disjoint sides, as the catalog maintains.
      std::set<Edge> ins = ToEdges(d.inserts);
      Relation deletes(EdgeSchema());
      for (const auto& [a, b] : ToEdges(d.deletes)) {
        if (ins.find({a, b}) == ins.end()) deletes.Append({a, b});
      }
      d.deletes = std::move(deletes);
      return d;
    };
    DeltaBatch a = delta_of(3 + int(rng.Uniform(4)));
    DeltaBatch b = delta_of(3 + int(rng.Uniform(4)));
    Relation base = FromEdges(start);
    base.SortAndDedup();

    std::vector<Value> step1, step2;
    storage::MergeDeltaRows(base.raw(), 2, a.inserts.raw(), a.deletes.raw(),
                            &step1);
    storage::MergeDeltaRows(step1, 2, b.inserts.raw(), b.deletes.raw(),
                            &step2);

    DeltaBatch net = storage::ComposeDelta(a, b);
    std::vector<Value> direct;
    storage::MergeDeltaRows(base.raw(), 2, net.inserts.raw(),
                            net.deletes.raw(), &direct);
    EXPECT_EQ(direct, step2) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Snapshot round-trip of a written-to catalog (format v2)

TEST(UpdatesSnapshotTest, SaveOpenRoundTripsPendingDeltaChain) {
  const std::string path = ::testing::TempDir() + "/updates_chain.snap";
  Rng rng(5);
  std::set<Edge> expect;
  {
    api::Database db;
    db.AddRelation("G", dataset::ErdosRenyi(20, 60, rng));
    db.set_delta_compact_threshold(1 << 20);  // keep the chain
    storage::WriteBatch batch;
    batch.Insert("G", {100, 101});
    batch.Insert("G", {101, 102});
    ASSERT_TRUE(db.Apply(batch).ok());
    storage::WriteBatch more;
    more.Insert("G", {102, 103});
    more.Delete("G", {100, 101});
    ASSERT_TRUE(db.Apply(more).ok());
    StatusOr<Catalog::EntryState> state = db.catalog().Inspect("G");
    ASSERT_TRUE(state.ok());
    ASSERT_EQ(state->deltas.size(), 2u);  // the chain is really pending
    expect = ToEdges(**db.catalog().Get("G"));
    ASSERT_TRUE(db.Save(path).ok());
  }
  {
    api::Database db;
    ASSERT_TRUE(db.Open(path).ok());
    // Content round-trips AND the chain survives as a chain: the base
    // stays the mmap-backed pre-write relation, the delta rows ride on
    // the heap.
    EXPECT_EQ(ToEdges(**db.catalog().Get("G")), expect);
    StatusOr<Catalog::EntryState> state = db.catalog().Inspect("G");
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(state->deltas.size(), 2u);
    EXPECT_NE(state->base.get(), state->effective.get());
    EXPECT_TRUE(state->base->is_alias());  // views the mapped file
    // And queries over the restored entry agree with the oracle.
    api::Session session = db.OpenSession();
    session.options().num_samples = 64;
    api::Result result = session.Run("G(a,b) G(b,c)");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.count(), RebuildOracle(expect, "G(a,b) G(b,c)"));
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Randomized mixed read/write property suite

constexpr const char* kStrategies[] = {"ADJ", "HCubeJ", "HCubeJ+Cache",
                                       "SparkSQL", "BigJoin"};

TEST(UpdatePropertyTest, MixedReadsAndWritesMatchRebuildOracle) {
  Rng rng(20260808);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(25, 90, rng));
  // A small threshold so the rounds below cross compaction boundaries
  // mid-stream, not just at the end.
  db.set_delta_compact_threshold(8);
  std::set<Edge> mirror = ToEdges(**db.catalog().Get("G"));

  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  session.options().cluster.num_servers = 4;

  const std::string kPath = "G(a,b) G(b,c)";
  const std::string kTriangle = "G(a,b) G(b,c) G(a,c)";
  // A selection query: some rounds write rows its constant selects
  // (the filtered copies must take them), the others write none (the
  // filtered copies must stay as they were).
  constexpr Value kHub = 3;
  const std::string kHubTriangle =
      kTriangle + " | a=" + std::to_string(kHub);
  const std::vector<std::string> prepared_texts = {kPath, kHubTriangle};
  std::vector<api::PreparedQuery> prepared;
  for (const std::string& text : prepared_texts) {
    StatusOr<api::PreparedQuery> pq = session.Prepare(text);
    ASSERT_TRUE(pq.ok()) << pq.status();
    ASSERT_TRUE(pq->Run().ok());  // the shards later rounds patch from
    prepared.push_back(std::move(pq.value()));
  }

  int chained_hits = 0;  // rounds whose written rows the copy merged
  for (int round = 0; round < 8; ++round) {
    // A random batch: mostly fresh inserts, some tombstones — biased
    // toward rows added by *earlier* batches so tombstone-of-delta-row
    // paths run every round.
    WriteBatch batch;
    const int ops = 1 + int(rng.Uniform(5));
    for (int i = 0; i < ops; ++i) {
      const uint64_t kind = rng.Uniform(3);
      if (kind < 2 || mirror.empty()) {
        const Value a = Value(rng.Uniform(25) + (round + 1) * 100);
        const Value b = Value(rng.Uniform(25) + (round + 1) * 100);
        batch.Insert("G", {a, b});
        mirror.insert({a, b});
      } else {
        auto victim = mirror.begin();
        std::advance(victim, rng.Uniform(mirror.size()));
        batch.Delete("G", {victim->first, victim->second});
        mirror.erase(victim);
      }
    }
    // Odd rounds hit the selection: an edge out of the hub (closing
    // triangles through it) and, when it has one, a tombstone of
    // another.
    if (round % 2 == 1) {
      const Value b = Value(rng.Uniform(25));
      batch.Insert("G", {kHub, b});
      mirror.insert({kHub, b});
      auto out = mirror.lower_bound({kHub, 0});
      if (out != mirror.end() && out->first == kHub && out->second != b) {
        batch.Delete("G", {out->first, out->second});
        mirror.erase(out);
      }
    }
    ASSERT_TRUE(db.Apply(batch).ok());
    ASSERT_EQ(ToEdges(**db.catalog().Get("G")), mirror)
        << "round " << round;
    // A write that compacts the chain leaves no delta to filter: the
    // selection query's filtered copy is then rescanned, a new relation
    // whose indexes build.
    const bool chained = !db.catalog().Inspect("G")->deltas.empty();
    if (chained && round % 2 == 1) ++chained_hits;

    // The delta-refreshed prepared queries first — merge-on-read
    // instead of re-plan: the staleness check + Reprepare is exactly
    // what serve::Server does between writes — checked against a
    // rebuild-from-scratch oracle after every write. They run before
    // anything else reads the new version, so every index and shard
    // they bind must come from a delta patch — except the selection
    // query's after a compacting write.
    for (size_t q = 0; q < prepared.size(); ++q) {
      api::PreparedQuery& pq = prepared[q];
      const std::string& text = prepared_texts[q];
      EXPECT_FALSE(session.IsFresh(pq));
      StatusOr<api::PreparedQuery> refreshed = session.Reprepare(pq);
      ASSERT_TRUE(refreshed.ok()) << refreshed.status();
      pq = std::move(refreshed.value());
      api::Result via_prepared = pq.Run();
      ASSERT_TRUE(via_prepared.ok()) << via_prepared.status();
      EXPECT_EQ(via_prepared.count(), RebuildOracle(mirror, text))
          << text << ": prepared rerun diverged at round " << round;
      EXPECT_TRUE(session.IsFresh(pq));
      if (chained || text == kPath) {
        EXPECT_EQ(via_prepared.index_builds(), 0u)
            << text << ": a delta refresh must patch, not rebuild, at round "
            << round;
      }
    }

    // ...and all five strategies (cold session runs) against the same
    // oracle.
    const uint64_t path_oracle = RebuildOracle(mirror, kPath);
    for (const char* strategy : kStrategies) {
      api::Result r = session.Run(kPath, strategy);
      ASSERT_TRUE(r.ok()) << strategy << ": " << r.status();
      EXPECT_EQ(r.count(), path_oracle)
          << strategy << " diverged at round " << round;
    }
    api::Result triangle = session.Run(kTriangle);
    ASSERT_TRUE(triangle.ok()) << triangle.status();
    EXPECT_EQ(triangle.count(), RebuildOracle(mirror, kTriangle))
        << "round " << round;
  }
  EXPECT_GT(chained_hits, 0) << "no round merged written rows into the "
                                "selection query's filtered copy";
}

}  // namespace
}  // namespace adj
