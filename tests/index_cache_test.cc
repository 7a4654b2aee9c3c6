// Coverage for the shared index layer: the storage::IndexCache's
// pointer-identity contract, write-triggered sweep invalidation, the
// single-flight build guarantee, and the end-to-end "a prepared
// query's second run builds zero indexes" acceptance — pinned here at
// cache-stats level, unreachable from the api-level suites.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/api.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/generators.h"
#include "dist/hcube.h"
#include "exec/hcubej.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/index_cache.h"
#include "wcoj/leapfrog.h"

namespace adj::storage {
namespace {

Relation SmallGraph(uint64_t seed, uint64_t nodes = 30,
                    uint64_t edges = 150) {
  Rng rng(seed);
  return dataset::ErdosRenyi(nodes, edges, rng);
}

std::vector<int> IdentityPerm(const Relation& rel) {
  std::vector<int> perm(size_t(rel.arity()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = int(i);
  return perm;
}

TEST(IndexCacheTest, HitReturnsPointerIdenticalIndex) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(1))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  auto first = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(second.ok()) << second.status();

  // The artifact, its relation, and its trie are all the same objects.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->rel.get(), (*second)->rel.get());
  EXPECT_EQ((*first)->trie.get(), (*second)->trie.get());
  EXPECT_TRUE((*first)->rel->IsSortedUnique());
  EXPECT_EQ((*first)->trie->NumTuples(), (*first)->rel->size());

  // Two layers: the first call builds the rows and the index over
  // them; the second hits the index.
  IndexCache::Stats stats = db.index_cache().stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(IndexCacheTest, LabelingsOfOnePermutationSharePayload) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(15))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  // Two attribute labelings of the same physical permutation — the
  // triangle query's G(a,b) / G(b,c) pattern.
  const std::vector<int> rank = wcoj::AscendingRank(3);
  auto ab = wcoj::PrepareRelationShared(base, {0, 1}, rank, db.index_cache());
  ASSERT_TRUE(ab.ok()) << ab.status();
  const uint64_t bytes_one_labeling = db.index_cache().resident_bytes();
  IndexBuildStats stats;
  auto bc = wcoj::PrepareRelationShared(base, {1, 2}, rank, db.index_cache(),
                                        &stats);
  ASSERT_TRUE(bc.ok()) << bc.status();

  // One index, labeled by each atom: the second labeling is a hit on
  // the same PreparedIndex and adds zero resident bytes.
  EXPECT_EQ(ab->index.get(), bc->index.get());
  EXPECT_EQ(ab->attrs, (std::vector<AttrId>{0, 1}));
  EXPECT_EQ(bc->attrs, (std::vector<AttrId>{1, 2}));
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(db.index_cache().size(), 2u);
  EXPECT_EQ(db.index_cache().resident_bytes(), bytes_one_labeling);

  // Trie-less binds view those rows under their own labels, which is
  // what hash joins match columns by.
  auto rows_bc = wcoj::PrepareRelationRowsShared(base, {1, 2}, rank,
                                                 db.index_cache());
  ASSERT_TRUE(rows_bc.ok()) << rows_bc.status();
  EXPECT_EQ((*rows_bc)->raw().data(), ab->rel().raw().data());
  EXPECT_EQ((*rows_bc)->schema(), Schema({1, 2}));
  EXPECT_EQ(db.index_cache().size(), 2u);
}

TEST(IndexCacheTest, TrieLessBindSharesRowsAndSkipsTrieBuild) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(16))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  IndexBuildStats stats;
  auto rows =
      db.index_cache().GetPermutedRows(base, IdentityPerm(*base), &stats);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_TRUE((*rows)->IsSortedUnique());
  EXPECT_EQ(stats.builds, 1u);
  // Only the rows layer exists — no trie was built for a
  // hash-join-only bind.
  EXPECT_EQ(db.index_cache().size(), 1u);
  const uint64_t rows_only_bytes = db.index_cache().resident_bytes();

  auto idx = db.index_cache().GetPermuted(base, IdentityPerm(*base), &stats);
  ASSERT_TRUE(idx.ok()) << idx.status();
  // The trie-backed bind holds the very same rows and only then pays
  // for the trie.
  EXPECT_EQ(rows->get(), (*idx)->rel.get());
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(db.index_cache().size(), 2u);
  EXPECT_EQ(db.index_cache().resident_bytes(),
            rows_only_bytes + (*idx)->trie->ResidentBytes());
}

TEST(IndexCacheTest, DistinctColumnOrdersAreDistinctEntries) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(2))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  auto forward = db.index_cache().GetPermuted(base, {0, 1});
  ASSERT_TRUE(forward.ok());
  // Reversed column order: same relation, different index, whose rows
  // take the base schema reversed alike.
  auto backward = db.index_cache().GetPermuted(base, {1, 0});
  ASSERT_TRUE(backward.ok());
  EXPECT_NE(forward->get(), backward->get());
  EXPECT_EQ((*forward)->rel->schema(), base->schema());
  EXPECT_EQ((*backward)->rel->schema(), base->schema().Permuted({1, 0}));
  // Distinct permutations share nothing: two layer stacks of two.
  EXPECT_EQ(db.index_cache().stats().builds, 4u);
  EXPECT_EQ(db.index_cache().size(), 4u);
}

TEST(IndexCacheTest, TriangleAtomsShareOneIndex) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(17))).ok());
  // Q1 under a<b<c binds G three times in one column order.
  StatusOr<query::Query> q = query::Query::Parse("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(q.ok()) << q.status();
  IndexBuildStats stats;
  StatusOr<std::vector<exec::BoundAtom>> bound =
      exec::BindAtomsForOrder(*q, db, {0, 1, 2}, &stats);
  ASSERT_TRUE(bound.ok()) << bound.status();
  ASSERT_EQ(bound->size(), 3u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, 2u);
  for (const exec::BoundAtom& b : *bound) {
    EXPECT_EQ(b.index.get(), bound->front().index.get());
  }
  EXPECT_EQ((*bound)[1].attrs, (std::vector<AttrId>{1, 2}));
  EXPECT_EQ(db.index_cache().size(), 2u);
}

TEST(IndexCacheTest, ReplacementEvictsReplacedRelationsIndexes) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(3))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("H", SmallGraph(4))).ok());
  {
    std::shared_ptr<const Relation> g = *db.GetShared("G");
    std::shared_ptr<const Relation> h = *db.GetShared("H");
    ASSERT_TRUE(db.index_cache().GetPermuted(g, IdentityPerm(*g)).ok());
    ASSERT_TRUE(db.index_cache().GetPermuted(h, IdentityPerm(*h)).ok());
  }
  // Two entries (rows, index) per relation.
  ASSERT_EQ(db.index_cache().size(), 4u);

  // Replacing G bumps G's version (only) and sweeps G's index; H's
  // entries survive pointer-identical.
  const Relation* h_before =
      db.index_cache()
          .GetPermuted(*db.GetShared("H"), IdentityPerm(**db.Get("H")))
          .value()
          ->rel.get();
  const uint64_t g_version = db.VersionOf("G");
  const uint64_t h_version = db.VersionOf("H");
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(5))).ok());
  EXPECT_GT(db.VersionOf("G"), g_version);
  EXPECT_EQ(db.VersionOf("H"), h_version);
  EXPECT_EQ(db.index_cache().size(), 2u);
  EXPECT_GE(db.index_cache().stats().evictions, 1u);
  const Relation* h_after =
      db.index_cache()
          .GetPermuted(*db.GetShared("H"), IdentityPerm(**db.Get("H")))
          .value()
          ->rel.get();
  EXPECT_EQ(h_before, h_after);
}

TEST(IndexCacheTest, HeldIndexesSurviveReplacementUntilReleased) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(6))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");
  auto held = db.index_cache().GetPermuted(base, IdentityPerm(*base));
  ASSERT_TRUE(held.ok());

  // A consumer (here: `base` + `held`, standing in for a prepared
  // ExecutionContext aliasing the relation) still references the old
  // G, so the entry must not be swept out from under it...
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(7))).ok());
  EXPECT_EQ(db.index_cache().size(), 2u);

  // ...but once the last consumer lets go, the next bump collects it.
  held = StatusOr<std::shared_ptr<const PreparedIndex>>(
      Status::Internal("released"));
  base.reset();
  ASSERT_TRUE(db.Apply(WriteBatch().Create("X", SmallGraph(8))).ok());
  EXPECT_EQ(db.index_cache().size(), 0u);
}

TEST(IndexCacheTest, ConcurrentLookupsBuildOnce) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(9, 60, 400))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  constexpr int kThreads = 8;
  std::atomic<int> build_calls{0};
  std::atomic<const void*> first_artifact{nullptr};
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      auto artifact = db.index_cache().GetOrBuild(
          base.get(), "single-flight-test", base,
          [&](const IndexCache::PatchBase*)
              -> StatusOr<IndexCache::BuildResult> {
            ++build_calls;
            // Give waiters time to pile onto the in-flight build.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            auto index = std::make_shared<PreparedIndex>();
            index->rel = base;
            index->trie =
                std::make_shared<const Trie>(Trie::Build(*base));
            return IndexCache::BuildResult{index, index->Bytes()};
          });
      if (!artifact.ok()) {
        mismatch = true;
        return;
      }
      const void* expected = nullptr;
      if (!first_artifact.compare_exchange_strong(expected,
                                                  artifact->get())) {
        if (expected != artifact->get()) mismatch = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(build_calls.load(), 1);
  EXPECT_FALSE(mismatch.load());
  IndexCache::Stats stats = db.index_cache().stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.hits, uint64_t(kThreads - 1));
}

TEST(IndexCacheTest, FailedBuildIsNotCachedAndRetries) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", SmallGraph(10))).ok());
  std::shared_ptr<const Relation> base = *db.GetShared("G");

  int calls = 0;
  auto failing = db.index_cache().GetOrBuild(
      base.get(), "retry-test", base,
      [&](const IndexCache::PatchBase*) -> StatusOr<IndexCache::BuildResult> {
        ++calls;
        return Status::Internal("injected build failure");
      });
  EXPECT_FALSE(failing.ok());
  auto retried = db.index_cache().GetOrBuild(
      base.get(), "retry-test", base,
      [&](const IndexCache::PatchBase*) -> StatusOr<IndexCache::BuildResult> {
        ++calls;
        auto index = std::make_shared<PreparedIndex>();
        index->rel = base;
        index->trie = std::make_shared<const Trie>(Trie::Build(*base));
        return IndexCache::BuildResult{index, index->Bytes()};
      });
  EXPECT_TRUE(retried.ok()) << retried.status();
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(db.index_cache().stats().build_failures, 1u);
}

TEST(IndexCacheTest, ByteBudgetEvictsUnreferencedLru) {
  Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("A", SmallGraph(11, 40, 300))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("B", SmallGraph(12, 40, 300))).ok());
  std::shared_ptr<const Relation> a = *db.GetShared("A");
  std::shared_ptr<const Relation> b = *db.GetShared("B");

  auto idx_a =
      db.index_cache().GetPermuted(a, IdentityPerm(*a));
  ASSERT_TRUE(idx_a.ok());
  const uint64_t one_entry = db.index_cache().resident_bytes();
  ASSERT_GT(one_entry, 0u);
  idx_a = StatusOr<std::shared_ptr<const PreparedIndex>>(
      Status::Internal("released"));

  // Budget for ~one entry: inserting B's index evicts A's (LRU, no
  // outside holder), keeping the cache within budget.
  db.index_cache().set_budget_bytes(one_entry + one_entry / 2);
  auto idx_b =
      db.index_cache().GetPermuted(b, IdentityPerm(*b));
  ASSERT_TRUE(idx_b.ok());
  EXPECT_LE(db.index_cache().resident_bytes(),
            one_entry + one_entry / 2);
  // A's stack was (at least partially) evicted to make room; B's full
  // stack (rows, index) is resident and usable.
  EXPECT_GE(db.index_cache().stats().evictions, 1u);
  EXPECT_LT(db.index_cache().size(), 4u);
  EXPECT_TRUE((*idx_b)->rel->IsSortedUnique());
}

}  // namespace
}  // namespace adj::storage

namespace adj {
namespace {

// The tentpole acceptance, asserted through the public facade: with a
// warm cache, a prepared query's second Run performs zero
// Trie::Build/SortAndDedup calls on base relations.
TEST(IndexReuseTest, PreparedSecondRunBuildsZeroIndexes) {
  Rng rng(13);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(40, 250, rng));
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;

  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  // Prepare pinned the bound-atom indexes and reported them in the
  // EXPLAIN rendering.
  EXPECT_NE(prepared->explanation().find("pinned indexes"),
            std::string::npos);
  EXPECT_GT(prepared->resident_bytes(), 0u);

  api::Result first = prepared->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  // Run 1 reuses every bound-atom index (pinned at Prepare) but still
  // builds the per-server shard artifacts.
  EXPECT_GT(first.index_builds(), 0u);
  EXPECT_GT(first.index_reused(), 0u);

  for (int run = 2; run <= 3; ++run) {
    api::Result warm = prepared->Run();
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm.index_builds(), 0u) << "run " << run;
    EXPECT_GT(warm.index_reused(), 0u) << "run " << run;
    EXPECT_EQ(warm.count(), first.count()) << "run " << run;
  }
}

// Direct (unprepared) repeat execution of the same query also reuses
// the catalog-level cache across Engine::Run calls.
TEST(IndexReuseTest, RepeatedDirectRunsReuseIndexes) {
  Rng rng(14);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(40, 250, rng))).ok());
  core::Engine engine(&db);
  query::Query q = *query::Query::Parse("G(a,b) G(b,c)");
  core::EngineOptions options;

  StatusOr<exec::RunReport> cold = engine.Run(q, "HCubeJ", options);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_GT(cold->index_builds, 0u);
  StatusOr<exec::RunReport> warm = engine.Run(q, "HCubeJ", options);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_EQ(warm->index_builds, 0u);
  EXPECT_GT(warm->index_reused, 0u);
  EXPECT_EQ(warm->output_count, cold->output_count);
  // Modeled communication is identical cold and warm: the cache saves
  // computation, not modeled traffic.
  EXPECT_EQ(warm->comm.bytes, cold->comm.bytes);
  EXPECT_EQ(warm->comm.tuple_copies, cold->comm.tuple_copies);
}

}  // namespace
}  // namespace adj
