#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace adj::storage {
namespace {

TEST(SchemaTest, PositionAndContains) {
  Schema s({2, 0, 3});
  EXPECT_EQ(s.arity(), 3);
  EXPECT_EQ(s.PositionOf(2), 0);
  EXPECT_EQ(s.PositionOf(0), 1);
  EXPECT_EQ(s.PositionOf(3), 2);
  EXPECT_EQ(s.PositionOf(1), -1);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(1));
}

TEST(SchemaTest, Mask) {
  Schema s({0, 2, 4});
  EXPECT_EQ(s.Mask(), AttrMask(0b10101));
}

TEST(SchemaTest, SortedByRank) {
  // Global order: c < a < b  =>  rank a=1, b=2, c=0.
  Schema s({0, 1, 2});  // (a, b, c)
  std::vector<int> rank = {1, 2, 0};
  std::vector<int> perm;
  Schema sorted = s.SortedBy(rank, &perm);
  EXPECT_EQ(sorted.attrs(), (std::vector<AttrId>{2, 0, 1}));
  EXPECT_EQ(perm, (std::vector<int>{2, 0, 1}));
}

TEST(SchemaTest, ToStringLettersAttrs) {
  Schema s({0, 1, 4});
  EXPECT_EQ(s.ToString(), "(a,b,e)");
}

TEST(RelationTest, AppendAndAccess) {
  Relation r(Schema({0, 1}));
  r.Append({3, 4});
  r.Append({1, 2});
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.At(0, 0), 3u);
  EXPECT_EQ(r.At(1, 1), 2u);
  EXPECT_EQ(r.SizeBytes(), 4 * sizeof(Value));
}

TEST(RelationTest, SortAndDedup) {
  Relation r(Schema({0, 1}));
  r.Append({2, 1});
  r.Append({1, 2});
  r.Append({2, 1});
  r.Append({1, 1});
  r.SortAndDedup();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_TRUE(r.IsSortedUnique());
  EXPECT_EQ(r.At(0, 0), 1u);
  EXPECT_EQ(r.At(0, 1), 1u);
  EXPECT_EQ(r.At(2, 0), 2u);
}

TEST(RelationTest, SortIsLexicographic) {
  Relation r(Schema({0, 1, 2}));
  r.Append({1, 2, 3});
  r.Append({1, 1, 9});
  r.Append({0, 9, 9});
  r.SortAndDedup();
  EXPECT_EQ(r.At(0, 0), 0u);
  EXPECT_EQ(r.At(1, 1), 1u);
  EXPECT_EQ(r.At(2, 1), 2u);
}

TEST(RelationTest, PermuteColumns) {
  Relation r(Schema({0, 1}));
  r.Append({1, 10});
  r.Append({2, 20});
  Relation p = r.PermuteColumns(Schema({1, 0}), {1, 0});
  EXPECT_EQ(p.At(0, 0), 10u);
  EXPECT_EQ(p.At(0, 1), 1u);
  EXPECT_EQ(p.schema().attrs(), (std::vector<AttrId>{1, 0}));
}

TEST(RelationTest, DistinctColumn) {
  Relation r(Schema({0, 1}));
  r.Append({1, 5});
  r.Append({1, 6});
  r.Append({2, 5});
  EXPECT_EQ(r.DistinctColumn(0), (std::vector<Value>{1, 2}));
  EXPECT_EQ(r.DistinctColumn(1), (std::vector<Value>{5, 6}));
}

TEST(RelationTest, SemiJoinFilter) {
  Relation r(Schema({0, 1}));
  r.Append({1, 5});
  r.Append({2, 6});
  r.Append({3, 7});
  Relation f = r.SemiJoinFilter(0, {1, 3});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.At(0, 0), 1u);
  EXPECT_EQ(f.At(1, 0), 3u);
}

TEST(RelationTest, EmptyRelationProperties) {
  Relation r(Schema({0, 1}));
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  r.SortAndDedup();
  EXPECT_TRUE(r.IsSortedUnique());
}

TEST(RelationTest, RandomSortDedupMatchesStdSet) {
  Rng rng(99);
  Relation r(Schema({0, 1, 2}));
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = {Value(rng.Uniform(10)), Value(rng.Uniform(10)),
                              Value(rng.Uniform(10))};
    rows.push_back(row);
    r.Append(row);
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  r.SortAndDedup();
  ASSERT_EQ(r.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int c = 0; c < 3; ++c) EXPECT_EQ(r.At(i, c), rows[i][size_t(c)]);
  }
}

TEST(CatalogTest, CreateGetContains) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  EXPECT_TRUE(db.Contains("G"));
  EXPECT_FALSE(db.Contains("H"));
  auto got = db.Get("G");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->size(), 1u);
  EXPECT_FALSE(db.Get("H").ok());
}

TEST(CatalogTest, ReplaceAndTotals) {
  Catalog db;
  Relation a(Schema({0, 1}));
  a.Append({1, 2});
  a.Append({3, 4});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R", std::move(a))).ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
  Relation b(Schema({0}));
  b.Append({9});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R", std::move(b))).ok());
  EXPECT_EQ(db.TotalTuples(), 1u);
  EXPECT_EQ(db.Names(), std::vector<std::string>{"R"});
}

TEST(CatalogTest, AliasSharesPhysicalStorage) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G3", "G2")).ok());
  EXPECT_TRUE(db.Contains("G2"));
  // All three names resolve to the same physical relation — no copy.
  EXPECT_EQ(*db.Get("G2"), *db.Get("G"));
  EXPECT_EQ(*db.Get("G3"), *db.Get("G"));
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"G", "G2", "G3"}));
  // Self-alias is a harmless no-op; aliasing a missing name fails.
  EXPECT_TRUE(db.Apply(WriteBatch().AliasRelation("G", "G")).ok());
  EXPECT_EQ(*db.Get("G"), *db.Get("G2"));
  EXPECT_FALSE(db.Apply(WriteBatch().AliasRelation("X", "missing")).ok());
  EXPECT_FALSE(db.Contains("X"));
}

TEST(CatalogTest, TotalsCountAliasedRelationsOnce) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  r.Append({3, 4});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  EXPECT_EQ(db.TotalTuples(), 2u);
  EXPECT_EQ(db.TotalBytes(), 4 * sizeof(Value));
  // A distinct physical relation still adds to the totals.
  Relation other(Schema({0}));
  other.Append({7});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("H", std::move(other))).ok());
  EXPECT_EQ(db.TotalTuples(), 3u);
}

TEST(CatalogTest, ReplacementRebindsOnlyThatName) {
  Catalog db;
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  const Relation* original = *db.Get("G2");
  // Replacing "G" must not disturb the alias, which co-owns the old
  // physical relation.
  Relation fresh(Schema({0, 1}));
  fresh.Append({5, 6});
  fresh.Append({7, 8});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(fresh))).ok());
  EXPECT_EQ(*db.Get("G2"), original);
  EXPECT_EQ((*db.Get("G2"))->At(0, 0), 1u);
  EXPECT_EQ((*db.Get("G"))->size(), 2u);
  EXPECT_NE(*db.Get("G"), *db.Get("G2"));
  EXPECT_EQ(db.TotalTuples(), 3u);  // two distinct physical relations
}

TEST(CatalogTest, SharedCreateBorrowsAcrossCatalogs) {
  Catalog exec_db;
  const Relation* borrowed = nullptr;
  {
    Catalog source;
    Relation r(Schema({0, 1}));
    r.Append({1, 2});
    ASSERT_TRUE(source.Apply(WriteBatch().Create("G", std::move(r))).ok());
    auto shared = source.GetShared("G");
    ASSERT_TRUE(shared.ok());
    borrowed = shared->get();
    ASSERT_TRUE(exec_db.Apply(
        WriteBatch().Create("G", std::move(shared.value()))).ok());
    EXPECT_EQ(*exec_db.Get("G"), *source.Get("G"));
    EXPECT_FALSE(source.GetShared("missing").ok());
  }
  // The source catalog is gone; shared ownership keeps the relation
  // alive for the borrowing catalog.
  ASSERT_TRUE(exec_db.Contains("G"));
  EXPECT_EQ(*exec_db.Get("G"), borrowed);
  EXPECT_EQ((*exec_db.Get("G"))->At(0, 1), 2u);
  EXPECT_EQ(exec_db.TotalTuples(), 1u);
  EXPECT_FALSE(exec_db.Apply(WriteBatch().Create("null", nullptr)).ok());
  EXPECT_FALSE(exec_db.Contains("null"));
}

TEST(CatalogTest, VersionBumpsOnlyTheWrittenName) {
  Catalog db;
  auto versions = [&db] {
    return std::vector<uint64_t>{db.VersionOf("G"), db.VersionOf("G2"),
                                 db.VersionOf("G3")};
  };
  using V = std::vector<uint64_t>;
  EXPECT_EQ(versions(), (V{0, 0, 0}));

  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  EXPECT_EQ(versions(), (V{1, 0, 0}));

  // Every create, alias (re)bind and replace bumps exactly the name it
  // writes: the alias source and every other name keep their version.
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  EXPECT_EQ(versions(), (V{1, 1, 0}));
  auto shared = db.GetShared("G");
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G3", std::move(*shared))).ok());
  EXPECT_EQ(versions(), (V{1, 1, 1}));
  Relation replacement(Schema({0, 1}));
  replacement.Append({7, 8});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(replacement))).ok());
  EXPECT_EQ(versions(), (V{2, 1, 1}));
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  EXPECT_EQ(versions(), (V{2, 2, 1}));

  // Reads and rejected batches bump nothing — including a batch whose
  // valid first op is discarded with its failing second one.
  (void)db.Get("G");
  (void)db.Names();
  EXPECT_FALSE(db.Apply(WriteBatch().AliasRelation("X", "missing")).ok());
  EXPECT_FALSE(db.Apply(WriteBatch().Create("null", nullptr)).ok());
  Relation rejected(Schema({0, 1}));
  EXPECT_FALSE(db.Apply(WriteBatch().Create(
      "G3", std::move(rejected)).AliasRelation("X", "missing")).ok());
  EXPECT_EQ(versions(), (V{2, 2, 1}));
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"G", "G2", "G3"}));
}

TEST(CatalogTest, DeltasSinceReturnsOnlyTheNamesOwnChain) {
  Catalog db;
  db.set_delta_compact_threshold(4);
  Relation r(Schema({0, 1}));
  r.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(r))).ok());
  std::vector<std::shared_ptr<const DeltaBatch>> deltas;
  EXPECT_TRUE(db.DeltasSince("G", 1, &deltas));  // nothing written since
  EXPECT_TRUE(deltas.empty());

  // Two one-row writes: versions 2 and 3, oldest first.
  ASSERT_TRUE(db.Apply(WriteBatch().Insert("G", {3, 4})).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Insert("G", {5, 6})).ok());
  EXPECT_TRUE(db.DeltasSince("G", 1, &deltas));
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0]->inserts.Row(0)[0], 3u);
  EXPECT_EQ(deltas[1]->inserts.Row(0)[0], 5u);
  deltas.clear();
  EXPECT_TRUE(db.DeltasSince("G", 2, &deltas));
  EXPECT_EQ(deltas.size(), 1u);
  deltas.clear();
  EXPECT_FALSE(db.DeltasSince("G", 4, &deltas));  // a future version
  EXPECT_FALSE(db.DeltasSince("missing", 0, &deltas));

  // An alias inherits G's chain, but none of it was written under G2.
  ASSERT_TRUE(db.Apply(WriteBatch().AliasRelation("G2", "G")).ok());
  EXPECT_EQ(db.Inspect("G2")->deltas.size(), 2u);
  EXPECT_FALSE(db.DeltasSince("G2", 0, &deltas));
  ASSERT_TRUE(db.Apply(WriteBatch().Insert("G2", {7, 8})).ok());
  EXPECT_TRUE(db.DeltasSince("G2", 1, &deltas));
  EXPECT_EQ(deltas.size(), 1u);
  deltas.clear();

  // Two more rows compact G's chain: the versions before it are gone.
  ASSERT_TRUE(
      db.Apply(WriteBatch().Insert("G", {9, 10}).Insert("G", {13, 14})).ok());
  EXPECT_TRUE(db.Inspect("G")->deltas.empty());
  EXPECT_FALSE(db.DeltasSince("G", 3, &deltas));
  EXPECT_TRUE(db.DeltasSince("G", 4, &deltas));

  // A re-create starts a new chain.
  ASSERT_TRUE(db.Apply(WriteBatch().Insert("G2", {11, 12})).ok());
  Relation fresh(Schema({0, 1}));
  fresh.Append({1, 2});
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G2", std::move(fresh))).ok());
  EXPECT_FALSE(db.DeltasSince("G2", 2, &deltas));
  EXPECT_TRUE(deltas.empty());
}

}  // namespace
}  // namespace adj::storage
