#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dataset/generators.h"
#include "query/queries.h"
#include "wcoj/leapfrog.h"
#include "wcoj/naive_join.h"

namespace adj::wcoj {
namespace {

using query::Query;
using storage::WriteBatch;

storage::Catalog SmallGraphDb(uint64_t seed, uint64_t nodes, uint64_t edges) {
  Rng rng(seed);
  storage::Catalog db;
  EXPECT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(nodes, edges, rng))).ok());
  return db;
}

/// Runs LeapfrogJoin for a query with every atom bound to catalog
/// relation(s), under the given order. Returns the count.
StatusOr<uint64_t> RunLeapfrog(const Query& q, const storage::Catalog& db,
                               const query::AttributeOrder& order,
                               JoinStats* stats = nullptr,
                               IntersectionCache* cache = nullptr,
                               std::optional<Value> first = {}) {
  const std::vector<int> rank = query::RankOf(order, q.num_attrs());
  std::vector<PreparedRelation> prepared;
  for (const query::Atom& atom : q.atoms()) {
    auto base = db.Get(atom.relation);
    if (!base.ok()) return base.status();
    auto prep = PrepareRelation(**base, atom.schema.attrs(), rank);
    if (!prep.ok()) return prep.status();
    prepared.push_back(std::move(prep.value()));
  }
  std::vector<JoinInput> inputs;
  for (const PreparedRelation& p : prepared) {
    inputs.push_back(JoinInput{&p.trie, p.attrs});
  }
  return LeapfrogJoin(inputs, order, nullptr, stats, {}, first, cache);
}

TEST(NaiveJoinTest, TriangleOnCompleteGraph) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(5))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto result = NaiveJoin(*q, db);
  ASSERT_TRUE(result.ok());
  // Ordered triangles with distinct labels: 5*4*3 = 60.
  EXPECT_EQ(result->size(), 60u);
}

TEST(NaiveJoinTest, PathQueryOnPathGraph) {
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", dataset::PathGraph(5))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto result = NaiveJoin(*q, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);  // 0-1-2, 1-2-3, 2-3-4
}

TEST(NaiveJoinTest, RowLimitTrips) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(10))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto result = NaiveJoin(*q, db, /*row_limit=*/10);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(HashJoinTest, SharedAttributeSemantics) {
  storage::Relation l(storage::Schema({0, 1}));
  l.Append({1, 2});
  l.Append({3, 4});
  storage::Relation r(storage::Schema({1, 2}));
  r.Append({2, 7});
  r.Append({2, 8});
  r.Append({5, 9});
  auto joined = HashJoin(l, r);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 2u);  // (1,2,7), (1,2,8)
  EXPECT_EQ(joined->schema().attrs(), (std::vector<AttrId>{0, 1, 2}));
}

TEST(HashJoinTest, NoSharedAttributesIsCartesian) {
  storage::Relation l(storage::Schema({0}));
  l.Append({1});
  l.Append({2});
  storage::Relation r(storage::Schema({1}));
  r.Append({7});
  auto joined = HashJoin(l, r);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 2u);
}

TEST(LeapfrogTest, TriangleOnCompleteGraphMatchesClosedForm) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(6))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto count = RunLeapfrog(*q, db, {0, 1, 2});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u * 5 * 4);
}

TEST(LeapfrogTest, PaperWorkedExample) {
  // Fig. 3: the tuples shuffled to server S0 and the Leapfrog pass.
  storage::Catalog db;
  storage::Relation r1(storage::Schema({0, 1, 2}));
  for (auto row : std::vector<std::vector<Value>>{{1, 2, 2}, {1, 2, 1}}) {
    r1.Append({row[0], row[1], row[2]});
  }
  r1.SortAndDedup();
  storage::Relation r2(storage::Schema({0, 3}));
  for (auto row : std::vector<std::vector<Value>>{
           {1, 2}, {1, 1}, {3, 1}, {4, 1}}) {
    r2.Append({row[0], row[1]});
  }
  r2.SortAndDedup();
  storage::Relation r3(storage::Schema({2, 3}));
  for (auto row : std::vector<std::vector<Value>>{{1, 2}, {2, 2}}) {
    r3.Append({row[0], row[1]});
  }
  r3.SortAndDedup();
  storage::Relation r4(storage::Schema({1, 4}));
  for (auto row : std::vector<std::vector<Value>>{{2, 3}, {2, 4}, {2, 5}}) {
    r4.Append({row[0], row[1]});
  }
  r4.SortAndDedup();
  storage::Relation r5(storage::Schema({2, 4}));
  for (auto row : std::vector<std::vector<Value>>{{2, 3}, {2, 4}}) {
    r5.Append({row[0], row[1]});
  }
  r5.SortAndDedup();
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R1", std::move(r1))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R2", std::move(r2))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R3", std::move(r3))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R4", std::move(r4))).ok());
  ASSERT_TRUE(db.Apply(WriteBatch().Create("R5", std::move(r5))).ok());
  auto q = Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  JoinStats stats;
  auto count = RunLeapfrog(*q, db, {0, 1, 2, 3, 4}, &stats);
  ASSERT_TRUE(count.ok());
  // Fig. 3(b): T5 holds 4 result tuples (1,2,2,2,3/4 x d in {1,2}...):
  // verify against the oracle instead of transcribing.
  auto naive = NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(*count, naive->size());
  // T1 = {1}: exactly one binding at level 0.
  EXPECT_EQ(stats.tuples_at_level[0], 1u);
  // T2 = {(1,2)}.
  EXPECT_EQ(stats.tuples_at_level[1], 1u);
}

TEST(LeapfrogTest, EmptyInputYieldsZero) {
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch().Create(
      "G", storage::Relation(storage::Schema({0, 1})))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto count = RunLeapfrog(*q, db, {0, 1, 2});
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(LeapfrogTest, FirstValuePinning) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(5))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  // Sum over all pinned first values == total count.
  uint64_t total = 0;
  for (Value v = 0; v < 5; ++v) {
    auto count = RunLeapfrog(*q, db, {0, 1, 2}, nullptr, nullptr, v);
    ASSERT_TRUE(count.ok());
    total += *count;
  }
  EXPECT_EQ(total, 60u);
  // Pinning a non-existent value yields zero.
  auto none = RunLeapfrog(*q, db, {0, 1, 2}, nullptr, nullptr, 99);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

TEST(LeapfrogTest, ExtensionLimitTrips) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(10))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  const std::vector<int> rank = query::RankOf({0, 1, 2}, 3);
  std::vector<PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(
        *PrepareRelation(**db.Get(atom.relation), atom.schema.attrs(), rank));
  }
  std::vector<JoinInput> inputs;
  for (const auto& p : prepared) inputs.push_back({&p.trie, p.attrs});
  JoinLimits limits;
  limits.max_extensions = 50;
  auto count = LeapfrogJoin(inputs, {0, 1, 2}, nullptr, nullptr, limits);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

TEST(LeapfrogTest, StatsAreConsistent) {
  storage::Catalog db = SmallGraphDb(17, 30, 150);
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  JoinStats stats;
  auto count = RunLeapfrog(*q, db, {0, 1, 2}, &stats);
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(stats.tuples_at_level.size(), 3u);
  // The deepest level count equals the output count.
  EXPECT_EQ(stats.tuples_at_level[2], *count);
  uint64_t sum = 0;
  for (uint64_t c : stats.tuples_at_level) sum += c;
  EXPECT_EQ(stats.extensions, sum);
}

TEST(LeapfrogTest, EmitMatchesNaiveTuples) {
  storage::Catalog db = SmallGraphDb(23, 20, 80);
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  const query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, 3);
  std::vector<PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(
        *PrepareRelation(**db.Get(atom.relation), atom.schema.attrs(), rank));
  }
  std::vector<JoinInput> inputs;
  for (const auto& p : prepared) inputs.push_back({&p.trie, p.attrs});
  storage::Relation collected(storage::Schema({0, 1, 2}));
  EmitFn emit = [&](std::span<const Value> t) { collected.Append(t); };
  auto count = LeapfrogJoin(inputs, order, &emit, nullptr);
  ASSERT_TRUE(count.ok());
  collected.SortAndDedup();
  auto naive = NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(collected.size(), naive->size());
  EXPECT_TRUE(std::ranges::equal(collected.raw(), naive->raw()));
}

/// Equivalence sweep: Leapfrog == NaiveJoin for every benchmark query
/// and several random graphs, across attribute orders.
struct EquivCase {
  int query_index;
  uint64_t seed;
};

class LeapfrogEquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(LeapfrogEquivalenceTest, MatchesNaive) {
  const EquivCase param = GetParam();
  auto q = query::MakeBenchmarkQuery(param.query_index);
  ASSERT_TRUE(q.ok());
  storage::Catalog db = SmallGraphDb(param.seed, 25, 120);
  auto naive = NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  // Ascending order plus two pseudorandom permutations.
  std::vector<query::AttributeOrder> orders;
  query::AttributeOrder asc;
  for (int a = 0; a < q->num_attrs(); ++a) asc.push_back(a);
  orders.push_back(asc);
  Rng rng(param.seed * 31 + 1);
  for (int t = 0; t < 2; ++t) {
    query::AttributeOrder o = asc;
    for (size_t i = o.size() - 1; i > 0; --i) {
      std::swap(o[i], o[rng.Uniform(i + 1)]);
    }
    orders.push_back(o);
  }
  for (const query::AttributeOrder& order : orders) {
    auto count = RunLeapfrog(*q, db, order);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, naive->size())
        << "Q" << param.query_index << " order "
        << query::OrderToString(order, *q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, LeapfrogEquivalenceTest,
    ::testing::Values(EquivCase{1, 1}, EquivCase{1, 2}, EquivCase{2, 1},
                      EquivCase{2, 2}, EquivCase{3, 1}, EquivCase{4, 1},
                      EquivCase{4, 2}, EquivCase{5, 1}, EquivCase{5, 2},
                      EquivCase{6, 1}, EquivCase{6, 2}, EquivCase{7, 1},
                      EquivCase{8, 1}, EquivCase{9, 1}, EquivCase{10, 1},
                      EquivCase{11, 1}));

TEST(LeapfrogIntersectionCacheTest, SameCountAsPlain) {
  storage::Catalog db = SmallGraphDb(41, 40, 250);
  for (int qi : {1, 2, 4, 5}) {
    auto q = query::MakeBenchmarkQuery(qi);
    query::AttributeOrder asc;
    for (int a = 0; a < q->num_attrs(); ++a) asc.push_back(a);
    auto plain = RunLeapfrog(*q, db, asc);
    ASSERT_TRUE(plain.ok());
    IntersectionCache cache(1 << 20);
    auto cached = RunLeapfrog(*q, db, asc, nullptr, &cache);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(*cached, *plain) << "Q" << qi;
  }
}

TEST(LeapfrogIntersectionCacheTest, ZeroCapacityCacheStillCorrect) {
  storage::Catalog db = SmallGraphDb(43, 30, 150);
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto plain = RunLeapfrog(*q, db, {0, 1, 2});
  IntersectionCache cache(0);
  auto cached = RunLeapfrog(*q, db, {0, 1, 2}, nullptr, &cache);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *plain);
  EXPECT_EQ(cache.stored_values(), 0u);
}

TEST(LeapfrogIntersectionCacheTest, CacheHitsOnRepetitiveStructure) {
  // 4-cycle under order (a, c, b, d): the level-d intersection is
  // keyed by (a, c) only, so every additional b binding with the same
  // (a, c) re-uses the cached intersection — CacheTrieJoin's win.
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(10))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(c,d) G(d,a)");
  JoinStats stats;
  IntersectionCache cache(1 << 22);
  auto count = RunLeapfrog(*q, db, {0, 2, 1, 3}, &stats, &cache);
  ASSERT_TRUE(count.ok());
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  // Correctness unchanged.
  auto plain = RunLeapfrog(*q, db, {0, 2, 1, 3});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*count, *plain);
}

/// One bound Leapfrog, run once per pinned value and once unpinned,
/// matches a fresh one-shot LeapfrogJoin for every run — counts and
/// per-run stats alike — over raw and force-compressed tries (whose
/// decoded blocks stay cached across the bound instance's runs).
TEST(BoundLeapfrogTest, RepeatedRunsMatchOneShotJoins) {
  storage::Catalog db = SmallGraphDb(61, 60, 500);
  auto q = Query::Parse("G(a,b) G(b,c) G(c,d) G(a,c)");
  ASSERT_TRUE(q.ok());
  const query::AttributeOrder order = {0, 1, 2, 3};
  const std::vector<int> rank = query::RankOf(order, q->num_attrs());
  for (const bool compressed : {false, true}) {
    std::vector<PreparedRelation> prepared;
    for (const query::Atom& atom : q->atoms()) {
      auto prep = PrepareRelation(**db.Get(atom.relation), atom.schema.attrs(),
                                  rank);
      ASSERT_TRUE(prep.ok());
      if (compressed) {
        const storage::Trie::CompressOptions force{.force = true};
        prep->trie = storage::Trie::Compress(std::move(prep->trie), force);
        ASSERT_TRUE(prep->trie.any_compressed());
      }
      prepared.push_back(std::move(prep.value()));
    }
    std::vector<JoinInput> inputs;
    for (const PreparedRelation& p : prepared) {
      inputs.push_back({&p.trie, p.attrs});
    }
    StatusOr<Leapfrog> bound = Leapfrog::Bind(inputs, order);
    ASSERT_TRUE(bound.ok()) << bound.status();

    uint64_t pinned_total = 0;
    for (Value a = 0; a < 60; ++a) {
      JoinStats reused, fresh;
      auto got = bound->Run(nullptr, &reused, a);
      auto want = LeapfrogJoin(inputs, order, nullptr, &fresh, {}, a);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(*got, *want) << "a=" << a << " compressed=" << compressed;
      EXPECT_EQ(reused.tuples_at_level, fresh.tuples_at_level);
      EXPECT_EQ(reused.extensions, fresh.extensions);
      pinned_total += *got;
    }
    JoinStats all;
    auto full = bound->Run(nullptr, &all);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(*full, pinned_total);
    EXPECT_EQ(*full, *LeapfrogJoin(inputs, order, nullptr, nullptr));
    EXPECT_GT(*full, 0u);
  }
}

/// A pinned run told to stop at n results returns n once it has found
/// that many, and the full count when it has fewer; the instance then
/// runs on unaffected.
TEST(BoundLeapfrogTest, StopAtCountCutsARunShort) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(8))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(q.ok());
  const query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, q->num_attrs());
  std::vector<PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    auto prep =
        PrepareRelation(**db.Get(atom.relation), atom.schema.attrs(), rank);
    ASSERT_TRUE(prep.ok());
    prepared.push_back(std::move(prep.value()));
  }
  std::vector<JoinInput> inputs;
  for (const PreparedRelation& p : prepared) {
    inputs.push_back({&p.trie, p.attrs});
  }
  StatusOr<Leapfrog> bound = Leapfrog::Bind(inputs, order);
  ASSERT_TRUE(bound.ok()) << bound.status();
  // a = 0 closes 7 * 6 triangles.
  JoinStats cut;
  auto partial = bound->Run(nullptr, &cut, Value(0), 5);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(*partial, 5u);
  EXPECT_EQ(cut.tuples_at_level.back(), 5u);
  auto whole = bound->Run(nullptr, nullptr, Value(0), 1000);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(*whole, 42u);
  EXPECT_EQ(*bound->Run(nullptr, nullptr, Value(0), 42), 42u);
  EXPECT_EQ(*bound->Run(nullptr, nullptr, Value(0)), 42u);
}

TEST(BoundLeapfrogTest, BindRejectsMisalignedInputsAndRunsNeedABind) {
  storage::Catalog db = SmallGraphDb(62, 20, 60);
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(q.ok());
  const std::vector<int> rank = query::RankOf({0, 1, 2}, 3);
  std::vector<PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(
        *PrepareRelation(**db.Get(atom.relation), atom.schema.attrs(), rank));
  }
  std::vector<JoinInput> inputs;
  for (const PreparedRelation& p : prepared) {
    inputs.push_back({&p.trie, p.attrs});
  }
  // c before b contradicts the (b, c) trie's level order.
  EXPECT_EQ(Leapfrog::Bind(inputs, {0, 2, 1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Leapfrog::Bind({}, {0, 1, 2}).status().code(),
            StatusCode::kInvalidArgument);
  Leapfrog unbound;
  EXPECT_FALSE(unbound.Run(nullptr, nullptr).ok());
}

TEST(PrepareRelationTest, PermutesToRankOrder) {
  storage::Relation base(storage::Schema({0, 1}));
  base.Append({1, 9});
  base.Append({2, 8});
  // Atom binds columns to (c=2, a=0); order a < c → columns (a, c).
  auto prep = PrepareRelation(base, {2, 0}, query::RankOf({0, 2}, 3));
  ASSERT_TRUE(prep.ok());
  EXPECT_EQ(prep->attrs, (std::vector<AttrId>{0, 2}));
  EXPECT_EQ(prep->rel.At(0, 0), 8u);  // sorted by a-column (was col 1)
  EXPECT_EQ(prep->rel.At(0, 1), 2u);
}

}  // namespace
}  // namespace adj::wcoj
