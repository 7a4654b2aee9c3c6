#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/spj.h"
#include "dataset/generators.h"
#include "wcoj/naive_join.h"

namespace adj::core {
namespace {

storage::Catalog SmallDb(uint64_t seed) {
  Rng rng(seed);
  storage::Catalog db;
  EXPECT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(25, 120, rng))).ok());
  return db;
}

EngineOptions FastOptions() {
  EngineOptions opts;
  opts.cluster.num_servers = 4;
  opts.num_samples = 64;
  return opts;
}

TEST(SpjParseTest, JoinOnly) {
  auto spj = ParseSpj("G(a,b) G(b,c)");
  ASSERT_TRUE(spj.ok());
  EXPECT_TRUE(spj->selections.empty());
  EXPECT_EQ(spj->projection, 0u);
}

TEST(SpjParseTest, SelectionsAndProjection) {
  auto spj = ParseSpj("G(a,b) G(b,c) | a=5, c=7 | a, b");
  ASSERT_TRUE(spj.ok());
  ASSERT_EQ(spj->selections.size(), 2u);
  EXPECT_EQ(spj->selections[0].attr, 0);
  EXPECT_EQ(spj->selections[0].value, 5u);
  EXPECT_EQ(spj->selections[1].attr, 2);
  EXPECT_EQ(spj->selections[1].value, 7u);
  EXPECT_EQ(spj->projection, AttrMask(0b011));
}

TEST(SpjParseTest, Failures) {
  EXPECT_FALSE(ParseSpj("G(a,b) | a5").ok());     // missing '='
  EXPECT_FALSE(ParseSpj("G(a,b) | z=1").ok());    // unknown attribute
  EXPECT_FALSE(ParseSpj("G(a,b) | a=x").ok());    // non-numeric constant
  EXPECT_FALSE(ParseSpj("G(a,b) | | | d").ok());  // too many sections
  EXPECT_FALSE(ParseSpj("G(a,b) | a=1 | z").ok()); // unknown projection
}

TEST(SpjParseTest, ToStringMentionsAllParts) {
  auto spj = ParseSpj("G(a,b) G(b,c) | a=5 | b");
  ASSERT_TRUE(spj.ok());
  std::string s = spj->ToString();
  EXPECT_NE(s.find("WHERE"), std::string::npos);
  EXPECT_NE(s.find("a=5"), std::string::npos);
  EXPECT_NE(s.find("PROJECT"), std::string::npos);
}

TEST(SpjPushDownTest, FiltersOnlyTouchedAtoms) {
  storage::Catalog db = SmallDb(3);
  auto spj = ParseSpj("G(a,b) G(b,c) | a=1");
  ASSERT_TRUE(spj.ok());
  auto pushed = PushDownSelections(db, *spj);
  ASSERT_TRUE(pushed.ok());
  // Atom 0 is rewritten to a derived relation, atom 1 untouched.
  EXPECT_EQ(pushed->query.atom(0).relation, "G__sel0");
  EXPECT_EQ(pushed->query.atom(1).relation, "G");
  auto filtered = pushed->catalog.Get("G__sel0");
  ASSERT_TRUE(filtered.ok());
  for (uint64_t r = 0; r < (*filtered)->size(); ++r) {
    EXPECT_EQ((*filtered)->At(r, 0), 1u);
  }
  EXPECT_GT(pushed->filtered, 0u);
}

/// Oracle for SPJ: filter + naive join + manual projection.
uint64_t SpjOracle(const storage::Catalog& db, const SpjQuery& spj) {
  auto pushed = PushDownSelections(db, spj);
  EXPECT_TRUE(pushed.ok());
  auto joined = wcoj::NaiveJoin(pushed->query, pushed->catalog);
  EXPECT_TRUE(joined.ok());
  if (spj.projection == 0) return joined->size();
  std::set<std::vector<Value>> distinct;
  std::vector<int> cols;
  for (int a = 0; a < spj.join.num_attrs(); ++a) {
    if (spj.projection & (AttrMask(1) << a)) {
      cols.push_back(joined->schema().PositionOf(a));
    }
  }
  for (uint64_t r = 0; r < joined->size(); ++r) {
    std::vector<Value> t;
    for (int c : cols) t.push_back(joined->At(r, c));
    distinct.insert(t);
  }
  return distinct.size();
}

TEST(SpjRunTest, SelectionOnlyMatchesOracle) {
  storage::Catalog db = SmallDb(7);
  auto spj = ParseSpj("G(a,b) G(b,c) G(a,c) | a=2");
  ASSERT_TRUE(spj.ok());
  auto result = RunSpj(db, *spj, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->report.ok());
  EXPECT_EQ(result->projected_count, SpjOracle(db, *spj));
}

TEST(SpjRunTest, ProjectionCountsDistinct) {
  storage::Catalog db = SmallDb(9);
  auto spj = ParseSpj("G(a,b) G(b,c) | | a");
  ASSERT_TRUE(spj.ok());
  auto result = RunSpj(db, *spj, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->report.ok());
  EXPECT_EQ(result->projected_count, SpjOracle(db, *spj));
  // Distinct a-values can not exceed the number of nodes.
  EXPECT_LE(result->projected_count, 25u);
}

TEST(SpjRunTest, SelectionPlusProjectionWithCoOpt) {
  storage::Catalog db = SmallDb(11);
  auto spj = ParseSpj("G(a,b) G(b,c) G(a,c) | b=3 | a, c");
  ASSERT_TRUE(spj.ok());
  auto result = RunSpj(db, *spj, Strategy::kCoOpt, FastOptions());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->report.ok());
  EXPECT_EQ(result->projected_count, SpjOracle(db, *spj));
}

TEST(SpjRunTest, EmptySelectionResultIsZero) {
  storage::Catalog db = SmallDb(13);
  auto spj = ParseSpj("G(a,b) G(b,c) | a=4000000");
  ASSERT_TRUE(spj.ok());
  auto result = RunSpj(db, *spj, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->projected_count, 0u);
}

TEST(SpjRunTest, PushDownReducesShuffleVolume) {
  storage::Catalog db = SmallDb(15);
  auto with_sel = ParseSpj("G(a,b) G(b,c) G(a,c) | a=1");
  auto without = ParseSpj("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(with_sel.ok() && without.ok());
  auto r1 = RunSpj(db, *with_sel, Strategy::kCommFirst, FastOptions());
  auto r2 = RunSpj(db, *without, Strategy::kCommFirst, FastOptions());
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LT(r1->report.comm.tuple_copies, r2->report.comm.tuple_copies);
}

}  // namespace
}  // namespace adj::core
