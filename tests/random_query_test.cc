// Randomized cross-engine equivalence: random connected queries with
// mixed-arity atoms over *distinct* random relations, evaluated by
// every engine and compared against the NaiveJoin oracle. This is the
// widest net in the suite — any disagreement between the WCOJ,
// distributed, semi-join, or binary-join paths shows up here.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "exec/yannakakis.h"
#include "query/query.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

struct RandomCase {
  query::Query query;
  storage::Catalog db;
};

/// Builds a random connected query of `num_atoms` atoms (arity 2–3)
/// over at most 5 attributes, each atom bound to its own random
/// relation.
RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed);
  const int num_attrs = 3 + int(rng.Uniform(3));  // 3..5
  const int num_atoms = 2 + int(rng.Uniform(4));  // 2..5

  std::vector<std::string> attr_names;
  for (int a = 0; a < num_attrs; ++a) {
    attr_names.push_back(std::string(1, char('a' + a)));
  }

  RandomCase out;
  std::vector<query::Atom> atoms;
  AttrMask covered = 0;
  for (int i = 0; i < num_atoms; ++i) {
    const int arity = 2 + int(rng.Uniform(2));  // 2..3
    std::vector<AttrId> attrs;
    // Keep the query connected: after the first atom, reuse at least
    // one covered attribute.
    if (covered != 0) {
      std::vector<AttrId> pool;
      for (int a = 0; a < num_attrs; ++a) {
        if (covered & (AttrMask(1) << a)) pool.push_back(a);
      }
      attrs.push_back(pool[rng.Uniform(pool.size())]);
    }
    while (static_cast<int>(attrs.size()) < arity) {
      AttrId a = AttrId(rng.Uniform(uint64_t(num_attrs)));
      bool dup = false;
      for (AttrId existing : attrs) {
        if (existing == a) dup = true;
      }
      if (!dup) attrs.push_back(a);
    }
    for (AttrId a : attrs) covered |= (AttrMask(1) << a);

    const std::string name = "R" + std::to_string(i);
    storage::Relation rel((storage::Schema(
        std::vector<AttrId>(attrs.begin(), attrs.end()))));
    const uint64_t rows = 40 + rng.Uniform(120);
    const uint64_t domain = 6 + rng.Uniform(14);
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
  // Atoms covering fewer than all attrs are fine as long as every
  // attribute is used; drop unused attributes from the universe.
  std::vector<std::string> used_names;
  std::vector<query::Atom> remapped;
  std::vector<AttrId> remap(num_attrs, -1);
  for (int a = 0; a < num_attrs; ++a) {
    if (covered & (AttrMask(1) << a)) {
      remap[size_t(a)] = AttrId(used_names.size());
      used_names.push_back(attr_names[size_t(a)]);
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

class RandomQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomQueryTest, AllEnginesAgreeWithOracle) {
  RandomCase c = MakeRandomCase(uint64_t(GetParam()) * 7919 + 13);
  auto naive = wcoj::NaiveJoin(c.query, c.db, 5'000'000);
  ASSERT_TRUE(naive.ok()) << naive.status();
  const uint64_t truth = naive->size();

  core::Engine engine(&c.db);
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
  // Yannakakis over the optimal GHD agrees too.
  auto yk = exec::YannakakisJoinAuto(c.query, c.db);
  ASSERT_TRUE(yk.ok());
  EXPECT_EQ(yk->size(), truth) << "Yannakakis on " << c.query.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest, ::testing::Range(0, 20));

}  // namespace
}  // namespace adj
