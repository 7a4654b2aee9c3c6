#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "exec/bigjoin.h"
#include "exec/binary_join.h"
#include "exec/hcubej.h"
#include "exec/precompute.h"
#include "ghd/decomposition.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::exec {
namespace {

using storage::WriteBatch;

storage::Catalog SmallDb(uint64_t seed, uint64_t nodes = 30,
                         uint64_t edges = 150) {
  Rng rng(seed);
  storage::Catalog db;
  EXPECT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(nodes, edges, rng))).ok());
  return db;
}

query::AttributeOrder Ascending(const query::Query& q) {
  query::AttributeOrder order;
  for (int a = 0; a < q.num_attrs(); ++a) order.push_back(a);
  return order;
}

TEST(HCubeJTest, MatchesNaiveAcrossQueries) {
  storage::Catalog db = SmallDb(3);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  for (int qi : {1, 2, 4, 5, 6, 10}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto naive = wcoj::NaiveJoin(*q, db);
    ASSERT_TRUE(naive.ok());
    dist::Cluster cluster(cfg);
    HCubeJParams params;
    auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
    ASSERT_TRUE(run.ok()) << "Q" << qi;
    ASSERT_TRUE(run->report.ok()) << "Q" << qi;
    EXPECT_EQ(run->report.output_count, naive->size()) << "Q" << qi;
    EXPECT_GT(run->report.comm.tuple_copies, 0u);
  }
}

TEST(HCubeJTest, CollectsOutput) {
  storage::Catalog db = SmallDb(5);
  auto q = query::MakeBenchmarkQuery(1);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  dist::Cluster cluster(cfg);
  HCubeJParams params;
  params.collect_output = true;
  auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
  ASSERT_TRUE(run.ok());
  storage::Relation collected = std::move(run->results);
  collected.SortAndDedup();
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  EXPECT_TRUE(std::ranges::equal(collected.raw(), naive->raw()));
}

TEST(HCubeJTest, CachedVariantSameCount) {
  storage::Catalog db = SmallDb(7);
  auto q = query::MakeBenchmarkQuery(2);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  auto naive = wcoj::NaiveJoin(*q, db);
  dist::Cluster cluster(cfg);
  HCubeJParams params;
  params.use_cache = true;
  auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run->report.ok());
  EXPECT_EQ(run->report.output_count, naive->size());
  EXPECT_EQ(run->report.method, "HCubeJ+Cache");
}

TEST(HCubeJTest, ShareOptimizedWhenUnset) {
  storage::Catalog db = SmallDb(9);
  auto q = query::MakeBenchmarkQuery(1);
  dist::ClusterConfig cfg;
  cfg.num_servers = 7;
  dist::Cluster cluster(cfg);
  HCubeJParams params;  // empty share => optimizer runs
  auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
  ASSERT_TRUE(run.ok());
  EXPECT_GE(run->share_used.NumCubes(), 7u);
}

TEST(HCubeJTest, UnknownRelationFails) {
  storage::Catalog db;
  auto q = query::MakeBenchmarkQuery(1);
  dist::ClusterConfig cfg;
  dist::Cluster cluster(cfg);
  HCubeJParams params;
  auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
  EXPECT_FALSE(run.ok());
}

TEST(HCubeJTest, MemoryFailureSurfacesInReport) {
  storage::Catalog db = SmallDb(11, 200, 3000);
  auto q = query::MakeBenchmarkQuery(1);
  dist::ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.memory_per_server_bytes = 256;  // far too small
  dist::Cluster cluster(cfg);
  HCubeJParams params;
  auto run = RunHCubeJ(*q, db, Ascending(*q), params, &cluster);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->report.ok());
  EXPECT_EQ(run->report.status.code(), StatusCode::kResourceExhausted);
}

TEST(BinaryJoinTest, MatchesNaive) {
  storage::Catalog db = SmallDb(13);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  for (int qi : {1, 2, 7, 9, 10}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto naive = wcoj::NaiveJoin(*q, db);
    ASSERT_TRUE(naive.ok());
    dist::Cluster cluster(cfg);
    auto report = RunBinaryJoin(*q, db, &cluster);
    ASSERT_TRUE(report.ok()) << "Q" << qi;
    ASSERT_TRUE(report->ok()) << "Q" << qi;
    EXPECT_EQ(report->output_count, naive->size()) << "Q" << qi;
    EXPECT_EQ(report->rounds, uint64_t(q->num_atoms() - 1));
  }
}

TEST(BinaryJoinTest, ShufflesIntermediates) {
  storage::Catalog db = SmallDb(15, 60, 500);
  auto q = query::MakeBenchmarkQuery(2);
  dist::ClusterConfig cfg;
  dist::Cluster cluster(cfg);
  auto report = RunBinaryJoin(*q, db, &cluster);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  // Multi-round methods shuffle more than the input size: intermediate
  // results re-enter the network each round.
  const uint64_t input = (*db.Get("G"))->size();
  EXPECT_GT(report->comm.tuple_copies, input);
}

TEST(BinaryJoinTest, RowLimitEmulatesOom) {
  storage::Catalog db = SmallDb(17, 100, 1500);
  auto q = query::MakeBenchmarkQuery(4);
  dist::ClusterConfig cfg;
  dist::Cluster cluster(cfg);
  wcoj::JoinLimits limits;
  limits.max_materialized_rows = 100;
  auto report = RunBinaryJoin(*q, db, &cluster, limits);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_EQ(report->status.code(), StatusCode::kResourceExhausted);
}

TEST(BigJoinTest, MatchesNaive) {
  storage::Catalog db = SmallDb(19);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  for (int qi : {1, 2, 4, 10}) {
    auto q = query::MakeBenchmarkQuery(qi);
    auto naive = wcoj::NaiveJoin(*q, db);
    ASSERT_TRUE(naive.ok());
    dist::Cluster cluster(cfg);
    auto report = RunBigJoin(*q, db, Ascending(*q), &cluster);
    ASSERT_TRUE(report.ok()) << "Q" << qi;
    ASSERT_TRUE(report->ok()) << "Q" << qi;
    EXPECT_EQ(report->output_count, naive->size()) << "Q" << qi;
    EXPECT_EQ(report->rounds, uint64_t(q->num_attrs()));
  }
}

TEST(BigJoinTest, ShufflesBindingsEveryRound) {
  storage::Catalog db = SmallDb(21, 60, 600);
  auto q = query::MakeBenchmarkQuery(1);
  dist::ClusterConfig cfg;
  dist::Cluster cluster(cfg);
  auto report = RunBigJoin(*q, db, Ascending(*q), &cluster);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->ok());
  EXPECT_GT(report->comm.tuple_copies, report->output_count);
}

TEST(BigJoinTest, RowLimitEmulatesExplosion) {
  storage::Catalog db = SmallDb(23, 150, 2500);
  auto q = query::MakeBenchmarkQuery(3);  // 5-clique: binding explosion
  dist::ClusterConfig cfg;
  dist::Cluster cluster(cfg);
  wcoj::JoinLimits limits;
  limits.max_materialized_rows = 200;
  auto report = RunBigJoin(*q, db, Ascending(*q), &cluster, limits);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
}

TEST(PrecomputeTest, MaterializedBagEqualsNaiveSubJoin) {
  storage::Catalog db = SmallDb(25);
  auto q = *query::Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  storage::Catalog db5;
  {
    Rng rng(25);
    storage::Relation g = dataset::ErdosRenyi(30, 150, rng);
    for (const char* name : {"R1", "R2", "R3", "R4", "R5"}) {
      // R1 is ternary; bind it to a 3-column relation built from G.
      if (std::string(name) == "R1") {
        storage::Relation r1(storage::Schema({0, 1, 2}));
        for (uint64_t i = 0; i + 1 < g.size(); i += 2) {
          r1.Append({g.At(i, 0), g.At(i, 1), g.At(i + 1, 1)});
        }
        r1.SortAndDedup();
        ASSERT_TRUE(db5.Apply(WriteBatch().Create(name, std::move(r1))).ok());
      } else {
        ASSERT_TRUE(db5.Apply(WriteBatch().Create(name, g)).ok());
      }
    }
  }
  auto d = *ghd::FindOptimalGhd(q);
  dist::ClusterConfig cfg;
  cfg.num_servers = 4;
  dist::Cluster cluster(cfg);
  for (int v = 0; v < d.num_bags(); ++v) {
    if (d.bags[size_t(v)].IsSingleAtom()) continue;
    auto bag = MaterializeBag(q, db5, d.bags[size_t(v)], &cluster, {});
    ASSERT_TRUE(bag.ok());
    // Oracle: naive join of the bag's atoms.
    std::vector<query::Atom> atoms;
    for (int i = 0; i < q.num_atoms(); ++i) {
      if (d.bags[size_t(v)].atoms & (AtomMask(1) << i)) {
        atoms.push_back(q.atom(i));
      }
    }
    auto sub = query::Query::Make(q.attr_names(), atoms);
    auto naive = wcoj::NaiveJoin(sub, db5);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(bag->rel.size(), naive->size());
    EXPECT_TRUE(std::ranges::equal(bag->rel.raw(), naive->raw()));
    EXPECT_GT(bag->comm.tuple_copies, 0u);
  }
}

TEST(RewriteTest, BagAtomsReplaceCoveredAtoms) {
  auto q = *query::Query::Parse("R1(a,b,c) R2(a,d) R3(c,d) R4(b,e) R5(c,e)");
  auto d = *ghd::FindOptimalGhd(q);
  std::vector<bool> pre(d.num_bags(), false);
  int chosen = -1;
  for (int v = 0; v < d.num_bags(); ++v) {
    if (!d.bags[size_t(v)].IsSingleAtom()) {
      pre[size_t(v)] = true;
      chosen = v;
      break;
    }
  }
  ASSERT_GE(chosen, 0);
  RewrittenQuery rw = RewriteWithBags(q, d, pre);
  EXPECT_EQ(rw.bag_atoms.size(), 1u);
  // Atom count shrinks by (bag size - 1).
  const int bag_atoms = PopCount(d.bags[size_t(chosen)].atoms);
  EXPECT_EQ(rw.query.num_atoms(), q.num_atoms() - bag_atoms + 1);
  // All attributes still covered.
  AttrMask covered = 0;
  for (const query::Atom& atom : rw.query.atoms()) {
    covered |= atom.schema.Mask();
  }
  EXPECT_EQ(covered, q.AllAttrs());
}

TEST(RewriteTest, NoPrecomputeIsIdentity) {
  auto q = *query::Query::Parse("R(a,b) S(b,c)");
  auto d = *ghd::FindOptimalGhd(q);
  std::vector<bool> pre(d.num_bags(), false);
  RewrittenQuery rw = RewriteWithBags(q, d, pre);
  EXPECT_EQ(rw.query.num_atoms(), q.num_atoms());
  EXPECT_TRUE(rw.bag_atoms.empty());
}

TEST(RunReportTest, ToStringFormats) {
  RunReport r;
  r.method = "X";
  r.output_count = 5;
  EXPECT_NE(r.ToString().find("X"), std::string::npos);
  r.status = Status::ResourceExhausted("boom");
  EXPECT_NE(r.ToString().find("FAILED"), std::string::npos);
}

}  // namespace
}  // namespace adj::exec
