#include <algorithm>
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/cluster.h"
#include "dist/comm_stats.h"
#include "dist/hcube.h"
#include "query/queries.h"
#include "wcoj/leapfrog.h"
#include "wcoj/naive_join.h"

namespace adj::dist {
namespace {

TEST(ShareVectorTest, NumCubesAndToString) {
  ShareVector p{{1, 2, 2, 1, 1}};
  EXPECT_EQ(p.NumCubes(), 4u);
  EXPECT_EQ(p.ToString(), "(1,2,2,1,1)");
}

TEST(ShareVectorTest, DupCubes) {
  // Paper Example: p=(1,2,2,1,1); R2(a,d) has dup = p_b * p_c = 4.
  ShareVector p{{1, 2, 2, 1, 1}};
  const AttrMask r2 = 0b01001;  // {a, d}
  EXPECT_EQ(DupCubes(r2, p), 4u);
  const AttrMask r1 = 0b00111;  // {a, b, c}
  EXPECT_EQ(DupCubes(r1, p), 1u);
}

TEST(ShareVectorTest, ServerFraction) {
  ShareVector p{{1, 2, 2, 1, 1}};
  EXPECT_DOUBLE_EQ(ServerFraction(0b00111, p), 0.25);  // (a,b,c): 1/(2*2)
  EXPECT_DOUBLE_EQ(ServerFraction(0b01001, p), 1.0);   // (a,d)
}

TEST(CommStatsTest, AddAccumulates) {
  CommStats a{10, 100, 1, 0.5};
  CommStats b{5, 50, 2, 0.25};
  a.Add(b);
  EXPECT_EQ(a.tuple_copies, 15u);
  EXPECT_EQ(a.bytes, 150u);
  EXPECT_EQ(a.blocks, 3u);
  EXPECT_DOUBLE_EQ(a.seconds, 0.75);
}

TEST(NetworkModelTest, PushCostsMoreThanPullPerTuple) {
  NetworkModel net;
  // A million small tuples: per-record overhead dominates Push.
  const double push = PushSeconds(net, 1000000, 8000000, 4);
  const double pull = PullSeconds(net, 64, 8000000, 4);
  EXPECT_GT(push, pull);
}

TEST(NetworkModelTest, BandwidthScalesWithServers) {
  NetworkModel net;
  EXPECT_LT(PullSeconds(net, 10, 1 << 26, 16),
            PullSeconds(net, 10, 1 << 26, 2));
}

TEST(ClusterTest, MemoryCheck) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.memory_per_server_bytes = 100;
  Cluster cluster(cfg);
  EXPECT_TRUE(cluster.CheckMemory().ok());
  cluster.shard(1).resident_bytes = 200;
  EXPECT_EQ(cluster.CheckMemory().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cluster.MaxResidentBytes(), 200u);
  cluster.ClearShards();
  EXPECT_TRUE(cluster.CheckMemory().ok());
}

/// Core distributed-correctness property: for any share vector and any
/// variant, the per-server Leapfrog counts sum to the sequential join
/// count (the union of hypercube results is the query answer).
class HCubeCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, int, HCubeVariant>> {};

TEST_P(HCubeCorrectnessTest, UnionOfServersEqualsSequential) {
  const int query_index = std::get<0>(GetParam());
  const int num_servers = std::get<1>(GetParam());
  const HCubeVariant variant = std::get<2>(GetParam());

  auto q = query::MakeBenchmarkQuery(query_index);
  ASSERT_TRUE(q.ok());
  Rng rng(uint64_t(query_index * 100 + num_servers));
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(30, 150, rng))).ok());

  // Sequential oracle.
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());

  // Distributed run under ascending order.
  query::AttributeOrder order;
  for (int a = 0; a < q->num_attrs(); ++a) order.push_back(a);
  const std::vector<int> rank = query::RankOf(order, q->num_attrs());

  std::vector<wcoj::PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(*wcoj::PrepareRelation(**db.Get(atom.relation),
                                              atom.schema.attrs(), rank));
  }
  std::vector<HCubeInput> inputs;
  for (const auto& p : prepared) {
    inputs.push_back(HCubeInput::Plain(&p.rel, p.attrs));
  }

  ClusterConfig cfg;
  cfg.num_servers = num_servers;
  Cluster cluster(cfg);
  // Derive some nontrivial share vector: split the first two
  // attributes.
  ShareVector share;
  share.p.assign(q->num_attrs(), 1);
  share.p[0] = 2;
  if (q->num_attrs() > 1) share.p[1] = 2;
  auto shuffle = HCubeShuffle(inputs, share, variant, &cluster);
  ASSERT_TRUE(shuffle.ok()) << shuffle.status();

  uint64_t total = 0;
  for (int s = 0; s < num_servers; ++s) {
    const LocalShard& shard = cluster.shard(s);
    std::vector<wcoj::JoinInput> jinputs;
    bool any_empty = false;
    for (size_t a = 0; a < shard.tries.size(); ++a) {
      if (shard.tries[a]->empty()) any_empty = true;
      jinputs.push_back({shard.tries[a].get(), shard.attrs[a]});
    }
    if (any_empty) continue;
    auto count = wcoj::LeapfrogJoin(jinputs, order, nullptr, nullptr);
    ASSERT_TRUE(count.ok());
    total += *count;
  }
  EXPECT_EQ(total, naive->size())
      << "Q" << query_index << " N=" << num_servers << " "
      << HCubeVariantName(variant);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HCubeCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 5, 10),
                       ::testing::Values(1, 3, 4, 7),
                       ::testing::Values(HCubeVariant::kPush,
                                         HCubeVariant::kPull,
                                         HCubeVariant::kMerge)));

TEST(HCubeTest, AccountingInvariants) {
  Rng rng(7);
  storage::Catalog db;
  // Enough tuples that per-record overhead dominates per-block
  // overhead (the regime the paper's Fig. 9 lives in).
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(2000, 40000, rng))).ok());
  auto q = query::MakeBenchmarkQuery(1);
  query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, 3);
  std::vector<wcoj::PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(*wcoj::PrepareRelation(**db.Get(atom.relation),
                                              atom.schema.attrs(), rank));
  }
  std::vector<HCubeInput> inputs;
  for (const auto& p : prepared) {
    inputs.push_back(HCubeInput::Plain(&p.rel, p.attrs));
  }

  ClusterConfig cfg;
  cfg.num_servers = 4;
  ShareVector share{{2, 2, 1}};

  Cluster c_push(cfg), c_pull(cfg), c_merge(cfg);
  auto push = HCubeShuffle(inputs, share, HCubeVariant::kPush, &c_push);
  auto pull = HCubeShuffle(inputs, share, HCubeVariant::kPull, &c_pull);
  auto merge = HCubeShuffle(inputs, share, HCubeVariant::kMerge, &c_merge);
  ASSERT_TRUE(push.ok() && pull.ok() && merge.ok());

  // Same logical tuple movement.
  EXPECT_EQ(push->comm.tuple_copies, pull->comm.tuple_copies);
  EXPECT_EQ(pull->comm.tuple_copies, merge->comm.tuple_copies);
  // Push is the most expensive shuffle (Fig. 9a); Merge ships tries,
  // whose payload differs from raw tuples but stays in the same ballpark.
  EXPECT_GT(push->comm.seconds, pull->comm.seconds);
  // Merge's local build (k-way merge) beats full sorting (Fig. 9b).
  EXPECT_LE(merge->build_seconds_sum, push->build_seconds_sum * 2.0);
  // Identical shard contents across variants.
  for (int s = 0; s < cfg.num_servers; ++s) {
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_TRUE(std::ranges::equal(c_push.shard(s).atoms[a]->raw(), c_merge.shard(s).atoms[a]->raw()));
      EXPECT_TRUE(std::ranges::equal(c_pull.shard(s).atoms[a]->raw(), c_merge.shard(s).atoms[a]->raw()));
    }
  }
}

/// The bytes a shuffle onto `cluster` must charge: every non-empty
/// fragment at its stored size, its rows under Push and Pull and its
/// trie arrays under Merge.
uint64_t StoredFragmentBytes(const Cluster& cluster, HCubeVariant variant) {
  uint64_t bytes = 0;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    const LocalShard& shard = cluster.shard(s);
    for (size_t a = 0; a < shard.atoms.size(); ++a) {
      if (shard.atoms[a]->empty()) continue;
      bytes += variant == HCubeVariant::kMerge
                   ? shard.tries[a]->ResidentBytes()
                   : shard.atoms[a]->SizeBytes();
    }
  }
  return bytes;
}

TEST(HCubeTest, FragmentsShipAtTheirStoredBytes) {
  // Cold build, warm cache hit and post-write patch all charge the
  // stored bytes, and so does the single-server alias, which ships the
  // (block-compressed) bound index itself and adds no cache entry.
  for (HCubeVariant variant : {HCubeVariant::kPush, HCubeVariant::kPull,
                               HCubeVariant::kMerge}) {
    SCOPED_TRACE(HCubeVariantName(variant));
    Rng rng(4242);
    storage::Catalog db;
    ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
        "G", dataset::ErdosRenyi(1500, 9000, rng))).ok());
    std::shared_ptr<const storage::PreparedIndex> index;
    auto shuffle = [&](int servers, storage::IndexBuildStats* stats) {
      StatusOr<std::shared_ptr<const storage::PreparedIndex>> bound =
          db.index_cache().GetPermuted(*db.GetShared("G"), {0, 1});
      EXPECT_TRUE(bound.ok()) << bound.status();
      if (!bound.ok()) return uint64_t{0};
      index = *bound;
      HCubeInput in = HCubeInput::Indexed(index, {0, 1});
      ClusterConfig cfg;
      cfg.num_servers = servers;
      Cluster cluster(cfg);
      StatusOr<HCubeResult> result =
          HCubeShuffle({in}, ShareVector{{2, 2}}, variant, &cluster,
                       &db.index_cache(), stats);
      EXPECT_TRUE(result.ok()) << result.status();
      if (!result.ok()) return uint64_t{0};
      EXPECT_GT(result->comm.bytes, 0u);
      EXPECT_EQ(result->comm.bytes, StoredFragmentBytes(cluster, variant));
      return result->comm.bytes;
    };

    storage::IndexBuildStats cold;
    const uint64_t cold_bytes = shuffle(4, &cold);
    EXPECT_EQ(cold.builds, 1u);
    storage::IndexBuildStats warm;
    EXPECT_EQ(shuffle(4, &warm), cold_bytes);
    EXPECT_EQ(warm.builds, 0u);
    EXPECT_EQ(warm.hits, 1u);

    storage::WriteBatch batch;
    for (Value v = 0; v < 8; ++v) batch.Insert("G", {v, 2000 + v});
    ASSERT_TRUE(db.Apply(batch).ok());
    storage::IndexBuildStats patched;
    EXPECT_GT(shuffle(4, &patched), cold_bytes);
    EXPECT_EQ(patched.builds, 0u);
    EXPECT_EQ(patched.patched, 1u);

    const size_t entries = db.index_cache().size();
    storage::IndexBuildStats alias;
    const uint64_t alias_bytes = shuffle(1, &alias);
    EXPECT_EQ(alias.builds, 0u);
    EXPECT_EQ(alias.hits, 1u);
    EXPECT_EQ(db.index_cache().size(), entries);
    ASSERT_TRUE(index->trie->any_compressed());
    EXPECT_EQ(alias_bytes, variant == HCubeVariant::kMerge
                               ? index->trie->ResidentBytes()
                               : index->rel->SizeBytes());
  }
}

TEST(HCubeTest, TupleDupMatchesDupCubesWhenCubesFitServers) {
  // One relation, p=(2,2): every tuple of R(a) with dup = p_b = 2 goes
  // to exactly 2 servers when each cube has its own server.
  storage::Relation r(storage::Schema({0}));
  for (Value v = 0; v < 100; ++v) r.Append({v});
  r.SortAndDedup();
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&r, {0})};
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  ShareVector share{{2, 2}};
  auto result = HCubeShuffle(inputs, share, HCubeVariant::kPull, &cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->comm.tuple_copies, 200u);
}

TEST(HCubeTest, MemoryBudgetViolationFails) {
  Rng rng(9);
  storage::Relation r = dataset::ErdosRenyi(100, 2000, rng);
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&r, {0, 1})};
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.memory_per_server_bytes = 64;  // absurdly small
  Cluster cluster(cfg);
  ShareVector share{{2, 1}};
  auto result = HCubeShuffle(inputs, share, HCubeVariant::kPull, &cluster);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(HCubeTest, RejectsZeroShare) {
  storage::Relation r(storage::Schema({0}));
  r.Append({1});
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&r, {0})};
  ClusterConfig cfg;
  Cluster cluster(cfg);
  ShareVector share{{0}};
  EXPECT_FALSE(HCubeShuffle(inputs, share, HCubeVariant::kPull, &cluster).ok());
}

TEST(HCubeTest, RejectsRowsThatAreNotTheIndexs) {
  // The 1-server alias ships the index itself, so an indexed input
  // must name the index's own rows.
  storage::Catalog db;
  storage::Relation r(storage::Schema({0}));
  r.Append({1});
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create("R", r)).ok());
  auto index = db.index_cache().GetPermuted(*db.GetShared("R"), {0});
  ASSERT_TRUE(index.ok()) << index.status();
  HCubeInput in = HCubeInput::Indexed(*index, {0});
  in.rel = &r;
  Cluster cluster(ClusterConfig{});
  auto result = HCubeShuffle({in}, ShareVector{{1}}, HCubeVariant::kPull,
                             &cluster, &db.index_cache());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace adj::dist
