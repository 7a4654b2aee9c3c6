// Edge cases of the dist-layer network model and hypercube math beyond
// what dist_test.cc pins down: zero-byte shuffles, single-server
// clusters, and all-ones share vectors.
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>

#include "dist/cluster.h"
#include "dist/comm_stats.h"
#include "dist/hcube.h"
#include "storage/relation.h"

namespace adj::dist {
namespace {

TEST(NetworkModelEdgeTest, ZeroVolumeCostsNothing) {
  NetworkModel net;
  EXPECT_DOUBLE_EQ(PushSeconds(net, 0, 0, 4), 0.0);
  EXPECT_DOUBLE_EQ(PullSeconds(net, 0, 0, 4), 0.0);
}

TEST(NetworkModelEdgeTest, SingleServerIsWellDefined) {
  NetworkModel net;
  const double pull = PullSeconds(net, 10, 1 << 20, 1);
  EXPECT_GT(pull, 0.0);
  EXPECT_TRUE(std::isfinite(pull));
  // A degenerate server count must not divide by zero either.
  EXPECT_TRUE(std::isfinite(PullSeconds(net, 10, 1 << 20, 0)));
  // One link: push of the same bytes with per-record framing costs more.
  EXPECT_GT(PushSeconds(net, 1 << 20, 1 << 20, 1), pull);
}

TEST(NetworkModelEdgeTest, MoreBlocksNeverCheaper) {
  NetworkModel net;
  EXPECT_LE(PullSeconds(net, 1, 4096, 4), PullSeconds(net, 100, 4096, 4));
}

TEST(ShareVectorEdgeTest, AllOnesSharesAreTheIdentity) {
  ShareVector p{{1, 1, 1, 1}};
  EXPECT_TRUE(p.Valid());
  EXPECT_EQ(p.NumCubes(), 1u);
  // Every relation is duplicated to exactly one cube and every server
  // fraction is 1 — the "no partitioning" degenerate point of Eq. 3.
  for (AttrMask schema : {AttrMask(0b0001), AttrMask(0b0110),
                          AttrMask(0b1111), AttrMask(0)}) {
    EXPECT_EQ(DupCubes(schema, p), 1u) << schema;
    EXPECT_DOUBLE_EQ(ServerFraction(schema, p), 1.0) << schema;
  }
}

TEST(ShareVectorEdgeTest, EmptyAndZeroSharesAreInvalid) {
  EXPECT_FALSE(ShareVector{}.Valid());
  EXPECT_FALSE((ShareVector{{2, 0, 1}}).Valid());
  EXPECT_TRUE((ShareVector{{1}}).Valid());
}

TEST(HCubeEdgeTest, EmptyRelationShufflesForFree) {
  storage::Relation empty(storage::Schema({0, 1}));
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&empty, {0, 1})};
  ClusterConfig cfg;
  cfg.num_servers = 4;
  for (HCubeVariant variant :
       {HCubeVariant::kPush, HCubeVariant::kPull, HCubeVariant::kMerge}) {
    Cluster cluster(cfg);
    ShareVector share{{2, 2}};
    auto result = HCubeShuffle(inputs, share, variant, &cluster);
    ASSERT_TRUE(result.ok()) << HCubeVariantName(variant);
    EXPECT_EQ(result->comm.tuple_copies, 0u);
    EXPECT_EQ(result->comm.bytes, 0u);
    EXPECT_EQ(result->comm.blocks, 0u);
    EXPECT_DOUBLE_EQ(result->comm.seconds, 0.0);
    EXPECT_EQ(cluster.MaxResidentBytes(), 0u);
    for (int s = 0; s < cfg.num_servers; ++s) {
      ASSERT_EQ(cluster.shard(s).tries.size(), 1u);
      EXPECT_TRUE(cluster.shard(s).tries[0]->empty());
    }
  }
}

TEST(HCubeEdgeTest, AllOnesSharesPlaceEverythingOnOneServer) {
  storage::Relation r(storage::Schema({0, 1}));
  for (Value v = 0; v < 50; ++v) r.Append({v, v + 1});
  r.SortAndDedup();
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&r, {0, 1})};
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  ShareVector share{{1, 1}};
  auto result = HCubeShuffle(inputs, share, HCubeVariant::kPull, &cluster);
  ASSERT_TRUE(result.ok());
  // One cube -> every tuple shipped exactly once, all to server 0.
  EXPECT_EQ(result->comm.tuple_copies, r.size());
  EXPECT_TRUE(std::ranges::equal(cluster.shard(0).atoms[0]->raw(), r.raw()));
  for (int s = 1; s < cfg.num_servers; ++s) {
    EXPECT_TRUE(cluster.shard(s).atoms[0]->empty());
  }
}

TEST(HCubeEdgeTest, SingleServerClusterReceivesWholeRelation) {
  storage::Relation r(storage::Schema({0}));
  for (Value v = 0; v < 30; ++v) r.Append({v});
  r.SortAndDedup();
  std::vector<HCubeInput> inputs = {HCubeInput::Plain(&r, {0})};
  ClusterConfig cfg;
  cfg.num_servers = 1;
  Cluster cluster(cfg);
  // Nontrivial shares on one server: cubes collapse, tuples still ship
  // exactly once.
  ShareVector share{{2, 3}};
  auto result = HCubeShuffle(inputs, share, HCubeVariant::kPush, &cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->comm.tuple_copies, r.size());
  EXPECT_TRUE(std::ranges::equal(cluster.shard(0).atoms[0]->raw(), r.raw()));
}

}  // namespace
}  // namespace adj::dist
