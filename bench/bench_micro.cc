// Micro-benchmarks (google-benchmark) for the hot primitives: trie
// build, trie seek, k-way leapfrog intersection, sequential Leapfrog,
// and the HCube shuffle. These are the constants (alpha, beta) the
// cost model of Sec. III-B is calibrated from.
#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/cluster.h"
#include "storage/catalog.h"
#include "dist/hcube.h"
#include "query/queries.h"
#include "wcoj/leapfrog.h"

namespace adj {
namespace {

storage::Relation MakeGraph(int64_t edges) {
  Rng rng(uint64_t(edges) * 7919);
  return dataset::ZipfGraph(std::max<uint64_t>(64, uint64_t(edges) / 8),
                            uint64_t(edges), 0.8, rng);
}

/// A catalog holding MakeGraph(edges) as "G".
storage::Catalog GraphCatalog(int64_t edges) {
  storage::Catalog db;
  const Status s =
      db.Apply(storage::WriteBatch().Create("G", MakeGraph(edges)));
  ADJ_CHECK(s.ok()) << s.ToString();
  return db;
}

void BM_TrieBuild(benchmark::State& state) {
  storage::Relation rel = MakeGraph(state.range(0));
  for (auto _ : state) {
    storage::Trie t = storage::Trie::Build(rel);
    benchmark::DoNotOptimize(t.NumTuples());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(rel.size()));
}
BENCHMARK(BM_TrieBuild)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

void BM_TrieSeek(benchmark::State& state) {
  storage::Relation rel = MakeGraph(state.range(0));
  storage::Trie trie = storage::Trie::Build(rel);
  Rng rng(3);
  const storage::Trie::Range root = trie.RootRange();
  for (auto _ : state) {
    Value v = Value(rng.Next32() % (root.hi + 1));
    benchmark::DoNotOptimize(trie.SeekInRange(0, root, v));
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_TrieSeek)->Arg(1 << 12)->Arg(1 << 17);

void BM_LeapfrogTriangle(benchmark::State& state) {
  storage::Catalog db = GraphCatalog(state.range(0));
  auto q = query::MakeBenchmarkQuery(1);
  query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, 3);
  std::vector<wcoj::PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(*wcoj::PrepareRelation(**db.Get(atom.relation),
                                              atom.schema.attrs(), rank));
  }
  std::vector<wcoj::JoinInput> inputs;
  for (const auto& p : prepared) inputs.push_back({&p.trie, p.attrs});
  uint64_t out = 0;
  for (auto _ : state) {
    wcoj::JoinStats stats;
    auto count = wcoj::LeapfrogJoin(inputs, order, nullptr, &stats);
    out = count.ok() ? *count : 0;
    benchmark::DoNotOptimize(out);
    state.counters["extensions_per_s"] = benchmark::Counter(
        double(stats.extensions), benchmark::Counter::kIsRate);
  }
  state.counters["triangles"] = double(out);
}
BENCHMARK(BM_LeapfrogTriangle)->Arg(1 << 13)->Arg(1 << 15);

void BM_LeapfrogTriangleWithCache(benchmark::State& state) {
  storage::Catalog db = GraphCatalog(state.range(0));
  auto q = query::MakeBenchmarkQuery(1);
  query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, 3);
  std::vector<wcoj::PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(*wcoj::PrepareRelation(**db.Get(atom.relation),
                                              atom.schema.attrs(), rank));
  }
  std::vector<wcoj::JoinInput> inputs;
  for (const auto& p : prepared) inputs.push_back({&p.trie, p.attrs});
  for (auto _ : state) {
    wcoj::IntersectionCache cache(1 << 22);
    auto count =
        wcoj::LeapfrogJoin(inputs, order, nullptr, nullptr, {}, {}, &cache);
    benchmark::DoNotOptimize(count.ok() ? *count : 0);
  }
}
BENCHMARK(BM_LeapfrogTriangleWithCache)->Arg(1 << 13)->Arg(1 << 15);

void BM_HCubeShuffle(benchmark::State& state) {
  storage::Catalog db = GraphCatalog(1 << 15);
  auto q = query::MakeBenchmarkQuery(1);
  query::AttributeOrder order = {0, 1, 2};
  const std::vector<int> rank = query::RankOf(order, 3);
  std::vector<wcoj::PreparedRelation> prepared;
  for (const query::Atom& atom : q->atoms()) {
    prepared.push_back(*wcoj::PrepareRelation(**db.Get(atom.relation),
                                              atom.schema.attrs(), rank));
  }
  std::vector<dist::HCubeInput> inputs;
  for (const auto& p : prepared) inputs.push_back({&p.rel, p.attrs});
  const auto variant = static_cast<dist::HCubeVariant>(state.range(0));
  dist::ShareVector share{{2, 2, 1}};
  for (auto _ : state) {
    dist::ClusterConfig cfg;
    cfg.num_servers = 4;
    dist::Cluster cluster(cfg);
    auto result = dist::HCubeShuffle(inputs, share, variant, &cluster);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_HCubeShuffle)
    ->Arg(int(dist::HCubeVariant::kPush))
    ->Arg(int(dist::HCubeVariant::kPull))
    ->Arg(int(dist::HCubeVariant::kMerge));

}  // namespace
}  // namespace adj

BENCHMARK_MAIN();
