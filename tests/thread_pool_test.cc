#include <algorithm>
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <thread>

#include "api/database.h"
#include "api/prepared_query.h"
#include "api/session.h"
#include "common/rng.h"
#include "core/engine.h"
#include "dataset/generators.h"
#include "dist/thread_pool.h"
#include "exec/hcubej.h"
#include "query/queries.h"
#include "wcoj/naive_join.h"

namespace adj::dist {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.push_back([&hits, i] { hits[size_t(i)]++; });
  }
  ThreadPool pool(4);
  pool.RunAll(tasks);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) tasks.push_back([&total] { total++; });
    pool.RunAll(tasks);
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, EmptyBatchIsNoop) {
  ThreadPool pool(2);
  pool.RunAll({});
  SUCCEED();
}

TEST(ThreadPoolTest, StreamingSubmitRunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool pool(4);
  for (int i = 0; i < 64; ++i) {
    pool.Submit([&hits, i] { hits[size_t(i)]++; });
  }
  pool.WaitIdle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The pool stays usable: more submissions after an idle period.
  std::atomic<int> more{0};
  pool.Submit([&more] { more++; });
  pool.WaitIdle();
  EXPECT_EQ(more.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsPendingSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // Many quick submissions; some are still queued when the pool is
    // destroyed — the drain contract says all of them still run.
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { ran++; });
    }
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, StreamingAndBatchModesInterleave) {
  ThreadPool pool(3);
  std::atomic<int> streamed{0};
  for (int i = 0; i < 16; ++i) pool.Submit([&streamed] { streamed++; });
  std::vector<std::function<void()>> tasks;
  std::atomic<int> batched{0};
  for (int i = 0; i < 16; ++i) tasks.push_back([&batched] { batched++; });
  pool.RunAll(tasks);  // a batch while submitted tasks drain
  pool.WaitIdle();
  EXPECT_EQ(streamed.load(), 16);
  EXPECT_EQ(batched.load(), 16);
}

TEST(RunTasksTest, SequentialWhenOneThread) {
  // With threads=1 tasks must run in submission order.
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  RunTasks(1, tasks);
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(RunTasksTest, ParallelSumsMatch) {
  std::vector<uint64_t> slots(32, 0);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < slots.size(); ++i) {
    tasks.push_back([&slots, i] {
      uint64_t acc = 0;
      for (uint64_t j = 0; j <= i * 1000; ++j) acc += j;
      slots[i] = acc;
    });
  }
  RunTasks(4, tasks);
  for (size_t i = 0; i < slots.size(); ++i) {
    const uint64_t n = i * 1000;
    EXPECT_EQ(slots[i], n * (n + 1) / 2);
  }
}

TEST(ThreadedHCubeJTest, SameCountsAsSequential) {
  Rng rng(77);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(40, 250, rng))).ok());
  for (int qi : {1, 2, 5}) {
    auto q = query::MakeBenchmarkQuery(qi);
    query::AttributeOrder order;
    for (int a = 0; a < q->num_attrs(); ++a) order.push_back(a);

    ClusterConfig cfg;
    cfg.num_servers = 4;
    Cluster c_seq(cfg), c_par(cfg);
    exec::HCubeJParams seq_params;
    seq_params.worker_threads = 1;
    exec::HCubeJParams par_params;
    par_params.worker_threads = 4;
    auto seq = exec::RunHCubeJ(*q, db, order, seq_params, &c_seq);
    auto par = exec::RunHCubeJ(*q, db, order, par_params, &c_par);
    ASSERT_TRUE(seq.ok() && par.ok()) << "Q" << qi;
    ASSERT_TRUE(seq->report.ok() && par->report.ok()) << "Q" << qi;
    EXPECT_EQ(par->report.output_count, seq->report.output_count)
        << "Q" << qi;
    EXPECT_EQ(par->report.extensions, seq->report.extensions) << "Q" << qi;
  }
}

TEST(ThreadedHCubeJTest, CollectedOutputOrderIndependent) {
  Rng rng(79);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(30, 180, rng))).ok());
  auto q = query::MakeBenchmarkQuery(1);
  query::AttributeOrder order = {0, 1, 2};
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster c_seq(cfg), c_par(cfg);
  exec::HCubeJParams seq_params;
  seq_params.worker_threads = 1;
  seq_params.collect_output = true;
  exec::HCubeJParams par_params;
  par_params.collect_output = true;
  par_params.worker_threads = 4;
  auto seq = exec::RunHCubeJ(*q, db, order, seq_params, &c_seq);
  auto par = exec::RunHCubeJ(*q, db, order, par_params, &c_par);
  ASSERT_TRUE(seq.ok() && par.ok());
  storage::Relation a = std::move(seq->results);
  storage::Relation b = std::move(par->results);
  a.SortAndDedup();
  b.SortAndDedup();
  EXPECT_TRUE(std::ranges::equal(a.raw(), b.raw()));
}

TEST(FanOutThreadsTest, CoresOffPoolAndOneOnPool) {
  const int cores = int(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(FanOutThreads(), cores);
  EXPECT_EQ(FanOutThreads(1), 1);
  EXPECT_EQ(FanOutThreads(0), 1);
  EXPECT_EQ(FanOutThreads(2), std::min(2, cores));
  // RunTasks' threads are pool workers; its inline mode is not.
  std::vector<int> seen(2, 0);
  RunTasks(2, {[&] { seen[0] = FanOutThreads(4); },
               [&] { seen[1] = FanOutThreads(4); }});
  EXPECT_EQ(seen, std::vector<int>(2, 1));
  RunTasks(1, {[&] { seen[0] = FanOutThreads(4); }});
  EXPECT_EQ(seen[0], std::min(4, cores));
}

// The per-server joins of RunHCubeJ (and the final round of ADJ, bag
// pre-computation and the HCubeJ baselines built on it) against the
// NaiveJoin oracle and against the serial run, across storage forms.

query::AttributeOrder Ascending(const query::Query& q) {
  query::AttributeOrder order;
  for (int a = 0; a < q.num_attrs(); ++a) order.push_back(a);
  return order;
}

/// Runs `fn` on a pool worker, where the fan-out rule picks 1 thread.
void OnPoolWorker(const std::function<void()>& fn) {
  RunTasks(2, {fn, [] {}});
}

exec::HCubeJOutput RunAtThreads(const query::Query& q,
                                const storage::Catalog& db, int threads,
                                bool collect = false) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  exec::HCubeJParams params;
  params.worker_threads = threads;
  params.collect_output = collect;
  StatusOr<exec::HCubeJOutput> run =
      exec::RunHCubeJ(q, db, Ascending(q), params, &cluster);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return {};
  EXPECT_TRUE(run->report.ok()) << run->report.status;
  return std::move(run.value());
}

/// The threaded run joins what the serial run joins: the same count
/// (the oracle's), per-level bindings and extensions.
void ExpectSameJoin(const exec::RunReport& serial,
                    const exec::RunReport& threaded, uint64_t oracle) {
  EXPECT_EQ(serial.output_count, oracle);
  EXPECT_EQ(threaded.output_count, oracle);
  EXPECT_EQ(threaded.tuples_at_level, serial.tuples_at_level);
  EXPECT_EQ(threaded.extensions, serial.extensions);
}

uint64_t OracleCount(const query::Query& q, const storage::Catalog& db) {
  StatusOr<storage::Relation> oracle = wcoj::NaiveJoin(q, db);
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  return oracle.ok() ? oracle->size() : 0;
}

storage::Relation Sorted(storage::Relation rel) {
  rel.SortAndDedup();
  return rel;
}

TEST(ThreadedHCubeJTest, CompressedGraphMatchesOracleAndSerial) {
  // Above the 1024-value level threshold the index cache stores the
  // bound indexes block-compressed.
  Rng rng(81);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(1500, 9000, rng))).ok());
  const query::Query q = *query::MakeBenchmarkQuery(1);
  const uint64_t oracle = OracleCount(q, db);
  ASSERT_GT(oracle, 0u);
  exec::HCubeJOutput serial = RunAtThreads(q, db, 1, /*collect=*/true);
  exec::HCubeJOutput threaded = RunAtThreads(q, db, 4, /*collect=*/true);
  ExpectSameJoin(serial.report, threaded.report, oracle);
  EXPECT_GT(threaded.report.compressed_bytes, 0u);
  EXPECT_TRUE(std::ranges::equal(Sorted(serial.results).raw(),
                                 Sorted(threaded.results).raw()));

  // Shard tries are built raw, so force-compress every server's tries
  // and run the per-server joins the way RunHCubeJ does: Leapfrogs
  // bound on this thread, one server per worker, merged in order.
  ClusterConfig cfg;
  cfg.num_servers = 4;
  Cluster cluster(cfg);
  exec::HCubeJParams params;
  params.worker_threads = 1;
  const query::AttributeOrder order = Ascending(q);
  ASSERT_TRUE(exec::RunHCubeJ(q, db, order, params, &cluster).ok());
  std::vector<std::vector<storage::Trie>> tries(4);
  std::vector<std::vector<wcoj::JoinInput>> inputs(4);
  std::vector<wcoj::Leapfrog> leapfrogs(4);
  for (int s = 0; s < 4; ++s) {
    const LocalShard& shard = cluster.shard(s);
    tries[size_t(s)].reserve(shard.tries.size());
    for (size_t a = 0; a < shard.tries.size(); ++a) {
      ASSERT_FALSE(shard.tries[a]->empty());
      tries[size_t(s)].push_back(storage::Trie::Compress(
          *shard.tries[a], storage::Trie::CompressOptions{.force = true}));
      ASSERT_TRUE(tries[size_t(s)].back().any_compressed());
      inputs[size_t(s)].push_back({&tries[size_t(s)].back(), shard.attrs[a]});
    }
    StatusOr<wcoj::Leapfrog> bound =
        wcoj::Leapfrog::Bind(inputs[size_t(s)], order);
    ASSERT_TRUE(bound.ok()) << bound.status();
    leapfrogs[size_t(s)] = std::move(*bound);
  }
  std::vector<uint64_t> counts(4, 0);
  std::vector<wcoj::JoinStats> stats(4);
  std::vector<std::function<void()>> tasks;
  for (size_t s = 0; s < 4; ++s) {
    tasks.push_back([&, s] {
      StatusOr<uint64_t> count = leapfrogs[s].Run(nullptr, &stats[s]);
      counts[s] = count.ok() ? *count : ~uint64_t{0};
    });
  }
  RunTasks(4, tasks);
  wcoj::JoinStats merged;
  for (const wcoj::JoinStats& st : stats) merged.Merge(st);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
            oracle);
  EXPECT_EQ(merged.tuples_at_level, serial.report.tuples_at_level);
  EXPECT_EQ(merged.extensions, serial.report.extensions);
  EXPECT_GT(merged.blocks_decoded, 0u);
}

TEST(ThreadedHCubeJTest, MmapLoadedIndexesMatchOracleAndSerial) {
  const std::string path = ::testing::TempDir() + "/threaded.adjsnap";
  const query::Query q = *query::MakeBenchmarkQuery(2);
  {
    Rng rng(83);
    api::Database db;
    db.AddRelation("G", dataset::ErdosRenyi(60, 500, rng));
    // Warm the indexes the ascending order binds, so Save writes them.
    RunAtThreads(q, db.catalog(), 1);
    ASSERT_TRUE(db.Save(path).ok());
  }
  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  const uint64_t oracle = OracleCount(q, restarted.catalog());
  ASSERT_GT(oracle, 0u);
  exec::HCubeJOutput serial = RunAtThreads(q, restarted.catalog(), 1);
  exec::HCubeJOutput threaded = RunAtThreads(q, restarted.catalog(), 4);
  EXPECT_GT(serial.report.index_mmap, 0u);
  EXPECT_GT(threaded.report.index_mmap, 0u);
  ExpectSameJoin(serial.report, threaded.report, oracle);
  std::remove(path.c_str());
}

TEST(ThreadedHCubeJTest, PreparedAdjAndHCubeJMatchOracleAndSerial) {
  Rng rng(85);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(50, 400, rng));
  const char* text = "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) G(b,d)";
  const uint64_t oracle = OracleCount(*query::Query::Parse(text),
                                      db.catalog());
  ASSERT_GT(oracle, 0u);
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 4;
  session.options().num_samples = 64;

  // ADJ through PreparedQuery::Run: off the pool the servers fan out
  // over the cores; on a pool worker they run one after another.
  StatusOr<api::PreparedQuery> prepared = session.Prepare(text);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  api::Result threaded = prepared->Run();
  api::Result serial;
  OnPoolWorker([&] { serial = prepared->Run(); });
  ASSERT_TRUE(threaded.ok() && serial.ok());
  ExpectSameJoin(serial.report(), threaded.report(), oracle);

  // The HCubeJ baseline, through the session and at forced counts.
  api::Result hcube_threaded = session.Run(text, "HCubeJ");
  api::Result hcube_serial;
  OnPoolWorker([&] { hcube_serial = session.Run(text, "HCubeJ"); });
  ASSERT_TRUE(hcube_threaded.ok() && hcube_serial.ok());
  ExpectSameJoin(hcube_serial.report(), hcube_threaded.report(), oracle);
  const query::Query q = *query::Query::Parse(text);
  ExpectSameJoin(RunAtThreads(q, db.catalog(), 1).report,
                 RunAtThreads(q, db.catalog(), 4).report, oracle);
}

TEST(ThreadedHCubeJTest, PrecomputedBagMatchesSerial) {
  Rng rng(87);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(storage::WriteBatch().Create(
      "G", dataset::ErdosRenyi(40, 260, rng))).ok());
  // Two triangles sharing c: each triangle bag outputs far fewer
  // tuples than the wedges a raw join of it extends through.
  const query::Query q = *query::Query::Parse(
      "G(a,b) G(b,c) G(a,c) G(c,d) G(d,e) G(c,e)");
  const uint64_t oracle = OracleCount(q, db);
  ASSERT_GT(oracle, 0u);
  core::EngineOptions options;
  options.cluster.num_servers = 4;
  options.num_samples = 64;
  // Raw extension is priced at one per second and pre-computed bags
  // as free: the plan materializes a bag through MaterializeBag.
  options.beta_precomputed_override = 1e12;
  options.beta_raw_override = 1.0;
  core::Engine engine(&db);
  StatusOr<core::PlanResult> planned = engine.Plan(q, options);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_TRUE(std::ranges::any_of(planned->plan.precompute,
                                  [](bool b) { return b; }))
      << planned->explanation;

  StatusOr<core::ExecutionContext> threaded =
      engine.PrepareExecution(q, planned->plan, options);
  StatusOr<core::ExecutionContext> serial = Status::Internal("not run");
  OnPoolWorker([&] {
    serial = engine.PrepareExecution(q, planned->plan, options);
  });
  ASSERT_TRUE(threaded.ok()) << threaded.status();
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_TRUE(threaded->precompute_status.ok());
  ASSERT_TRUE(serial->precompute_status.ok());
  int bags = 0;
  for (const std::string& name : threaded->db.Names()) {
    if (name.rfind("__bag", 0) != 0) continue;
    ++bags;
    StatusOr<const storage::Relation*> a = serial->db.Get(name);
    StatusOr<const storage::Relation*> b = threaded->db.Get(name);
    ASSERT_TRUE(a.ok() && b.ok()) << name;
    EXPECT_TRUE(std::ranges::equal((*a)->raw(), (*b)->raw())) << name;
  }
  EXPECT_GT(bags, 0);

  StatusOr<exec::RunReport> threaded_run =
      engine.RunPrepared(*threaded, options);
  StatusOr<exec::RunReport> serial_run = Status::Internal("not run");
  OnPoolWorker([&] { serial_run = engine.RunPrepared(*serial, options); });
  ASSERT_TRUE(threaded_run.ok() && serial_run.ok());
  ExpectSameJoin(*serial_run, *threaded_run, oracle);
}

}  // namespace
}  // namespace adj::dist
