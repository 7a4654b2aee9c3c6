#include <algorithm>
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/rng.h"
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

}  // namespace
}  // namespace adj::dist
