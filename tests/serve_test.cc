#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "query/query.h"
#include "serve/serve.h"
#include "wcoj/naive_join.h"

namespace adj::serve {
namespace {

constexpr char kTriangle[] = "G(a,b) G(b,c) G(a,c)";
constexpr char kPath[] = "G(a,b) G(b,c)";
constexpr char kSquare[] = "G(a,b) G(b,c) G(c,d) G(d,a)";

api::Database SmallDatabase(uint64_t seed, uint64_t nodes = 30,
                            uint64_t edges = 150) {
  Rng rng(seed);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(nodes, edges, rng));
  return db;
}

ServerOptions FastOptions() {
  ServerOptions options;
  options.worker_threads = 2;
  options.queue_capacity = 16;
  options.cache_capacity = 8;
  options.engine.cluster.num_servers = 4;
  options.engine.num_samples = 64;
  return options;
}

uint64_t OracleCount(const api::Database& db, const std::string& text) {
  auto q = query::Query::Parse(text);
  EXPECT_TRUE(q.ok());
  auto joined = wcoj::NaiveJoin(*q, db.catalog());
  EXPECT_TRUE(joined.ok());
  return joined->size();
}

// AdmissionQueue policy coverage lives in admission_queue_test.cc.

// ---------------------------------------------------------------------------
// PreparedQueryCache: LRU + per-relation-version invalidation policy.
// Policy-only tests use empty PreparedQuery handles (no dependencies,
// so always fresh) against a scratch catalog; the invalidation tests
// use real prepared queries, whose dependency versions a WriteBatch
// moves.
// ---------------------------------------------------------------------------

TEST(PreparedQueryCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  storage::Catalog catalog;
  PreparedQueryCache cache(2);
  cache.Insert("q1", api::PreparedQuery());
  cache.Insert("q2", api::PreparedQuery());
  EXPECT_TRUE(cache.Lookup("q1", catalog).has_value());  // refreshes q1
  cache.Insert("q3", api::PreparedQuery());  // evicts q2 (LRU)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup("q2", catalog).has_value());
  EXPECT_TRUE(cache.Lookup("q1", catalog).has_value());
  EXPECT_TRUE(cache.Lookup("q3", catalog).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PreparedQueryCacheTest, DependencyVersionMismatchHandsEntryBack) {
  api::Database db = SmallDatabase(20);
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kPath);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  PreparedQueryCache cache(4);
  cache.Insert("q", std::move(prepared.value()));
  EXPECT_TRUE(cache.Lookup("q", db.catalog()).has_value());

  // A write moves G's version: the entry must not be served — but it
  // is handed back for delta-cost re-preparation, not discarded.
  storage::WriteBatch batch;
  batch.Insert("G", {Value(100), Value(200)});
  ASSERT_TRUE(db.Apply(batch).ok());
  std::optional<api::PreparedQuery> stale;
  EXPECT_FALSE(cache.Lookup("q", db.catalog(), &stale).has_value());
  EXPECT_TRUE(stale.has_value());
  EXPECT_EQ(cache.size(), 0u);
  PreparedQueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PreparedQueryCacheTest, ZeroCapacityDisablesCaching) {
  storage::Catalog catalog;
  PreparedQueryCache cache(0);
  cache.Insert("q", api::PreparedQuery());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("q", catalog).has_value());
}

TEST(PreparedQueryCacheTest, InsertRaceFirstWinsAtSameVersions) {
  api::Database db = SmallDatabase(24);
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  StatusOr<api::PreparedQuery> before = session.Prepare(kPath);
  ASSERT_TRUE(before.ok()) << before.status();

  PreparedQueryCache cache(4);
  cache.Insert("q", *before);
  cache.Insert("q", *before);  // racing worker's copy: same versions
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // A post-write prepared query carries newer dependency versions and
  // replaces the stale entry instead.
  storage::WriteBatch batch;
  batch.Insert("G", {Value(300), Value(400)});
  ASSERT_TRUE(db.Apply(batch).ok());
  StatusOr<api::PreparedQuery> after = session.Reprepare(*before);
  ASSERT_TRUE(after.ok()) << after.status();
  cache.Insert("q", std::move(after.value()));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Lookup("q", db.catalog()).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(PreparedQueryCacheTest, MemoryBudgetEvictsByBytesNotEntries) {
  api::Database db = SmallDatabase(21);
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  StatusOr<api::PreparedQuery> p1 = session.Prepare(kPath);
  ASSERT_TRUE(p1.ok()) << p1.status();
  StatusOr<api::PreparedQuery> p2 = session.Prepare(kTriangle);
  ASSERT_TRUE(p2.ok()) << p2.status();
  const uint64_t b1 = p1->resident_bytes();
  const uint64_t b2 = p2->resident_bytes();
  ASSERT_GT(b1, 0u);
  ASSERT_GT(b2, 0u);

  // The entry cap would admit both; the byte budget holds only one —
  // the second insert evicts the first from the LRU tail.
  PreparedQueryCache cache(8, b1 + b2 - 1);
  cache.Insert(kPath, std::move(p1.value()));
  EXPECT_EQ(cache.resident_bytes(), b1);
  cache.Insert(kTriangle, std::move(p2.value()));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.resident_bytes(), b2);
  EXPECT_FALSE(cache.Lookup(kPath, db.catalog()).has_value());
  EXPECT_TRUE(cache.Lookup(kTriangle, db.catalog()).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServerTest, IndexCacheBudgetIsAppliedToTheCatalog) {
  api::Database db = SmallDatabase(23);
  ServerOptions options = FastOptions();
  options.index_cache_budget_bytes = 1 << 20;
  Server server(std::move(db), options);
  EXPECT_EQ(server.database().catalog().index_cache().budget_bytes(),
            uint64_t(1) << 20);
  // Serving stays correct under the budget (artifacts in active use
  // are never evicted; evicted idle ones are rebuilt on demand).
  api::Result result = server.Execute(kPath);
  EXPECT_TRUE(result.ok()) << result.status();
}

TEST(PreparedQueryCacheTest, OversizeEntryIsNeverCached) {
  api::Database db = SmallDatabase(22);
  api::Session session = db.OpenSession();
  session.options().num_samples = 64;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kPath);
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  PreparedQueryCache cache(8, 1);  // 1-byte budget: nothing fits
  cache.Insert(kPath, std::move(prepared.value()));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(cache.stats().oversize_rejects, 1u);
}

// ---------------------------------------------------------------------------
// Server end-to-end.
// ---------------------------------------------------------------------------

TEST(ServerTest, SecondRequestForSameTextIsFreeOfPlanningCost) {
  api::Database db = SmallDatabase(1);
  const uint64_t oracle = OracleCount(db, kTriangle);
  Server server(std::move(db), FastOptions());

  api::Result first = server.Execute(kTriangle);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first.count(), oracle);
  // The first request pays the one-time planning + pre-computation.
  EXPECT_GT(first.optimize_seconds(), 0.0);

  // Lexical variant: normalization maps it onto the same cache key.
  api::Result second = server.Execute("G(a,b)   G(b,c)  G(a,c)");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.count(), oracle);
  // Cache hit: no plan search, no sampling, no bag re-materialization.
  EXPECT_EQ(second.optimize_seconds(), 0.0);
  EXPECT_EQ(second.precompute_seconds(), 0.0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.served, 2u);
}

TEST(ServerTest, CatalogReloadInvalidatesCachedPlan) {
  api::Database db = SmallDatabase(2);
  Server server(std::move(db), FastOptions());

  api::Result before = server.Execute(kTriangle);
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_EQ(server.stats().cache.misses, 1u);

  // Replace "G" behind the server's back (quiesced): G's version moves,
  // so the cached plan must not be served — the old ExecutionContext
  // aliases the replaced relation and would return stale counts. The
  // stale entry is refreshed (plan reused, context rebuilt against the
  // new relation), not re-planned from scratch.
  server.Drain();
  Rng rng(99);
  server.database().AddRelation("G", dataset::ErdosRenyi(40, 300, rng));
  const uint64_t fresh_oracle = OracleCount(server.database(), kTriangle);

  api::Result after = server.Execute(kTriangle);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after.count(), fresh_oracle);
  // Refreshed via Reprepare: no plan search, no sampling.
  EXPECT_EQ(after.optimize_seconds(), 0.0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache.invalidations, 1u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.reprepared, 1u);
}

TEST(ServerTest, WriteInvalidatesOnlyPlansReadingTheWrittenRelation) {
  // Two relations, one cached plan over each. A live write to H must
  // leave G's cache entry untouched (still a pure hit) and refresh H's
  // at delta cost: no index rebuilds, only delta patches.
  Rng rng(31);
  api::Database db;
  db.AddRelation("G", dataset::ErdosRenyi(30, 150, rng));
  db.AddRelation("H", dataset::ErdosRenyi(30, 150, rng));
  ServerOptions options = FastOptions();
  // Single simulated server: shard fragments alias the bound indexes,
  // so the index_builds counter isolates real artifact construction.
  options.engine.cluster.num_servers = 1;
  Server server(std::move(db), options);

  const char* kG = "G(a,b) G(b,c)";
  const char* kH = "H(a,b) H(b,c)";
  ASSERT_TRUE(server.Execute(kG).ok());
  ASSERT_TRUE(server.Execute(kH).ok());

  // Live write — no Pause, no Drain.
  storage::WriteBatch batch;
  batch.Insert("H", {Value(100), Value(101)});
  batch.Insert("H", {Value(101), Value(102)});
  ASSERT_TRUE(server.Apply(batch).ok());

  // G's plan survives the write to H: cache hit, zero index work.
  api::Result g = server.Execute(kG);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g.optimize_seconds(), 0.0);
  EXPECT_EQ(g.index_builds(), 0u);
  EXPECT_EQ(g.index_patched(), 0u);

  // H's plan is refreshed at delta cost: the rerun rebuilds nothing —
  // its indexes are delta-patched from the pre-write artifacts. (The
  // oracle runs after the served request: it binds H through the same
  // shared index cache, and whichever consumer binds first performs —
  // and is charged — the one-time delta merge.)
  api::Result h = server.Execute(kH);
  ASSERT_TRUE(h.ok()) << h.status();
  EXPECT_EQ(h.count(), OracleCount(server.database(), kH));
  EXPECT_EQ(h.optimize_seconds(), 0.0);
  EXPECT_EQ(h.index_builds(), 0u);
  EXPECT_GT(h.index_patched(), 0u);
  EXPECT_GT(h.delta_rows_merged(), 0u);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.writes_applied, 1u);
  EXPECT_EQ(stats.reprepared, 1u);
  EXPECT_EQ(stats.cache.invalidations, 1u);  // H only — G survived
  EXPECT_EQ(stats.cache.hits, 1u);           // the post-write G request
}

TEST(ServerTest, DeadlineExceededIsADistinctError) {
  api::Database db = SmallDatabase(3);
  Server server(std::move(db), FastOptions());

  // Park the workers so the deadline expires while the request is
  // still queued — deterministic, no timing-sensitive join needed.
  server.Pause();
  StatusOr<std::future<api::Result>> future =
      server.Submit(kPath, {.deadline_seconds = 1e-3});
  ASSERT_TRUE(future.ok()) << future.status();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();

  api::Result late = future->get();
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().expired_in_queue, 1u);

  // A deadline too tight to meet surfaces the same code whether it
  // expires while still queued or mid-join (via JoinLimits).
  api::Result mid = server.Execute(kSquare, {.deadline_seconds = 1e-9});
  EXPECT_FALSE(mid.ok());
  EXPECT_EQ(mid.status().code(), StatusCode::kDeadlineExceeded);

  // ...and both are distinct from backpressure (ResourceExhausted) and
  // parse errors (InvalidArgument).
  EXPECT_NE(late.status().code(), StatusCode::kResourceExhausted);
}

TEST(ServerTest, HugeFiniteDeadlineMeansNoDeadline) {
  // 1e10 s (~317 years) must not overflow the steady_clock cast into
  // an instantly-expired deadline — it counts as "no deadline".
  Server server(SmallDatabase(9), FastOptions());
  api::Result r = server.Execute(kPath, {.deadline_seconds = 1e10});
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(server.stats().expired_in_queue, 0u);
}

TEST(ServerTest, QueueFullBackpressureRejectsWithResourceExhausted) {
  ServerOptions options = FastOptions();
  options.worker_threads = 1;
  options.queue_capacity = 3;
  Server server(SmallDatabase(4), options);

  server.Pause();
  std::vector<std::future<api::Result>> admitted;
  for (size_t i = 0; i < options.queue_capacity; ++i) {
    StatusOr<std::future<api::Result>> f = server.Submit(kPath);
    ASSERT_TRUE(f.ok()) << f.status();
    admitted.push_back(std::move(f.value()));
  }
  // Queue full: backpressure, not an exception and not a silent drop.
  StatusOr<std::future<api::Result>> rejected = server.Submit(kPath);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // A batch that doesn't fit is rejected whole (all-or-nothing)...
  server.Resume();
  server.Drain();
  server.Pause();
  ASSERT_TRUE(server.Submit(kPath).ok());
  StatusOr<std::vector<std::future<api::Result>>> batch =
      server.SubmitBatch({kPath, kPath, kPath});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  // ...while one that fits is admitted.
  StatusOr<std::vector<std::future<api::Result>>> fits =
      server.SubmitBatch({kPath, kPath});
  EXPECT_TRUE(fits.ok()) << fits.status();
  server.Resume();
  server.Drain();

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1u + 3u);
  // Every admitted request completed.
  EXPECT_EQ(stats.served + stats.failed, stats.accepted);
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());
}

TEST(ServerTest, ParseErrorsAreRejectedWithoutAQueueSlot) {
  Server server(SmallDatabase(5), FastOptions());
  StatusOr<std::future<api::Result>> bad = server.Submit("G(a,b");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  StatusOr<std::vector<std::future<api::Result>>> batch =
      server.SubmitBatch({kPath, "G(a,b"});
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.rejected, 0u);  // parse errors are not backpressure
}

TEST(ServerTest, ProjectingQueriesFallBackToDirectExecution) {
  api::Database db = SmallDatabase(6, 40, 250);
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 4;
  session.options().num_samples = 64;
  const char* kProjecting = "G(a,b) G(b,c) | | a";
  api::Result serial = session.Run(kProjecting);
  ASSERT_TRUE(serial.ok()) << serial.status();

  Server server(std::move(db), FastOptions());
  api::Result served = server.Execute(kProjecting);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served.count(), serial.count());
  // No prepared plan exists for projections — the cache is untouched.
  EXPECT_EQ(server.stats().cache.misses, 0u);
  EXPECT_EQ(server.stats().cache.hits, 0u);
}

TEST(ServerTest, ConcurrentClientsMatchSerialSessionResults) {
  api::Database db = SmallDatabase(7, 40, 250);
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 4;
  session.options().num_samples = 64;

  const std::vector<std::string> queries = {kTriangle, kPath, kSquare,
                                            "G(a,b) G(b,c) | a=1"};
  std::vector<uint64_t> serial_counts;
  for (const std::string& q : queries) {
    api::Result r = session.Run(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status();
    serial_counts.push_back(r.count());
  }

  ServerOptions options = FastOptions();
  options.worker_threads = 4;
  Server server(std::move(db), options);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 4;
  std::vector<std::thread> clients;
  std::vector<Status> failures(kClients, Status::OK());
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t qi = size_t(c + i) % queries.size();
        api::Result r = server.Execute(queries[qi]);
        if (!r.ok()) {
          failures[c] = r.status();
          return;
        }
        // Bitwise-identical to the serial Session::Run answer.
        if (r.count() != serial_counts[qi]) {
          failures[c] = Status::Internal(
              queries[qi] + ": served " + std::to_string(r.count()) +
              " != serial " + std::to_string(serial_counts[qi]));
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Status& s : failures) EXPECT_TRUE(s.ok()) << s;

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.served, uint64_t(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.failed, 0u);
  // Each distinct query was prepared at most a handful of times
  // (concurrent first-misses may race), then served from cache.
  EXPECT_GT(stats.cache.hits, 0u);
}

// ---------------------------------------------------------------------------
// QoS: single-flight planning, deadline-bounded planning, weighted
// lanes (the serve-layer half; queue policy is admission_queue_test).
// ---------------------------------------------------------------------------

TEST(ServerTest, SixteenConcurrentColdMissesBuildExactlyOnePlan) {
  api::Database db = SmallDatabase(44, 40, 250);
  const uint64_t oracle = OracleCount(db, kTriangle);
  ServerOptions options = FastOptions();
  options.worker_threads = 4;
  options.queue_capacity = 32;
  Server server(std::move(db), options);

  constexpr int kThreads = 16;
  std::vector<std::thread> clients;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<uint64_t> counts(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      api::Result r = server.Execute(kTriangle);
      if (!r.ok()) {
        failures[size_t(t)] = r.status();
      } else {
        counts[size_t(t)] = r.count();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (const Status& s : failures) ASSERT_TRUE(s.ok()) << s;
  for (uint64_t c : counts) EXPECT_EQ(c, oracle);

  // Single-flight: 16 concurrent cold misses for one canonical key
  // share one Prepare — every other request either joined the build
  // in flight or hit the cache the build filled.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.plan_builds, 1u);
  EXPECT_EQ(stats.served, uint64_t(kThreads));
  EXPECT_GE(stats.plan_waits + stats.cache.hits, uint64_t(kThreads - 1));
}

TEST(ServerTest, DeadlineExpiredWhilePlanningIsDistinctAndAttributed) {
  ServerOptions options = FastOptions();
  // A sampling budget that would take seconds on this machine: the
  // 50ms deadline must expire inside Engine::Plan, not in the queue
  // and not mid-join.
  options.engine.num_samples = 1 << 22;
  Server server(SmallDatabase(43), options);

  api::Result r = server.Execute(kTriangle, {.deadline_seconds = 0.05});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // Distinct from backpressure (ResourceExhausted) and from a queue
  // expiry, and it names the phase that died.
  EXPECT_NE(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("planning"), std::string::npos)
      << r.status();
  // The burned planning time is attributed on the failed Result.
  EXPECT_GT(r.optimize_seconds(), 0.0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired_in_queue, 0u);
  EXPECT_GE(stats.expired_planning, 1u);
  EXPECT_EQ(stats.plan_builds, 1u);
  EXPECT_EQ(stats.served, 0u);
}

TEST(ServerTest, FailedPlanBuildReleasesWaitersToRetry) {
  ServerOptions options = FastOptions();
  options.worker_threads = 4;
  Server server(SmallDatabase(45), options);

  // Parseable, plannable-looking, but the relation does not exist:
  // every Prepare fails. Failures must not be cached, must not wedge
  // the single-flight registry, and must release every waiter.
  const char* kUnknown = "Q(a,b) Q(b,c)";
  constexpr int kThreads = 8;
  std::vector<std::thread> clients;
  std::vector<Status> statuses(kThreads, Status::OK());
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back(
        [&, t] { statuses[size_t(t)] = server.Execute(kUnknown).status(); });
  }
  for (std::thread& t : clients) t.join();
  for (const Status& s : statuses) {
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kNotFound) << s;
  }

  ServerStats stats = server.stats();
  EXPECT_GE(stats.plan_builds, 1u);
  EXPECT_EQ(stats.served, 0u);
  EXPECT_EQ(stats.failed, uint64_t(kThreads));
  // The registry is clean: the server still plans and serves.
  api::Result ok = server.Execute(kPath);
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(ServerTest, ConcurrentApplyAndHotReadsMatchSerialOracle) {
  constexpr int kWrites = 8;
  // Identical twin databases: one served live, one advanced serially
  // as the oracle. Every count a reader observes under concurrent
  // writes must equal the oracle count of some write-prefix state —
  // the reader/writer lock guarantees no torn in-between states.
  api::Database served = SmallDatabase(41);
  api::Database replica = SmallDatabase(41);
  std::vector<uint64_t> oracle_counts = {OracleCount(replica, kPath)};
  std::vector<storage::WriteBatch> writes;
  for (int i = 0; i < kWrites; ++i) {
    storage::WriteBatch batch;
    const Value base = Value(1'000'000 + 10 * i);
    batch.Insert("G", {base, base + 1});
    batch.Insert("G", {base + 1, base + 2});
    ASSERT_TRUE(replica.Apply(batch).ok());
    oracle_counts.push_back(OracleCount(replica, kPath));
    writes.push_back(std::move(batch));
  }

  ServerOptions options = FastOptions();
  options.worker_threads = 4;
  Server server(std::move(served), options);
  ASSERT_TRUE(server.Execute(kPath).ok());  // warm the cached plan

  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  std::vector<Status> reader_status(kReaders, Status::OK());
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_relaxed)) {
        api::Result res = server.Execute(kPath);
        if (!res.ok()) {
          reader_status[size_t(r)] = res.status();
          return;
        }
        if (std::find(oracle_counts.begin(), oracle_counts.end(),
                      res.count()) == oracle_counts.end()) {
          reader_status[size_t(r)] = Status::Internal(
              "count " + std::to_string(res.count()) +
              " matches no serial write-prefix state");
          return;
        }
      }
    });
  }
  for (const storage::WriteBatch& batch : writes) {
    ASSERT_TRUE(server.Apply(batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  for (const Status& s : reader_status) EXPECT_TRUE(s.ok()) << s;

  // Quiesced, the served answer is exactly the serial end state.
  server.Drain();
  api::Result last = server.Execute(kPath);
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(last.count(), oracle_counts.back());
  EXPECT_EQ(server.stats().writes_applied, uint64_t(kWrites));
}

TEST(ServerTest, WritesBesideSelectionReadsMatchFreshSessionsAfterDrain) {
  // The read/write serving mix at small scale: three workers at four
  // servers run selection keys while a writer applies batches, some of
  // whose rows the keys' constants select. Each write stales the
  // cached plans, whose refreshes patch filtered copies, indexes and
  // shards on the workers concurrently. Drained, every key must answer
  // what a fresh session computes on the final database.
  constexpr int kWrites = 12;
  ServerOptions options = FastOptions();
  options.worker_threads = 3;
  options.queue_capacity = 256;
  options.cache_capacity = 16;
  Server server(SmallDatabase(43, 40, 240), options);
  const std::vector<Value> hubs = {1, 2, 5};
  std::vector<std::string> keys;
  for (Value hub : hubs) {
    keys.push_back(std::string(kTriangle) + " | a=" + std::to_string(hub));
    keys.push_back(std::string(kSquare) + " | a=" + std::to_string(hub));
  }
  for (const std::string& key : keys) {
    api::Result warm = server.Execute(key);
    ASSERT_TRUE(warm.ok()) << key << ": " << warm.status();
  }

  std::atomic<bool> stop{false};
  Status reader_status = Status::OK();
  std::thread reader([&] {
    std::vector<std::future<api::Result>> pending;
    for (size_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      StatusOr<std::future<api::Result>> f =
          server.Submit(keys[n % keys.size()]);
      if (f.ok()) pending.push_back(std::move(f.value()));
      if (pending.size() >= 8) {
        for (std::future<api::Result>& p : pending) {
          api::Result r = p.get();
          if (!r.ok() && reader_status.ok()) reader_status = r.status();
        }
        pending.clear();
      }
    }
    for (std::future<api::Result>& p : pending) {
      api::Result r = p.get();
      if (!r.ok() && reader_status.ok()) reader_status = r.status();
    }
  });
  Rng rng(4343);
  for (int w = 0; w < kWrites; ++w) {
    storage::WriteBatch batch;
    for (int i = 0; i < 4; ++i) {
      // Every third write gives a hub an edge; the rest miss them all.
      const Value a = w % 3 == 0 && i == 0 ? hubs[size_t(w / 3) % hubs.size()]
                                           : Value(10 + rng.Uniform(30));
      batch.Insert("G", {a, Value(rng.Uniform(40))});
    }
    ASSERT_TRUE(server.Apply(batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  stop.store(true);
  reader.join();
  EXPECT_TRUE(reader_status.ok()) << reader_status;
  server.Drain();
  EXPECT_GT(server.stats().reprepared, 0u);

  api::Session fresh = server.database().OpenSession();
  fresh.options() = options.engine;
  for (const std::string& key : keys) {
    api::Result served = server.Execute(key);
    api::Result want = fresh.Run(key);
    ASSERT_TRUE(served.ok()) << key << ": " << served.status();
    ASSERT_TRUE(want.ok()) << key << ": " << want.status();
    EXPECT_EQ(served.count(), want.count()) << key;
  }
}

TEST(ServerTest, WeightedLanesPerLaneStatsAndValidation) {
  ServerOptions options = FastOptions();
  options.lanes = {{"gold", 3, 0}, {"silver", 1, 0}, {"background", 0, 2}};
  Server server(SmallDatabase(42), options);

  // Default Submit lands on lane 0; RequestOptions::lane redirects.
  ASSERT_TRUE(server.Execute(kPath).ok());
  ASSERT_TRUE(server.Execute(kTriangle, {.lane = 1}).ok());
  StatusOr<std::vector<std::future<api::Result>>> batch =
      server.SubmitBatch({kPath, kPath}, {.lane = 2});
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (auto& f : *batch) EXPECT_TRUE(f.get().ok());

  // The background lane's own capacity (2) rejects a batch of 3 whole,
  // even though the total capacity has room.
  server.Pause();
  StatusOr<std::vector<std::future<api::Result>>> too_big =
      server.SubmitBatch({kPath, kPath, kPath}, {.lane = 2});
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
  server.Resume();
  server.Drain();

  // An out-of-range lane is an admission-time error, not a crash.
  StatusOr<std::future<api::Result>> bad = server.Submit(kPath, {.lane = 7});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  ServerStats stats = server.stats();
  ASSERT_EQ(stats.lanes.size(), 3u);
  EXPECT_EQ(stats.lanes[0].name, "gold");
  EXPECT_EQ(stats.lanes[1].name, "silver");
  EXPECT_EQ(stats.lanes[2].name, "background");
  EXPECT_EQ(stats.lanes[0].accepted, 1u);
  EXPECT_EQ(stats.lanes[1].accepted, 1u);
  EXPECT_EQ(stats.lanes[2].accepted, 2u);
  EXPECT_EQ(stats.lanes[2].rejected, 3u);
  EXPECT_EQ(stats.lanes[0].served + stats.lanes[1].served +
                stats.lanes[2].served,
            4u);
  EXPECT_EQ(stats.rejected, 3u);
}

TEST(ServerTest, DestructorFulfillsEveryAdmittedFuture) {
  std::vector<std::future<api::Result>> futures;
  {
    ServerOptions options = FastOptions();
    options.worker_threads = 1;
    Server server(SmallDatabase(8), options);
    server.Pause();
    for (int i = 0; i < 3; ++i) {
      StatusOr<std::future<api::Result>> f = server.Submit(kPath);
      ASSERT_TRUE(f.ok()) << f.status();
      futures.push_back(std::move(f.value()));
    }
    // Server destroyed with requests still queued: the drain-on-stop
    // contract says every admitted future is fulfilled first.
  }
  for (auto& f : futures) {
    api::Result r = f.get();
    EXPECT_TRUE(r.ok()) << r.status();
    EXPECT_GT(r.count(), 0u);
  }
}

}  // namespace
}  // namespace adj::serve
