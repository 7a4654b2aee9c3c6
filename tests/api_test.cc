#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "api/api.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/strategy_registry.h"
#include "dataset/generators.h"
#include "query/query.h"
#include "wcoj/naive_join.h"

namespace adj::api {
namespace {

constexpr char kTriangle[] = "G(a,b) G(b,c) G(a,c)";
constexpr char kPath[] = "G(a,b) G(b,c)";

Database SmallDatabase(uint64_t seed, uint64_t nodes = 30,
                       uint64_t edges = 150) {
  Rng rng(seed);
  Database db;
  db.AddRelation("G", dataset::ErdosRenyi(nodes, edges, rng));
  return db;
}

Session FastSession(const Database& db) {
  Session session = db.OpenSession();
  session.options().cluster.num_servers = 4;
  session.options().num_samples = 64;
  return session;
}

uint64_t OracleCount(const Database& db, const std::string& text) {
  auto q = query::Query::Parse(text);
  EXPECT_TRUE(q.ok());
  auto joined = wcoj::NaiveJoin(*q, db.catalog());
  EXPECT_TRUE(joined.ok());
  return joined->size();
}

TEST(DatabaseTest, LoadBuiltinByName) {
  StatusOr<Database> db = Database::OpenBuiltin("WB", 0.02);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(db->catalog().Contains("G"));
  EXPECT_GT(db->total_tuples(), 0u);
  EXPECT_EQ(db->relation_names(), std::vector<std::string>{"G"});
}

TEST(DatabaseTest, UnknownBuiltinIsError) {
  EXPECT_FALSE(Database::OpenBuiltin("NOPE").ok());
}

TEST(DatabaseTest, RvalueDerefMovesOut) {
  // The documented one-liner: deref of an rvalue StatusOr moves the
  // move-only Database out.
  Database db = *Database::OpenBuiltin("WB", 0.02);
  EXPECT_TRUE(db.catalog().Contains("G"));
}

TEST(DatabaseTest, SessionKeepsCatalogAlive) {
  // Sessions share ownership of the catalog, so queries keep working
  // after the Database handle is gone.
  Session session = [] {
    Database db = SmallDatabase(11);
    Session s = db.OpenSession();
    s.options().num_samples = 64;
    return s;
  }();
  Result r = session.Run(kPath, "HCubeJ");
  EXPECT_TRUE(r.ok()) << r.status();
  EXPECT_GT(r.count(), 0u);
}

TEST(SessionTest, RunAnswersUnderDefaultStrategy) {
  Database db = SmallDatabase(1);
  Session session = FastSession(db);
  Result r = session.Run(kTriangle);  // default strategy: ADJ
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), OracleCount(db, kTriangle));
  EXPECT_EQ(r.strategy(), "ADJ");
  EXPECT_NE(r.ToString().find("strategy=ADJ"), std::string::npos);
}

TEST(SessionTest, UnknownRelationIsError) {
  Database db = SmallDatabase(2);
  Session session = FastSession(db);
  Result r = session.Run("Missing(a,b) Missing(b,c)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.count(), 0u);
}

TEST(SessionTest, MalformedQueryIsError) {
  Database db = SmallDatabase(3);
  Session session = FastSession(db);
  Result r = session.Run("G(a,b");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, UnknownStrategyIsError) {
  Database db = SmallDatabase(4);
  Session session = FastSession(db);
  Result r = session.Run(kTriangle, "NoSuchStrategy");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The projecting path resolves the name the same way.
  Result projected = session.Run("G(a,b) G(b,c) | | a", "NoSuchStrategy");
  EXPECT_FALSE(projected.ok());
  EXPECT_EQ(projected.status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, NonPositiveServerCountIsInvalid) {
  Database db = SmallDatabase(4);
  auto q = query::Query::Parse(kTriangle);
  ASSERT_TRUE(q.ok());
  for (int servers : {0, -1}) {
    Session session = FastSession(db);
    session.options().cluster.num_servers = servers;
    for (core::Strategy s : core::AllStrategies()) {
      const std::string name = core::StrategyName(s);
      // Counting and projecting text paths, and the Query overload.
      for (const Result& r : {session.Run(kTriangle, name),
                              session.Run("G(a,b) G(b,c) | | a", name),
                              session.Run(*q, name)}) {
        EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
            << name << " servers=" << servers << ": " << r.status();
      }
    }
    StatusOr<PreparedQuery> prepared = session.Prepare(kTriangle);
    EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument)
        << "servers=" << servers;
  }
}

TEST(SessionTest, SelectionAndProjectionRun) {
  Database db = SmallDatabase(5, 40, 250);
  Session session = FastSession(db);
  Result all = session.Run(kPath, "HCubeJ");
  Result selected = session.Run("G(a,b) G(b,c) | a=1", "HCubeJ");
  Result projected = session.Run("G(a,b) G(b,c) | | a", "HCubeJ");
  ASSERT_TRUE(all.ok() && selected.ok() && projected.ok());
  EXPECT_LT(selected.count(), all.count());
  EXPECT_GT(selected.selection_filtered(), 0u);
  EXPECT_LE(projected.count(), all.count());
}

TEST(PreparedQueryTest, SecondRunSkipsPlanning) {
  Database db = SmallDatabase(6);
  Session session = FastSession(db);
  const uint64_t oracle = OracleCount(db, kTriangle);

  StatusOr<PreparedQuery> prepared = session.Prepare(kTriangle);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_GT(prepared->planning_seconds(), 0.0);
  EXPECT_FALSE(prepared->explanation().empty());

  Result first = prepared->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first.count(), oracle);
  // The one-time planning cost is charged to the first run...
  EXPECT_GT(first.optimize_seconds(), 0.0);

  Result second = prepared->Run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.count(), oracle);
  // ...and the second run re-executes the cached plan without any
  // plan search or sampling.
  EXPECT_EQ(second.optimize_seconds(), 0.0);
}

TEST(PreparedQueryTest, SecondRunReportsZeroPrecomputeAndCopyCost) {
  Database db = SmallDatabase(14, 40, 250);
  Session session = FastSession(db);
  StatusOr<PreparedQuery> prepared = session.Prepare("G(a,b) G(b,c) G(c,d)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();

  Result first = prepared->Run();
  ASSERT_TRUE(first.ok()) << first.status();
  Result second = prepared->Run();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.count(), first.count());

  // The execution context is cached at Prepare time: the second run
  // re-executes it with zero base-relation copies and zero bag
  // re-materialization, so every one-time field of its report — plan
  // search, pre-compute time, pre-compute shuffle volume — is zero.
  EXPECT_EQ(second.optimize_seconds(), 0.0);
  EXPECT_EQ(second.precompute_seconds(), 0.0);
  EXPECT_EQ(second.report().precompute_comm.bytes, 0u);
  EXPECT_EQ(second.report().precompute_comm.tuple_copies, 0u);
  // ...while the first run carries the whole one-time charge.
  EXPECT_GT(first.optimize_seconds(), 0.0);
  EXPECT_GE(first.precompute_seconds(), 0.0);
}

TEST(PreparedQueryTest, CopiesShareThePlanningCharge) {
  Database db = SmallDatabase(13);
  Session session = FastSession(db);
  StatusOr<PreparedQuery> prepared = session.Prepare(kTriangle);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  PreparedQuery copy = *prepared;  // e.g. handed to a worker thread
  Result first = prepared->Run();
  Result from_copy = copy.Run();
  ASSERT_TRUE(first.ok() && from_copy.ok());
  // The one-time planning cost is charged exactly once across copies.
  EXPECT_GT(first.optimize_seconds(), 0.0);
  EXPECT_EQ(from_copy.optimize_seconds(), 0.0);
}

TEST(PreparedQueryTest, PushesSelectionsDownAtPrepareTime) {
  Database db = SmallDatabase(7, 40, 250);
  Session session = FastSession(db);
  const char* kSelected = "G(a,b) G(b,c) | a=1";
  StatusOr<PreparedQuery> prepared = session.Prepare(kSelected);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  Result from_plan = prepared->Run();
  Result direct = session.Run(kSelected, "HCubeJ");
  ASSERT_TRUE(from_plan.ok() && direct.ok());
  EXPECT_EQ(from_plan.count(), direct.count());
  EXPECT_EQ(from_plan.selection_filtered(), direct.selection_filtered());
}

TEST(PreparedQueryTest, PlanningBudgetBoundsPrepare) {
  Database db = SmallDatabase(7, 40, 250);
  Session session = FastSession(db);
  // A budget no sampler pass can beat: Prepare must give up with
  // DeadlineExceeded instead of finishing late.
  session.options().num_samples = 1 << 22;
  session.options().planning_budget_seconds = 1e-4;
  StatusOr<PreparedQuery> bounded = session.Prepare(kTriangle);
  EXPECT_FALSE(bounded.ok());
  EXPECT_EQ(bounded.status().code(), StatusCode::kDeadlineExceeded);

  // A zero budget fails before any work at all.
  session.options().planning_budget_seconds = 0.0;
  EXPECT_EQ(session.Prepare(kTriangle).status().code(),
            StatusCode::kDeadlineExceeded);

  // The default (infinite) budget is unchanged behavior.
  session.options().num_samples = 64;
  session.options().planning_budget_seconds =
      std::numeric_limits<double>::infinity();
  StatusOr<PreparedQuery> unbounded = session.Prepare(kTriangle);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status();
  Result r = unbounded->Run();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.count(), OracleCount(db, kTriangle));
}

TEST(PreparedQueryTest, ProperProjectionIsRejected) {
  Database db = SmallDatabase(8);
  Session session = FastSession(db);
  StatusOr<PreparedQuery> prepared = session.Prepare("G(a,b) G(b,c) | | a");
  EXPECT_FALSE(prepared.ok());
  EXPECT_EQ(prepared.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreparedQueryTest, DefaultConstructedRunFails) {
  PreparedQuery empty;
  EXPECT_FALSE(empty.Run().ok());
}

TEST(StrategyRegistryTest, PaperStrategiesRegisteredByDefault) {
  auto& registry = core::StrategyRegistry::Global();
  for (core::Strategy s : core::AllStrategies()) {
    EXPECT_TRUE(registry.Contains(core::StrategyName(s)))
        << core::StrategyName(s);
  }
  EXPECT_FALSE(registry.Contains("NoSuchStrategy"));
  StatusOr<core::StrategyFn> fn = registry.Find("NoSuchStrategy");
  EXPECT_FALSE(fn.ok());
  EXPECT_EQ(fn.status().code(), StatusCode::kNotFound);
}

TEST(StrategyRegistryTest, RuntimeRegisteredStrategyRunsByName) {
  // A strategy core knows nothing about: the naive oracle join,
  // plugged in by name without touching core::Strategy. The registry
  // is process-wide, so skip re-registration when this test repeats
  // (--gtest_repeat) in one process.
  Status registered =
      core::StrategyRegistry::Global().Contains("NaiveOracle")
          ? Status::OK()
          : core::StrategyRegistry::Global().Register(
                "NaiveOracle",
      [](core::Engine& engine, const query::Query& q,
         const core::EngineOptions& options) -> StatusOr<exec::RunReport> {
        WallTimer timer;
        StatusOr<storage::Relation> joined =
            wcoj::NaiveJoin(q, engine.db(), options.limits.max_extensions);
        exec::RunReport report;
        report.method = "NaiveOracle";
        if (!joined.ok()) {
          report.status = joined.status();
          return report;
        }
        report.output_count = joined->size();
        report.comp_s = timer.Seconds();
        return report;
      });
  ASSERT_TRUE(registered.ok()) << registered;

  Database db = SmallDatabase(9);
  Session session = FastSession(db);
  Result r = session.Run(kTriangle, "NaiveOracle");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.strategy(), "NaiveOracle");
  EXPECT_EQ(r.count(), OracleCount(db, kTriangle));

  // Names are unique: neither a plugin name nor a builtin can be
  // re-registered.
  auto reject = [](core::Engine&, const query::Query&,
                   const core::EngineOptions&) -> StatusOr<exec::RunReport> {
    return Status::Internal("never runs");
  };
  EXPECT_FALSE(
      core::StrategyRegistry::Global().Register("NaiveOracle", reject).ok());
  EXPECT_FALSE(core::StrategyRegistry::Global().Register("ADJ", reject).ok());
}

TEST(StrategyNameTest, RoundTripsThroughStrategyFromName) {
  for (core::Strategy s : core::AllStrategies()) {
    StatusOr<core::Strategy> parsed =
        core::StrategyFromName(core::StrategyName(s));
    ASSERT_TRUE(parsed.ok()) << core::StrategyName(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(core::StrategyFromName("nope").ok());
  EXPECT_FALSE(core::StrategyFromName("").ok());
}

TEST(RunBatchTest, MatchesSerialExecution) {
  Database db = SmallDatabase(10, 40, 250);
  Session session = FastSession(db);
  const std::vector<BatchQuery> batch = {
      {kTriangle, ""},  // session default (ADJ)
      {kPath, "HCubeJ"},
      {"G(a,b) G(b,c) G(c,d) G(d,a)", "SparkSQL"},
      {kTriangle, "BigJoin"},
      {"G(a,b) G(b,c) | a=1", "HCubeJ"},
      {"G(a,b", ""},  // parse error must stay index-aligned
  };

  std::vector<Result> concurrent = session.RunBatch(batch, /*threads=*/4);
  ASSERT_EQ(concurrent.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Result serial = batch[i].strategy.empty()
                        ? session.Run(batch[i].text)
                        : session.Run(batch[i].text, batch[i].strategy);
    EXPECT_EQ(concurrent[i].ok(), serial.ok()) << "query " << i;
    EXPECT_EQ(concurrent[i].count(), serial.count()) << "query " << i;
    EXPECT_EQ(concurrent[i].strategy(), serial.strategy()) << "query " << i;
  }
  EXPECT_FALSE(concurrent.back().ok());
}

TEST(RunBatchTest, EmptyBatchAndInlineThreads) {
  Database db = SmallDatabase(12);
  Session session = FastSession(db);
  EXPECT_TRUE(session.RunBatch({}).empty());
  // threads=1 executes inline; results must be identical in shape.
  std::vector<Result> results =
      session.RunBatch({{kPath, "HCubeJ"}}, /*threads=*/1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok()) << results[0].status();
}

}  // namespace
}  // namespace adj::api
