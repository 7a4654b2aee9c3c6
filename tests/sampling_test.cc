#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/thread_pool.h"
#include "query/hypergraph.h"
#include "query/queries.h"
#include "sampling/sampler.h"
#include "sampling/sketch_estimator.h"
#include "wcoj/naive_join.h"

namespace adj::sampling {
namespace {

using query::Query;
using storage::WriteBatch;

TEST(ChernoffTest, SampleCountFormula) {
  // k = ceil(0.5 p^-2 ln(2/delta)).
  EXPECT_EQ(ChernoffSampleCount(0.1, 0.05),
            uint64_t(std::ceil(0.5 * 100 * std::log(40.0))));
  EXPECT_GE(ChernoffSampleCount(0.01, 0.01), 10000u);
  EXPECT_EQ(ChernoffSampleCount(0, 0.5), 1u);
}

TEST(SamplerTest, ExactOnCompleteGraphTriangles) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(8))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 64;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  // Complete graph is perfectly symmetric: every sampled value yields
  // the same count, so the estimate is exact: 8*7*6 = 336.
  EXPECT_EQ(est->val_a_size, 8u);
  EXPECT_NEAR(est->cardinality, 336.0, 1e-9);
}

TEST(SamplerTest, ConvergesWithMoreSamples) {
  Rng rng(11);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(200, 3000, 0.8, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  const double truth = double(naive->size());
  ASSERT_GT(truth, 0);

  auto run = [&](uint64_t k) {
    SamplerOptions opts;
    opts.num_samples = k;
    opts.seed = 5;
    auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
    EXPECT_TRUE(est.ok());
    const double d = std::max(est->cardinality, truth) /
                     std::max(1.0, std::min(est->cardinality, truth));
    return d;
  };
  const double d_small = run(8);
  const double d_large = run(4096);
  // The paper's D metric converges toward 1 as samples grow.
  EXPECT_LT(d_large, 1.35);
  EXPECT_LE(d_large, d_small * 1.5 + 0.5);
}

TEST(SamplerTest, PerLevelEstimatesScaleWithSamples) {
  Rng rng(13);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(100, 800, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  SamplerOptions opts;
  opts.num_samples = 512;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->est_tuples_at_level.size(), 3u);
  // Level-0 estimate approximates |val(A)| (each sample emits <= 1
  // binding at level 0 and val(a) values all join something or not).
  EXPECT_GT(est->est_tuples_at_level[0], 0.0);
  // Deepest level estimate equals the cardinality estimate.
  EXPECT_NEAR(est->est_tuples_at_level[2], est->cardinality, 1e-6);
}

TEST(SamplerTest, DistributedAccountingPresent) {
  Rng rng(17);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(100, 800, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 32;
  opts.distributed = true;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->comm.tuple_copies, 0u);
  EXPECT_GT(est->comm.seconds, 0.0);
  // The reduced database can not exceed 1 projection + full relation
  // per atom.
  uint64_t upper = 0;
  for (int i = 0; i < q->num_atoms(); ++i) {
    upper += 2 * (*db.Get("G"))->size();
  }
  EXPECT_LE(est->comm.tuple_copies, upper);
}

TEST(SamplerTest, SemijoinReductionShrinksComm) {
  // With few samples, relations containing A shrink a lot.
  Rng rng(19);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(500, 4000, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions small_opts;
  small_opts.num_samples = 4;
  small_opts.seed = 1;
  auto small = SampleCardinality(*q, db, {0, 1, 2}, small_opts);
  SamplerOptions big_opts;
  big_opts.num_samples = 2048;
  big_opts.seed = 1;
  auto big = SampleCardinality(*q, db, {0, 1, 2}, big_opts);
  ASSERT_TRUE(small.ok() && big.ok());
  EXPECT_LT(small->comm.tuple_copies, big->comm.tuple_copies);
}

TEST(SemiJoinCountTest, MatchesSemiJoinFilter) {
  // The modeled reduced shuffle counts the rows a semijoin filter on
  // the leading column would keep, without building the filtered copy.
  Rng rng(37);
  for (int arity = 1; arity <= 3; ++arity) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<AttrId> attrs;
      for (int c = 0; c < arity; ++c) attrs.push_back(c);
      storage::Relation rel{storage::Schema(attrs)};
      const uint64_t rows = rng.Uniform(300);
      const uint64_t domain = 1 + rng.Uniform(40);
      for (uint64_t r = 0; r < rows; ++r) {
        std::vector<Value> t;
        for (int c = 0; c < arity; ++c) t.push_back(Value(rng.Uniform(domain)));
        rel.Append(std::span<const Value>(t));
      }
      rel.SortAndDedup();
      std::vector<Value> keep;
      const uint64_t keys = rng.Uniform(2 * domain + 1);
      for (uint64_t k = 0; k < keys; ++k) {
        keep.push_back(Value(rng.Uniform(domain + 5)));
      }
      std::sort(keep.begin(), keep.end());
      keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
      EXPECT_EQ(CountSemiJoinRows(rel, keep),
                rel.SemiJoinFilter(0, keep).size())
          << "arity " << arity << " trial " << trial;
    }
  }
}

TEST(SamplerTest, EmptyJoinEstimatesZero) {
  storage::Catalog db;
  storage::Relation g(storage::Schema({0, 1}));
  g.Append({1, 2});  // no triangle possible
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", std::move(g))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 16;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->cardinality, 0.0);
}

TEST(SamplerTest, BetaMeasured) {
  Rng rng(23);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(200, 2000, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  SamplerOptions opts;
  opts.num_samples = 512;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->beta_extensions_per_s, 0.0);
}

/// Runs `fn` as the task of a dist::ThreadPool batch, where sampling
/// is serial.
void OnPoolWorker(const std::function<void()>& fn) {
  dist::ThreadPool pool(1);
  pool.ForkJoin({fn});
}

/// The k pinned runs spread over the host's cores give the serial
/// estimate exactly: the same values are drawn and the counts are
/// integer sums.
TEST(ParallelSamplerTest, EstimateIndependentOfThreadCount) {
  Rng rng(41);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(300, 4000, 0.8, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(c,d) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 777;
  opts.seed = 9;
  StatusOr<SampleEstimate> serial = Status::Internal("not run");
  OnPoolWorker([&] {
    serial = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
  });
  ASSERT_TRUE(serial.ok());
  ASSERT_GT(serial->cardinality, 0.0);
  EXPECT_EQ(serial->samples, 777u);

  auto est = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->cardinality, serial->cardinality);
  EXPECT_EQ(est->samples, serial->samples);
  EXPECT_EQ(est->val_a_size, serial->val_a_size);
  EXPECT_EQ(est->est_tuples_at_level, serial->est_tuples_at_level);
  EXPECT_EQ(est->comm.bytes, serial->comm.bytes);
  EXPECT_EQ(est->comm.tuple_copies, serial->comm.tuple_copies);
  EXPECT_GT(est->beta_extensions_per_s, 0.0);
  EXPECT_GT(serial->beta_extensions_per_s, 0.0);
}

/// Each distinct drawn value runs once, weighted by its draws: the
/// estimate is bit-identical to running all k draws. The expected
/// numbers were recorded from a sampler that ran every draw (k = 1000
/// draws over 296 values, so most values repeat).
TEST(ParallelSamplerTest, DistinctDrawsMatchKRunGolden) {
  Rng rng(41);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(300, 4000, 0.8, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(c,d) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 1000;
  opts.seed = 9;
  const std::vector<double> golden_levels = {
      296, 3467.9360000000001, 16872.887999999999, 839607.25600000005};
  auto check = [&](const StatusOr<SampleEstimate>& est) {
    ASSERT_TRUE(est.ok()) << est.status();
    EXPECT_EQ(est->val_a_size, 296u);
    EXPECT_EQ(est->samples, 1000u);
    EXPECT_EQ(est->cardinality, 839607.25599999994);
    EXPECT_EQ(est->est_tuples_at_level, golden_levels);
    EXPECT_EQ(est->comm.bytes, 103776u);
    EXPECT_EQ(est->comm.tuple_copies, 13268u);
    EXPECT_EQ(est->comm.blocks, 16u);
  };
  // A cap the pass does not reach changes nothing, on one worker or on
  // the host's cores: the smallest cap above the estimate included.
  for (const double cap : {std::numeric_limits<double>::infinity(), 1e9,
                           std::nextafter(839607.25599999994, 1e9)}) {
    opts.stop_at_cardinality = cap;
    auto est = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
    check(est);
    EXPECT_FALSE(est->bounded);
    StatusOr<SampleEstimate> serial = Status::Internal("not run");
    OnPoolWorker([&] {
      serial = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
    });
    check(serial);
    EXPECT_FALSE(serial->bounded);
  }
}

/// A cap the pass reaches stops it: the estimate comes back bounded,
/// at least the cap and at most the uncapped estimate, on one worker
/// and on the host's cores.
TEST(ParallelSamplerTest, ReachedCapGivesBoundedLowerBound) {
  Rng rng(41);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(300, 4000, 0.8, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(c,d) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 1000;
  opts.seed = 9;
  auto uncapped = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
  ASSERT_TRUE(uncapped.ok());
  ASSERT_FALSE(uncapped->bounded);
  const double exact = uncapped->cardinality;
  for (const double cap : {1.0, 0.01 * exact, 0.5 * exact, exact}) {
    opts.stop_at_cardinality = cap;
    auto check = [&](const StatusOr<SampleEstimate>& est) {
      ASSERT_TRUE(est.ok()) << est.status();
      EXPECT_TRUE(est->bounded) << cap;
      EXPECT_GE(est->cardinality, cap);
      EXPECT_LE(est->cardinality, exact);
      EXPECT_EQ(est->val_a_size, uncapped->val_a_size);
    };
    auto est = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
    check(est);
    if (cap < 0.5 * exact) {
      EXPECT_LT(est->samples, 1000u) << cap;
    }
    StatusOr<SampleEstimate> serial = Status::Internal("not run");
    OnPoolWorker([&] {
      serial = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
    });
    check(serial);
  }
}

/// All 7 draws land on the one value of val(a), whose pinned run finds
/// many results: a cap at about half the estimate cuts that run
/// mid-way, at the first count whose 7-fold weight reaches the cap.
TEST(ParallelSamplerTest, ReachedCapCutsAPinnedRunMidWay) {
  storage::Relation star(storage::Schema({0, 1}));
  for (Value b = 0; b < 30; ++b) star.Append({0, b});
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(WriteBatch()
                           .Create("R", star)
                           .Create("G", dataset::CompleteGraph(30)))
                  .ok());
  auto q = Query::Parse("R(a,b) G(b,c) G(c,d)");
  SamplerOptions opts;
  opts.num_samples = 7;
  auto uncapped = SampleCardinality(*q, db, {0, 1, 2, 3}, opts);
  ASSERT_TRUE(uncapped.ok());
  ASSERT_EQ(uncapped->val_a_size, 1u);
  // a = 0: 30 * 29 * 29 results.
  ASSERT_EQ(uncapped->cardinality, 30.0 * 29 * 29);
  // 7 * 12615.5 is not a multiple of 7: the cut must round up.
  opts.stop_at_cardinality = 12615.5;
  for (const bool on_pool : {false, true}) {
    StatusOr<SampleEstimate> est = Status::Internal("not run");
    auto run = [&] { est = SampleCardinality(*q, db, {0, 1, 2, 3}, opts); };
    if (on_pool) {
      OnPoolWorker(run);
    } else {
      run();
    }
    ASSERT_TRUE(est.ok()) << est.status();
    EXPECT_TRUE(est->bounded);
    EXPECT_EQ(est->samples, 7u);
    EXPECT_EQ(est->cardinality, 12616.0);
  }
}

/// An exhausted budget still runs the first drawn value, and the
/// truncated mean is taken over all of that value's draws.
TEST(ParallelSamplerTest, ExhaustedBudgetStillRunsOneSample) {
  Rng rng(43);
  storage::Catalog db;
  storage::Relation g = dataset::ErdosRenyi(100, 800, rng);
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", g)).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  SamplerOptions opts;
  opts.num_samples = 500;
  opts.max_total_seconds = 0.0;
  auto est = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(est.ok());
  // val(a) is G's distinct first column; replay the sampler's draws.
  std::vector<Value> val_a;
  for (uint64_t r = 0; r < g.size(); ++r) val_a.push_back(g.At(r, 0));
  std::sort(val_a.begin(), val_a.end());
  val_a.erase(std::unique(val_a.begin(), val_a.end()), val_a.end());
  Rng draws(opts.seed);
  std::vector<Value> drawn(opts.num_samples);
  for (Value& v : drawn) v = val_a[draws.Uniform(val_a.size())];
  const uint64_t first_draws =
      uint64_t(std::count(drawn.begin(), drawn.end(), drawn[0]));
  ASSERT_GT(first_draws, 1u);
  EXPECT_EQ(est->samples, first_draws);
  EXPECT_TRUE(std::isfinite(est->cardinality));
}

TEST(ParallelSamplerTest, ThreadCountIsCoresOffPoolAndOneOnPool) {
  const int cores = int(std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(SamplingThreads(), cores);
  int on_pool = 0;
  OnPoolWorker([&] { on_pool = SamplingThreads(); });
  EXPECT_EQ(on_pool, 1);
  // RunTasks' threads are pool workers too; its inline mode is not.
  std::vector<int> seen(2, 0);
  dist::RunTasks(2, {[&] { seen[0] = SamplingThreads(); },
                     [&] { seen[1] = SamplingThreads(); }});
  EXPECT_EQ(seen, std::vector<int>(2, 1));
  dist::RunTasks(1, {[&] { seen[0] = SamplingThreads(); }});
  EXPECT_EQ(seen[0], cores);
}

/// Distinct columns are IndexCache artifacts: a repeated request is a
/// hit on the same value list, a write's new relation version gets its
/// own, and replacing the relation releases the old versions' lists.
TEST(DistinctColumnTest, CachedPerRelationVersionAndReleasedByAWrite) {
  storage::Catalog db;
  storage::Relation g(storage::Schema({0, 1}));
  for (const auto& [a, b] : {std::pair<Value, Value>{5, 1}, {2, 1}, {5, 3},
                             {2, 1}, {9, 1}}) {
    g.Append({a, b});
  }
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", g)).ok());
  auto first = DistinctColumn(db, "G", 0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(**first, (std::vector<Value>{2, 5, 9}));
  // Counted as a planner statistic, not as an index.
  EXPECT_EQ(db.index_cache().stats().statistic_builds, 1u);
  EXPECT_EQ(db.index_cache().stats().builds, 0u);
  auto again = DistinctColumn(db, "G", 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->get(), first->get());
  EXPECT_EQ(db.index_cache().stats().statistic_builds, 1u);
  EXPECT_EQ(db.index_cache().stats().statistic_hits, 1u);
  EXPECT_EQ(db.index_cache().stats().hits, 0u);
  auto second_col = DistinctColumn(db, "G", 1);
  ASSERT_TRUE(second_col.ok());
  EXPECT_EQ(**second_col, (std::vector<Value>{1, 3}));
  EXPECT_FALSE(DistinctColumn(db, "G", 2).ok());
  EXPECT_FALSE(DistinctColumn(db, "H", 0).ok());

  std::weak_ptr<const std::vector<Value>> before = *first;
  first = again = Status::Internal("released");
  ASSERT_TRUE(db.Apply(WriteBatch().Insert("G", {7, 3})).ok());
  // The write drops the replaced version's lists at once, although the
  // catalog keeps that version alive as the base of its delta chain.
  EXPECT_TRUE(before.expired());
  auto inserted = DistinctColumn(db, "G", 0);
  ASSERT_TRUE(inserted.ok());
  EXPECT_EQ(**inserted, (std::vector<Value>{2, 5, 7, 9}));

  std::weak_ptr<const std::vector<Value>> after = *inserted;
  inserted = Status::Internal("released");
  ASSERT_TRUE(db.Apply(WriteBatch().Create("G", storage::Relation(
                                                     storage::Schema({0, 1}))))
                  .ok());
  EXPECT_TRUE(after.expired());
  auto empty = DistinctColumn(db, "G", 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE((*empty)->empty());
}

TEST(SketchTest, SingleAtomIsExact) {
  Rng rng(29);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ErdosRenyi(50, 300, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  EXPECT_DOUBLE_EQ(sketch->EstimateJoin(0b01),
                   double((*db.Get("G"))->size()));
}

TEST(SketchTest, TwoWayJoinUsesContainment) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(10))).ok());
  auto q = Query::Parse("G(a,b) G(b,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  // |G|=90, V(b)=10 on both sides: est = 90*90/10 = 810.
  // True: for each (a,b): 9 extensions => 810. Exact here.
  EXPECT_NEAR(sketch->EstimateJoin(0b11), 810.0, 1e-9);
}

TEST(SketchTest, SamplingBeatsSketchOnCyclicJoin) {
  // Sec. IV's motivation: sketch error on cyclic joins is much larger
  // than sampling error.
  Rng rng(31);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(150, 2500, 0.9, rng))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto naive = wcoj::NaiveJoin(*q, db);
  ASSERT_TRUE(naive.ok());
  const double truth = std::max(1.0, double(naive->size()));

  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  const double sketch_est = std::max(1.0, sketch->EstimateJoin(0b111));
  const double sketch_d =
      std::max(sketch_est, truth) / std::min(sketch_est, truth);

  SamplerOptions opts;
  opts.num_samples = 2048;
  auto sample = SampleCardinality(*q, db, {0, 1, 2}, opts);
  ASSERT_TRUE(sample.ok());
  const double sample_est = std::max(1.0, sample->cardinality);
  const double sample_d =
      std::max(sample_est, truth) / std::min(sample_est, truth);

  EXPECT_LT(sample_d, sketch_d);
}

TEST(SketchTest, EstimateBindingsSelectsContainedAtoms) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(6))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(a,c)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  // attrs {a,b}: only atom 0 contained.
  EXPECT_DOUBLE_EQ(sketch->EstimateBindings(0b011),
                   double((*db.Get("G"))->size()));
  // No atoms inside {a}: neutral 1.0.
  EXPECT_DOUBLE_EQ(sketch->EstimateBindings(0b001), 1.0);
}

/// True if every attribute of `order` after the first shares an atom
/// of `atoms` with the attributes before it.
bool IsConnectedOrder(const Query& q, AtomMask atoms,
                      const query::AttributeOrder& order) {
  AttrMask prefix = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const AttrMask bit = AttrMask(1) << order[i];
    bool linked = i == 0;
    for (int a = 0; a < q.num_atoms() && !linked; ++a) {
      const AttrMask schema = q.atom(a).schema.Mask();
      linked = (atoms & (AtomMask(1) << a)) != 0 && (schema & bit) != 0 &&
               (schema & prefix) != 0;
    }
    if (!linked) return false;
    prefix |= bit;
  }
  return true;
}

TEST(SketchTest, ConnectedOrderOnEveryConnectedSubQuery) {
  Rng rng(41);
  storage::Catalog db;
  ASSERT_TRUE(db.Apply(
      WriteBatch().Create("G", dataset::ZipfGraph(60, 500, 0.8, rng))).ok());
  for (const int qi : {3, 5}) {
    auto q = query::MakeBenchmarkQuery(qi);
    ASSERT_TRUE(q.ok());
    auto sketch = SketchEstimator::Build(*q, db);
    ASSERT_TRUE(sketch.ok());
    const query::Hypergraph h(*q);
    int checked = 0;
    for (AtomMask mask = 1; mask < (AtomMask(1) << q->num_atoms()); ++mask) {
      if (!h.EdgesConnected(mask)) continue;
      const query::AttributeOrder order = sketch->ConnectedOrder(mask);
      // Each attribute of the sub-query exactly once...
      AttrMask seen = 0;
      for (AttrId a : order) {
        EXPECT_EQ(seen & (AttrMask(1) << a), 0u) << "Q" << qi;
        seen |= AttrMask(1) << a;
      }
      EXPECT_EQ(seen, h.VerticesOf(mask)) << "Q" << qi << " mask " << mask;
      // ...and each one after the first joined to its prefix.
      EXPECT_TRUE(IsConnectedOrder(*q, mask, order))
          << "Q" << qi << " mask " << mask << " order "
          << query::OrderToString(order, *q);
      ++checked;
    }
    EXPECT_GT(checked, q->num_atoms());
  }
  // Q5's path bag {G(a,b), G(d,e), G(e,a)}: the attribute-id order
  // a<b<d<e would reach d through no atom (a cross product per
  // sample); the connected order walks the path instead.
  auto q5 = query::MakeBenchmarkQuery(5);
  auto sketch = SketchEstimator::Build(*q5, db);
  ASSERT_TRUE(sketch.ok());
  EXPECT_EQ(sketch->ConnectedOrder(0b0011001),
            (query::AttributeOrder{0, 1, 4, 3}));
}

TEST(SketchTest, ConnectedOrderCoversDisconnectedAtoms) {
  storage::Catalog db;
  ASSERT_TRUE(
      db.Apply(WriteBatch().Create("G", dataset::CompleteGraph(6))).ok());
  auto q = Query::Parse("G(a,b) G(b,c) G(d,e)");
  auto sketch = SketchEstimator::Build(*q, db);
  ASSERT_TRUE(sketch.ok());
  // One component after the other.
  EXPECT_EQ(sketch->ConnectedOrder(0b111),
            (query::AttributeOrder{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace adj::sampling
