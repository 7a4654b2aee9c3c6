// Incremental-update smoke: the same stale-plan refresh done two ways
// on a warmed triangle query — the delta path (a one-tuple WriteBatch
// lands on the relation's chain; Reprepare patches the cached indexes)
// versus the full-invalidate path (Create replaces the relation with
// identical rows under a new identity, forcing every index rebuild).
// Timed: Apply + Reprepare — the write-to-ready latency, which is the
// cost the delta machinery exists to shrink. The rerun after each
// refresh executes the identical join in both paths, so it is asserted
// for correctness but kept out of the ratio. Gates, each a hard
// failure for CI's Release leg:
//
//   1. the point-write refresh is >= 5x faster than the
//      full-invalidate refresh (median over kRounds each, same rows),
//   2. the delta refresh + rerun builds zero indexes — every binding
//      is served by delta-patching the pre-write artifacts
//      (index_patched > 0), while the full refresh demonstrably pays
//      rebuilds (cache build counter advances). Checked at one server,
//      where shards alias the prepared index, and at the default four,
//      where the HCube shards themselves must patch,
//   3. a write to a relation the prepared query does not read touches
//      zero indexes: the plan stays fresh and the rerun does zero
//      builds and zero delta-row merges.
//
// Records its numbers in BENCH_updates.json (FinishGates,
// bench_util.h). Scale knobs: ADJ_BENCH_SCALE (bench_util.h).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "storage/write_batch.h"

namespace adj::bench {
namespace {

constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c)";
constexpr double kMinSpeedup = 5.0;
constexpr int kRounds = 5;
// Fresh vertex ids, far above any WB node: each probe edge is a
// guaranteed-new tuple that closes no triangle, so the output count is
// invariant across rounds and both refresh paths must agree on it.
constexpr Value kProbeBase = 2'000'000'000;

int Run() {
  // Default above bench_util's 0.2: the >=5x gate needs the full
  // rebuild well clear of timer noise.
  const double scale = ScaleFromEnv(16.0);
  StatusOr<api::Database> opened = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(opened.ok()) << opened.status();
  api::Database db = std::move(opened.value());
  // A bystander relation the query never reads, for gate 3.
  Status h = db.LoadBuiltin("AS", 0.1, "H");
  ADJ_CHECK(h.ok()) << h;

  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kQuery);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  api::Result warm = prepared->Run();
  ADJ_CHECK(warm.ok()) << warm.status();

  // Delta path: one probe insert per round, then Apply + Reprepare
  // (timed) and a rerun (asserted). The rebind must resolve every
  // bound-atom index by patching the cached artifacts: the run report
  // must show zero index builds. (The cache-wide build counter is NOT
  // the gate here — at one server the run layer re-derives its shard
  // wrapper as a zero-cost alias of the pinned index under the new
  // relation identity, which registers as a cache entry but does no
  // index work and is deliberately kept out of the report counter.)
  std::vector<double> delta_s_runs;
  uint64_t delta_count = 0, delta_builds = 0, delta_patched = 0,
           delta_rows = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Value v = kProbeBase + Value(2 * round);
    storage::WriteBatch point;
    point.Insert("G", {v, v + 1});

    WallTimer timer;
    Status applied = db.Apply(point);
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    delta_s_runs.push_back(timer.Seconds());

    api::Result r = refreshed->Run();
    ADJ_CHECK(r.ok()) << r.status();
    prepared = std::move(refreshed);
    delta_builds = std::max(delta_builds, r.index_builds());
    delta_count = r.count();
    delta_patched = r.index_patched();
    delta_rows = r.delta_rows_merged();
  }

  // Gate 2 at the default cluster size: four servers, so the rerun
  // shuffles G into real HCube shards, which must patch forward from
  // the pre-write shards rather than re-route and rebuild.
  api::Session sharded = db.OpenSession();
  StatusOr<api::PreparedQuery> sharded_pq = sharded.Prepare(kQuery);
  ADJ_CHECK(sharded_pq.ok()) << sharded_pq.status();
  api::Result sharded_warm = sharded_pq->Run();
  ADJ_CHECK(sharded_warm.ok()) << sharded_warm.status();
  uint64_t sharded_count = 0, sharded_builds = 0, sharded_patched = 0;
  for (int round = 0; round < kRounds; ++round) {
    const Value v = kProbeBase + Value(2 * (kRounds + round));
    Status applied = db.Apply(storage::WriteBatch().Insert("G", {v, v + 1}));
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = sharded.Reprepare(*sharded_pq);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    api::Result r = refreshed->Run();
    ADJ_CHECK(r.ok()) << r.status();
    sharded_pq = std::move(refreshed);
    sharded_builds = std::max(sharded_builds, r.index_builds());
    sharded_patched = r.index_patched();
    sharded_count = r.count();
  }

  // Full-invalidate path: replace G with a detached copy of its own
  // merged rows. Same content, new identity — every cached index and
  // the prepared plan go stale, and the refresh pays full rebuilds.
  std::vector<double> full_s_runs;
  uint64_t full_count = 0, full_builds = 0;
  for (int round = 0; round < kRounds; ++round) {
    StatusOr<const storage::Relation*> g = db.catalog().Get("G");
    ADJ_CHECK(g.ok()) << g.status();
    storage::Relation copy = **g;
    copy.mutable_raw();  // detach: own the rows, drop payload identity
    storage::WriteBatch replace;
    replace.Create("G", std::move(copy));
    const uint64_t builds = db.catalog().index_cache().stats().builds;

    WallTimer timer;
    Status applied = db.Apply(replace);
    ADJ_CHECK(applied.ok()) << applied;
    StatusOr<api::PreparedQuery> refreshed = session.Reprepare(*prepared);
    ADJ_CHECK(refreshed.ok()) << refreshed.status();
    full_s_runs.push_back(timer.Seconds());

    api::Result r = refreshed->Run();
    ADJ_CHECK(r.ok()) << r.status();
    prepared = std::move(refreshed);
    full_count = r.count();
    full_builds = db.catalog().index_cache().stats().builds - builds;
  }

  // Gate 3: a write to H must not disturb anything the G plan binds.
  const uint64_t builds_before = db.catalog().index_cache().stats().builds;
  const uint64_t merged_before =
      db.catalog().index_cache().stats().delta_rows_merged;
  storage::WriteBatch bystander;
  bystander.Insert("H", {kProbeBase, kProbeBase + 1});
  Status applied = db.Apply(bystander);
  ADJ_CHECK(applied.ok()) << applied;
  const bool still_fresh = session.IsFresh(*prepared);
  api::Result untouched = prepared->Run();
  ADJ_CHECK(untouched.ok()) << untouched.status();
  const uint64_t untouched_builds =
      db.catalog().index_cache().stats().builds - builds_before;
  const uint64_t untouched_merges =
      db.catalog().index_cache().stats().delta_rows_merged - merged_before;

  const double delta_s = Median(delta_s_runs);
  const double full_s = Median(full_s_runs);
  const double speedup = delta_s > 0 ? full_s / delta_s : kMinSpeedup * 10;

  std::printf("updates: dataset=WB query=\"%s\"\n", kQuery);
  GateResult result;
  result.Add("scale", scale, "x");
  result.Add("output_count", delta_count, "count");
  result.Add("delta_refresh_s", delta_s, "s");
  result.Add("full_refresh_s", full_s, "s");
  result.Add("speedup", speedup, "x");
  result.Add("delta_run_index_builds", delta_builds, "count");
  result.Add("delta_run_index_patched", delta_patched, "count");
  result.Add("delta_run_rows_merged", delta_rows, "count");
  result.Add("sharded_delta_run_index_builds", sharded_builds, "count");
  result.Add("sharded_delta_run_index_patched", sharded_patched, "count");
  result.Add("full_run_index_builds", full_builds, "count");
  result.Add("bystander_write_index_builds", untouched_builds, "count");
  result.Add("bystander_write_rows_merged", untouched_merges, "count");
  result.Check(speedup >= kMinSpeedup,
               "delta refresh speedup >= " + Num(kMinSpeedup) + "x full");
  result.Check(delta_builds == 0, "every delta rerun builds 0 indexes");
  result.Check(delta_patched > 0, "delta rerun reports patched bindings");
  result.Check(sharded_builds == 0,
               "every delta rerun at 4 servers builds 0 indexes");
  result.Check(sharded_patched > 0,
               "delta rerun at 4 servers reports patched bindings");
  result.Check(sharded_count == delta_count,
               "4-server count == 1-server count");
  result.Check(full_builds > 0,
               "full-invalidate refresh rebuilds indexes (the baseline "
               "measures rebuild cost)");
  result.Check(full_count == delta_count, "full count == delta count");
  result.Check(still_fresh, "a write to H leaves the plan over G fresh");
  result.Check(untouched_builds == 0 && untouched_merges == 0,
               "a write to H costs the G rerun 0 builds, 0 merged rows");
  return FinishGates("updates", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
