// Prepared-query index-reuse smoke: prepare once, run twice, and
// assert the warm (second) run is at least 5x faster than the cold
// (first) run. The first run pays every index build — shard routing,
// per-server sorts, Trie::Build — while the second binds and shuffles
// purely out of the shared IndexCache and builds zero tries. The
// workload is the serving hot path the index layer exists for: a
// selective prepared query re-executed against stable data. Exits
// non-zero on any violation, so CI's Release leg catches a regression
// of the reuse path, and records its numbers in BENCH_index_reuse.json
// (FinishGates, bench_util.h).
//
// Scale knobs: ADJ_BENCH_SCALE / ADJ_BENCH_SERVERS (bench_util.h).
#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"

namespace adj::bench {
namespace {

// A non-hub vertex: the warm run is then a genuinely small probe (the
// serving point-lookup), while the cold run still builds the full
// unselected atom's shard tries.
constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c) | a=300";
constexpr double kMinSpeedup = 5.0;

int Run() {
  // Default above bench_util's 0.2: the gate needs the cold run's index
  // builds well clear of timer noise.
  const double scale = ScaleFromEnv(4.0);
  StatusOr<api::Database> db = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(db.ok()) << db.status();
  api::Session session = db->OpenSession();
  session.options().cluster.num_servers = ServersFromEnv();

  WallTimer prepare_timer;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kQuery);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  const double prepare_s = prepare_timer.Seconds();
  WallTimer cold_timer;
  api::Result cold = prepared->Run();
  ADJ_CHECK(cold.ok()) << cold.status();
  const double cold_s = cold_timer.Seconds();

  // Best of three warm runs: the smoke gates on reuse, not on
  // scheduler noise.
  double warm_s = 0.0;
  api::Result warm;
  for (int i = 0; i < 3; ++i) {
    WallTimer warm_timer;
    warm = prepared->Run();
    const double s = warm_timer.Seconds();
    if (i == 0 || s < warm_s) warm_s = s;
    ADJ_CHECK(warm.ok()) << warm.status();
  }
  const double speedup = warm_s > 0 ? cold_s / warm_s : kMinSpeedup * 10;

  std::printf("index_reuse: dataset=WB query=\"%s\"\n", kQuery);
  GateResult result;
  result.Add("scale", scale, "x");
  result.Add("output_count", warm.count(), "count");
  result.Add("prepare_s", prepare_s, "s");
  result.Add("cold_s", cold_s, "s");
  result.Add("warm_s", warm_s, "s");
  result.Add("speedup", speedup, "x");
  result.Add("index_builds_cold", cold.index_builds(), "count");
  result.Add("index_builds_warm", warm.index_builds(), "count");
  result.Add("index_reused_warm", warm.index_reused(), "count");
  result.Add("pinned_index_bytes", prepared->resident_bytes(), "B");
  result.Check(warm.index_builds() == 0, "warm run builds 0 indexes");
  result.Check(warm.count() == cold.count(), "warm count == cold count");
  result.Check(speedup >= kMinSpeedup,
               "warm speedup >= " + Num(kMinSpeedup) + "x cold");
  return FinishGates("index_reuse", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
