// Warm-restart persistence smoke: the same dataset brought to
// serving-ready twice — cold (parse the text edge list, then build
// every permuted index trie during Prepare) and warm (Database::Open
// an mmap snapshot, whose arrays the relations and tries view in
// place). Gates, each a hard failure for CI's Release leg:
//
//   1. warm Open is >= 10x faster than the cold edge-list rebuild
//      (load + prepare) it replaces,
//   2. the warm Prepare builds zero indexes — every binding resolves
//      to a snapshot-mapped artifact,
//   3. the first warm run reports index_builds == 0 and a nonzero
//      index_mmap_loaded count, with the same answer as the cold run.
//   4. the snapshot is at most 3x the catalog's relation bytes and
//      stores at least one trie level block-compressed: every array
//      is written once, in its execution form (trie levels raw or
//      block-compressed), and a return to dual encoding (raw levels
//      plus a compressed mirror, ~3.5x here) would cross the bound.
//
// The warm path maps the snapshot, so gates 2 and 3 also prove that
// compressed trie levels load with zero re-encode and zero builds
// (the index cache compresses tries by default).
//
// Records its numbers in BENCH_persist.json (FinishGates,
// bench_util.h). Scale knobs: ADJ_BENCH_SCALE (bench_util.h).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "persist/snapshot.h"
#include "storage/edge_list_io.h"

namespace adj::bench {
namespace {

constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c)";
constexpr double kMinSpeedup = 10.0;
constexpr double kMaxSizeRatio = 3.0;

int Run() {
  // Default above bench_util's 0.2: the gate needs the cold rebuild
  // well clear of timer noise.
  const double scale = ScaleFromEnv(4.0);
  const std::string edges_path = "bench_persist_edges.txt";
  const std::string snap_path = "bench_persist.adjsnap";
  uint64_t file_bytes = 0;
  uint64_t catalog_bytes = 0;
  uint64_t compressed_levels = 0;

  // Stage 0: author the two on-disk inputs from one WB instance — the
  // text edge list the cold path parses, and the snapshot the warm
  // path maps. A single-server session warms the index cache first so
  // the snapshot carries the query's permuted rows + tries.
  {
    StatusOr<api::Database> db = api::Database::OpenBuiltin("WB", scale);
    ADJ_CHECK(db.ok()) << db.status();
    StatusOr<const storage::Relation*> g = db->catalog().Get("G");
    ADJ_CHECK(g.ok()) << g.status();
    Status saved_edges = storage::SaveEdgeList(**g, edges_path);
    ADJ_CHECK(saved_edges.ok()) << saved_edges;

    api::Session session = db->OpenSession();
    session.options().cluster.num_servers = 1;
    StatusOr<api::PreparedQuery> prepared = session.Prepare(kQuery);
    ADJ_CHECK(prepared.ok()) << prepared.status();
    api::Result r = prepared->Run();
    ADJ_CHECK(r.ok()) << r.status();
    StatusOr<persist::WriteStats> stats =
        persist::SnapshotWriter::Write(db->catalog(), snap_path);
    ADJ_CHECK(stats.ok()) << stats.status();
    file_bytes = stats->file_bytes;
    catalog_bytes = db->catalog().TotalBytes();
    compressed_levels = stats->compressed_levels;
  }

  // Cold restart: parse the edge list, then Prepare — which builds
  // every permuted index from scratch.
  WallTimer cold_load_timer;
  api::Database cold_db;
  Status loaded = cold_db.LoadEdgeList(edges_path);
  ADJ_CHECK(loaded.ok()) << loaded;
  const double cold_load_s = cold_load_timer.Seconds();
  api::Session cold_session = cold_db.OpenSession();
  cold_session.options().cluster.num_servers = 1;
  WallTimer cold_prepare_timer;
  StatusOr<api::PreparedQuery> cold_prepared = cold_session.Prepare(kQuery);
  ADJ_CHECK(cold_prepared.ok()) << cold_prepared.status();
  const double cold_prepare_s = cold_prepare_timer.Seconds();
  api::Result cold = cold_prepared->Run();
  ADJ_CHECK(cold.ok()) << cold.status();
  const double cold_s = cold_load_s + cold_prepare_s;

  // Warm restart: map the snapshot. Open itself is the whole rebuild
  // replacement — relations and tries serve from the mapped file.
  WallTimer open_timer;
  api::Database warm_db;
  Status opened = warm_db.Open(snap_path);
  ADJ_CHECK(opened.ok()) << opened;
  const double open_s = open_timer.Seconds();

  api::Session warm_session = warm_db.OpenSession();
  warm_session.options().cluster.num_servers = 1;
  const uint64_t builds_before = warm_db.catalog().index_cache().stats().builds;
  WallTimer warm_prepare_timer;
  StatusOr<api::PreparedQuery> warm_prepared = warm_session.Prepare(kQuery);
  ADJ_CHECK(warm_prepared.ok()) << warm_prepared.status();
  const double warm_prepare_s = warm_prepare_timer.Seconds();
  const uint64_t prepare_builds =
      warm_db.catalog().index_cache().stats().builds - builds_before;
  api::Result warm = warm_prepared->Run();
  ADJ_CHECK(warm.ok()) << warm.status();

  const double speedup = open_s > 0 ? cold_s / open_s : kMinSpeedup * 10;
  const double size_ratio =
      catalog_bytes > 0 ? static_cast<double>(file_bytes) /
                              static_cast<double>(catalog_bytes)
                        : 0.0;

  std::printf("persist: dataset=WB query=\"%s\"\n", kQuery);
  GateResult result;
  result.Add("scale", scale, "x");
  result.Add("output_count", warm.count(), "count");
  result.Add("cold_load_s", cold_load_s, "s");
  result.Add("cold_prepare_s", cold_prepare_s, "s");
  result.Add("open_s", open_s, "s");
  result.Add("speedup", speedup, "x");
  result.Add("warm_prepare_s", warm_prepare_s, "s");
  result.Add("warm_prepare_builds", prepare_builds, "count");
  result.Add("warm_run_index_builds", warm.index_builds(), "count");
  result.Add("warm_run_index_mmap", warm.index_mmap_loaded(), "count");
  result.Add("file_bytes", file_bytes, "B");
  result.Add("catalog_bytes", catalog_bytes, "B");
  result.Add("size_ratio", size_ratio, "x");
  result.Add("compressed_levels", compressed_levels, "count");
  result.Check(speedup >= kMinSpeedup,
               "warm open speedup >= " + Num(kMinSpeedup) + "x cold rebuild");
  result.Check(prepare_builds == 0, "warm prepare builds 0 indexes");
  result.Check(warm.index_builds() == 0, "warm run builds 0 indexes");
  result.Check(warm.index_mmap_loaded() > 0,
               "warm run reports mmap-loaded indexes");
  result.Check(warm.count() == cold.count(), "warm count == cold count");
  result.Check(size_ratio <= kMaxSizeRatio,
               "snapshot <= " + Num(kMaxSizeRatio) +
                   "x the catalog's bytes (each trie level stored once)");
  result.Check(compressed_levels > 0,
               "snapshot stores a compressed trie level");
  std::remove(edges_path.c_str());
  std::remove(snap_path.c_str());
  return FinishGates("persist", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
