// Compressed-trie smoke: what block-compressed index storage buys and
// what it costs, end to end on the WB builtin. Two databases over the
// same dataset — one with IndexCache trie compression disabled (raw
// baseline), one with the default-on compression — prepare and run the
// same triangle query. Gates, each a hard failure for CI's Release
// leg:
//
//   1. Size — the trie bytes resident in the compressed cache must be
//      <= 0.6x the raw cache's trie bytes (the block codec must
//      actually earn its keep on a real skewed graph), and the
//      compressed run must report nonzero compressed_bytes /
//      blocks_decoded while the raw run reports zero.
//   2. Speed — the warm prepared run over compressed tries must stay
//      within 1.15x of the raw-trie run: intersecting directly on
//      compressed runs (skip-table galloping + per-block decode into
//      executor scratch) is allowed to cost a little, not a lot.
//   3. Answers agree.
//
// Records its numbers in BENCH_compressed.json (FinishGates,
// bench_util.h). Scale knob: ADJ_BENCH_SCALE (bench_util.h).
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "storage/trie.h"

namespace adj::bench {
namespace {

constexpr char kQuery[] = "G(a,b) G(b,c) G(a,c)";
constexpr double kMaxTrieByteRatio = 0.6;  // compressed / raw
constexpr double kMaxRunRatio = 1.15;      // compressed / raw, warm

/// Total resident bytes of the distinct tries in a catalog's index
/// cache (payloads can share a trie; count each once).
uint64_t TrieResidentBytes(const storage::Catalog& catalog) {
  uint64_t bytes = 0;
  std::set<const storage::Trie*> seen;
  for (const storage::IndexCache::ExportedPayload& p :
       catalog.index_cache().ExportPermutedIndexes()) {
    if (p.trie != nullptr && seen.insert(p.trie.get()).second) {
      bytes += p.trie->ResidentBytes();
    }
  }
  return bytes;
}

struct PreparedRun {
  api::Database db;
  std::unique_ptr<api::Session> session;
  std::unique_ptr<api::PreparedQuery> prepared;
  double best_run_s = 0.0;
  uint64_t count = 0;
  uint64_t compressed_bytes = 0;
  uint64_t blocks_decoded = 0;
};

/// Opens WB, prepares the triangle with trie compression on or off,
/// and times the best-of-5 warm prepared run.
PreparedRun Prepare(double scale, bool compress) {
  PreparedRun out;
  StatusOr<api::Database> db = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(db.ok()) << db.status();
  out.db = std::move(*db);
  out.db.catalog().index_cache().set_compress_tries(compress);
  out.session = std::make_unique<api::Session>(out.db.OpenSession());
  out.session->options().cluster.num_servers = 1;
  StatusOr<api::PreparedQuery> prepared = out.session->Prepare(kQuery);
  ADJ_CHECK(prepared.ok()) << prepared.status();
  out.prepared = std::make_unique<api::PreparedQuery>(std::move(*prepared));

  for (int r = 0; r < 5; ++r) {
    WallTimer t;
    api::Result res = out.prepared->Run();
    const double s = t.Seconds();
    ADJ_CHECK(res.ok()) << res.status();
    if (r == 0 || s < out.best_run_s) out.best_run_s = s;
    out.count = res.count();
    out.compressed_bytes = res.compressed_bytes();
    out.blocks_decoded = res.blocks_decoded();
  }
  return out;
}

int Run() {
  // Default above bench_util's 0.2: the 1.15x run gate needs the join
  // well clear of timer noise, and the 0.6x size gate needs levels
  // past the compressor's min-size threshold.
  const double scale = ScaleFromEnv(4.0);

  PreparedRun raw = Prepare(scale, /*compress=*/false);
  PreparedRun comp = Prepare(scale, /*compress=*/true);

  const uint64_t raw_trie_bytes = TrieResidentBytes(raw.db.catalog());
  const uint64_t comp_trie_bytes = TrieResidentBytes(comp.db.catalog());
  const double byte_ratio =
      raw_trie_bytes > 0
          ? static_cast<double>(comp_trie_bytes) / raw_trie_bytes
          : 1.0;
  const double run_ratio =
      raw.best_run_s > 0 ? comp.best_run_s / raw.best_run_s : 1.0;

  std::printf("compressed: dataset=WB query=\"%s\"\n", kQuery);
  GateResult result;
  result.Add("scale", scale, "x");
  result.Add("output_count", comp.count, "count");
  result.Add("raw_trie_bytes", raw_trie_bytes, "B");
  result.Add("compressed_trie_bytes", comp_trie_bytes, "B");
  result.Add("trie_byte_ratio", byte_ratio, "x");
  result.Add("raw_run_s", raw.best_run_s, "s");
  result.Add("compressed_run_s", comp.best_run_s, "s");
  result.Add("run_ratio", run_ratio, "x");
  result.Add("compressed_bytes_reported", comp.compressed_bytes, "B");
  result.Add("blocks_decoded", comp.blocks_decoded, "count");
  result.Check(byte_ratio <= kMaxTrieByteRatio,
               "compressed trie bytes <= " + Num(kMaxTrieByteRatio) +
                   "x raw");
  result.Check(run_ratio <= kMaxRunRatio,
               "compressed warm run <= " + Num(kMaxRunRatio) + "x raw");
  result.Check(comp.count == raw.count, "compressed count == raw count");
  result.Check(comp.compressed_bytes > 0 && comp.blocks_decoded > 0,
               "compressed run reports nonzero bytes and blocks decoded");
  result.Check(raw.compressed_bytes == 0 && raw.blocks_decoded == 0,
               "raw run reports zero compressed bytes and blocks decoded");
  return FinishGates("compressed", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
