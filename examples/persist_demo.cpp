// persist_demo: the warm-restart lifecycle end to end — build a
// database, warm its index cache with a prepared query, Save() a
// snapshot, reopen it in a fresh Database, and answer the same query
// with every index mmap-loaded from the file (zero builds).
//
//   $ ./build/examples/persist_demo [snapshot-path]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "api/api.h"
#include "common/timer.h"

namespace {

int Fail(const char* what, const adj::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adj;
  const std::string path =
      argc > 1 ? argv[1] : "persist_demo.adjsnap";
  const char* kTriangle = "G(a,b) G(b,c) G(a,c)";

  // 1. Build: a builtin dataset, a single-server session, and one
  //    prepared query — preparing pins the permuted rows + tries in
  //    the catalog's index cache, which is exactly what Save()
  //    persists alongside the relations.
  api::Database db;
  Status loaded = db.LoadBuiltin("AS", 0.3);
  if (!loaded.ok()) return Fail("load", loaded);

  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 300;
  StatusOr<api::PreparedQuery> prepared = session.Prepare(kTriangle);
  if (!prepared.ok()) return Fail("prepare", prepared.status());
  api::Result before = prepared->Run();
  if (!before.ok()) return Fail("run (before save)", before.status());
  std::printf("in-memory:  %s\n", before.ToString().c_str());

  // 2. Save: relations + every resident index artifact, raw
  //    (mmap-able) and compressed, checksummed, written atomically.
  Status saved = db.Save(path);
  if (!saved.ok()) return Fail("save", saved);
  std::printf("saved snapshot: %s\n", path.c_str());

  // 3. Reopen into a *fresh* Database — this is the restarted
  //    process. Open maps the file; relations and tries view the
  //    mapped bytes in place, so there is nothing to parse or build.
  WallTimer open_timer;
  api::Database restarted;
  Status opened = restarted.Open(path);
  if (!opened.ok()) return Fail("open", opened);
  std::printf("reopened in %.3fs (%zu relations)\n", open_timer.Seconds(),
              restarted.relation_names().size());

  // 4. The same prepared query, warm from byte one: the deterministic
  //    planner picks the same permutations, so every binding resolves
  //    to an mmap-loaded index. The run must build nothing.
  api::Session warm = restarted.OpenSession();
  warm.options().cluster.num_servers = 1;
  warm.options().num_samples = 300;
  StatusOr<api::PreparedQuery> reprepared = warm.Prepare(kTriangle);
  if (!reprepared.ok()) return Fail("prepare (warm)", reprepared.status());
  api::Result after = reprepared->Run();
  if (!after.ok()) return Fail("run (after open)", after.status());
  std::printf("warm-open:  %s\n", after.ToString().c_str());

  // The smoke assertions CI relies on: identical answers, zero index
  // builds on the warm run, and mmap provenance actually reported.
  if (after.count() != before.count()) {
    std::fprintf(stderr, "FAIL: warm count %llu != in-memory count %llu\n",
                 static_cast<unsigned long long>(after.count()),
                 static_cast<unsigned long long>(before.count()));
    return 1;
  }
  if (after.index_builds() != 0) {
    std::fprintf(stderr, "FAIL: warm run built %llu indexes (want 0)\n",
                 static_cast<unsigned long long>(after.index_builds()));
    return 1;
  }
  if (after.index_mmap_loaded() == 0) {
    std::fprintf(stderr, "FAIL: warm run reported no mmap-loaded indexes\n");
    return 1;
  }
  std::printf(
      "warm run: count matches, %llu bindings served mmap-loaded, "
      "0 indexes built\n",
      static_cast<unsigned long long>(after.index_mmap_loaded()));
  std::remove(path.c_str());
  return 0;
}
