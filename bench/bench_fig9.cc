// Reproduces Fig. 9: the three HCube implementations (Push / Pull /
// Merge) compared on communication cost and computation (local index
// construction) cost, on Q2 over every dataset.
#include "bench/bench_util.h"
#include "common/logging.h"
#include "dist/hcube.h"
#include "exec/hcubej.h"

namespace adj::bench {
namespace {

void Run() {
  DatasetCache data(ScaleFromEnv());
  const int servers = ServersFromEnv();
  auto q = query::MakeBenchmarkQuery(2);
  ADJ_CHECK(q.ok());
  query::AttributeOrder order;
  for (int a = 0; a < q->num_attrs(); ++a) order.push_back(a);

  PrintHeader("Fig 9(a): HCube communication seconds (Q2)");
  std::printf("%-5s %12s %12s %12s\n", "data", "Push", "Pull", "Merge");
  struct Row {
    double comm[3];
    double comp[3];
  };
  std::vector<Row> rows;
  for (const std::string& name : AllDatasets()) {
    const storage::Catalog& db = data.Get(name);
    Row row{};
    const dist::HCubeVariant variants[3] = {dist::HCubeVariant::kPush,
                                            dist::HCubeVariant::kPull,
                                            dist::HCubeVariant::kMerge};
    for (int v = 0; v < 3; ++v) {
      dist::ClusterConfig cfg;
      cfg.num_servers = servers;
      dist::Cluster cluster(cfg);
      exec::HCubeJParams params;
      params.variant = variants[v];
      auto bound = exec::BindAtomsForOrder(*q, db, order);
      ADJ_CHECK(bound.ok());
      std::vector<dist::HCubeInput> inputs;
      for (const auto& b : *bound) {
        inputs.push_back(dist::HCubeInput::Plain(&b.rel(), b.attrs));
      }
      // Shares: same for all variants so only the implementation varies.
      dist::ShareVector share;
      share.p.assign(size_t(q->num_attrs()), 1);
      share.p[0] = 2;
      share.p[1] = 2;
      auto result = dist::HCubeShuffle(inputs, share, variants[v], &cluster);
      ADJ_CHECK(result.ok()) << result.status();
      row.comm[v] = result->comm.seconds;
      row.comp[v] = result->build_seconds_max;
    }
    rows.push_back(row);
    std::printf("%-5s %12s %12s %12s\n", name.c_str(), Num(row.comm[0]).c_str(),
                Num(row.comm[1]).c_str(), Num(row.comm[2]).c_str());
  }

  PrintHeader("Fig 9(b): HCube computation seconds — local index build (Q2)");
  std::printf("%-5s %12s %12s %12s\n", "data", "Push", "Pull", "Merge");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-5s %12s %12s %12s\n", AllDatasets()[i].c_str(),
                Num(rows[i].comp[0]).c_str(), Num(rows[i].comp[1]).c_str(),
                Num(rows[i].comp[2]).c_str());
  }
  std::printf(
      "\nExpected shape (paper): Pull/Merge shuffle 1-2 orders of magnitude "
      "cheaper than Push; Merge builds local tries fastest.\n");
}

}  // namespace
}  // namespace adj::bench

int main() {
  adj::SetLogLevel(adj::LogLevel::kWarning);
  adj::bench::Run();
  return 0;
}
