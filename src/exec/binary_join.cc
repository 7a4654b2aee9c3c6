#include "exec/binary_join.h"

#include <algorithm>

#include "common/timer.h"
#include "wcoj/leapfrog.h"
#include "wcoj/naive_join.h"

namespace adj::exec {
namespace {

/// Binds an atom with columns normalized to ascending attribute ids,
/// borrowing the sorted relation from the shared index layer. Hash
/// joins never touch a trie, so the bind resolves the trie-less
/// artifact — sharing its row payload with trie-backed binds of the
/// same column order without ever paying for a trie build.
StatusOr<std::shared_ptr<const storage::Relation>> BindAtom(
    const query::Atom& atom, const storage::Catalog& db,
    const std::vector<int>& ascending_rank,
    storage::IndexBuildStats* stats) {
  StatusOr<std::shared_ptr<const storage::Relation>> base =
      db.GetShared(atom.relation);
  if (!base.ok()) return base.status();
  return wcoj::PrepareRelationRowsShared(std::move(*base), atom.schema.attrs(),
                                         ascending_rank, db.index_cache(),
                                         stats);
}

}  // namespace

StatusOr<RunReport> RunBinaryJoin(const query::Query& q,
                                  const storage::Catalog& db,
                                  dist::Cluster* cluster,
                                  const wcoj::JoinLimits& limits) {
  RunReport report;
  report.method = "SparkSQL";
  const dist::NetworkModel& net = cluster->config().net;
  const int n_servers = cluster->num_servers();
  WallTimer deadline;

  // Bind all atoms through the shared index layer.
  const std::vector<int> ascending_rank =
      wcoj::AscendingRank(q.num_attrs());
  storage::IndexBuildStats bind_stats;
  std::vector<const storage::Relation*> rels;
  std::vector<std::shared_ptr<const storage::Relation>> bound;
  for (const query::Atom& atom : q.atoms()) {
    StatusOr<std::shared_ptr<const storage::Relation>> rel =
        BindAtom(atom, db, ascending_rank, &bind_stats);
    if (!rel.ok()) return rel.status();
    bound.push_back(std::move(rel.value()));
    rels.push_back(bound.back().get());
  }
  report.SetIndexStats(bind_stats);

  // Greedy join order: start from the smallest relation, repeatedly
  // join the smallest relation sharing an attribute with the current
  // intermediate (classic System-R-style left-deep heuristic).
  std::vector<bool> used(rels.size(), false);
  size_t first = 0;
  for (size_t i = 1; i < rels.size(); ++i) {
    if (rels[i]->size() < rels[first]->size()) first = i;
  }
  used[first] = true;
  storage::Relation acc = *rels[first];
  report.rounds = 0;

  auto shared_attr = [&](const storage::Relation& r) {
    for (AttrId a : r.schema().attrs()) {
      if (acc.schema().Contains(a)) return true;
    }
    return false;
  };

  for (size_t step = 1; step < rels.size(); ++step) {
    int next = -1;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (used[i] || !shared_attr(*rels[i])) continue;
      if (next < 0 || rels[i]->size() < rels[size_t(next)]->size()) {
        next = int(i);
      }
    }
    if (next < 0) {
      // Disconnected query (not in the paper's workloads): fall back
      // to any unused atom (cartesian round).
      for (size_t i = 0; i < rels.size(); ++i) {
        if (!used[i]) {
          next = int(i);
          break;
        }
      }
    }
    used[size_t(next)] = true;

    // Round accounting: repartition both sides on the join key.
    const uint64_t copies = acc.size() + rels[size_t(next)]->size();
    const uint64_t bytes = acc.SizeBytes() + rels[size_t(next)]->SizeBytes();
    report.comm.tuple_copies += copies;
    report.comm.bytes += bytes;
    report.comm_s += dist::PushSeconds(net, copies, bytes, n_servers);
    report.overhead_s += net.stage_overhead_s;
    ++report.rounds;

    // Memory: the build side is replicated per join task; the
    // intermediate must fit the cluster.
    const uint64_t cluster_mem =
        uint64_t(n_servers) * cluster->config().memory_per_server_bytes;
    if (acc.SizeBytes() + rels[size_t(next)]->SizeBytes() > cluster_mem) {
      report.status = Status::ResourceExhausted(
          "binary join intermediate exceeds cluster memory");
      return report;
    }

    WallTimer join_timer;
    StatusOr<storage::Relation> joined =
        wcoj::HashJoin(acc, *rels[size_t(next)], limits.max_materialized_rows);
    if (!joined.ok()) {
      report.status = joined.status();
      return report;
    }
    // Ideal even partitioning: local join work divides across servers.
    report.comp_s += join_timer.Seconds() / n_servers;
    acc = std::move(joined.value());
    report.tuples_at_level.push_back(acc.size());

    if (deadline.Seconds() > limits.max_seconds) {
      report.status =
          Status::DeadlineExceeded("binary join exceeded time budget");
      return report;
    }
  }
  report.output_count = acc.size();
  return report;
}

}  // namespace adj::exec
