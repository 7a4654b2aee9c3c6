#include "exec/hcubej.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "common/timer.h"
#include "dist/thread_pool.h"
#include "optimizer/share_optimizer.h"

namespace adj::exec {

StatusOr<std::vector<BoundAtom>> BindAtomsForOrder(
    const query::Query& q, const storage::Catalog& db,
    const query::AttributeOrder& order, storage::IndexBuildStats* stats) {
  const std::vector<int> rank = query::RankOf(order, q.num_attrs());
  std::vector<BoundAtom> bound;
  bound.reserve(q.num_atoms());
  for (const query::Atom& atom : q.atoms()) {
    StatusOr<std::shared_ptr<const storage::Relation>> base =
        db.GetShared(atom.relation);
    if (!base.ok()) return base.status();
    if ((*base)->arity() != atom.schema.arity()) {
      return Status::InvalidArgument("atom arity mismatch for relation " +
                                     atom.relation);
    }
    for (AttrId a : atom.schema.attrs()) {
      if (a >= q.num_attrs() || rank[a] < 0) {
        return Status::InvalidArgument(
            "attribute order does not cover all query attributes");
      }
    }
    StatusOr<wcoj::SharedPreparedRelation> prepared =
        wcoj::PrepareRelationShared(std::move(*base), atom.schema.attrs(),
                                    rank, db.index_cache(), stats);
    if (!prepared.ok()) return prepared.status();
    BoundAtom b;
    b.index = std::move(prepared->index);
    b.attrs = std::move(prepared->attrs);
    bound.push_back(std::move(b));
  }
  return bound;
}

StatusOr<dist::ShareVector> OptimalShares(
    const query::Query& q, const std::vector<BoundAtom>& bound,
    const dist::ClusterConfig& config) {
  std::vector<optimizer::ShareInput> inputs;
  for (size_t i = 0; i < bound.size(); ++i) {
    optimizer::ShareInput in;
    in.schema = q.atom(int(i)).schema.Mask();
    in.tuples = bound[i].rel().size();
    in.bytes = bound[i].rel().SizeBytes();
    inputs.push_back(in);
  }
  return optimizer::OptimizeShares(inputs, q.num_attrs(), config);
}

StatusOr<HCubeJOutput> RunHCubeJ(const query::Query& q,
                                 const storage::Catalog& db,
                                 const query::AttributeOrder& order,
                                 const HCubeJParams& params,
                                 dist::Cluster* cluster) {
  HCubeJOutput out;
  out.report.method = params.use_cache ? "HCubeJ+Cache" : "HCubeJ";
  out.report.rounds = 1;

  storage::IndexBuildStats index_stats;
  StatusOr<std::vector<BoundAtom>> bound =
      BindAtomsForOrder(q, db, order, &index_stats);
  if (!bound.ok()) return bound.status();

  // Shares: use the provided vector or solve Eq. (3).
  dist::ShareVector share = params.share;
  if (share.p.empty()) {
    StatusOr<dist::ShareVector> opt =
        OptimalShares(q, *bound, cluster->config());
    if (!opt.ok()) return opt.status();
    share = std::move(opt.value());
  }
  out.share_used = share;

  // One-round shuffle; each input's bound index doubles as the cache
  // pin so shard fragments/tries are built once and reused by every
  // later shuffle of the same input under the same configuration.
  std::vector<dist::HCubeInput> hinputs;
  hinputs.reserve(bound->size());
  for (const BoundAtom& b : *bound) {
    dist::HCubeInput in;
    in.rel = &b.rel();
    in.attrs = b.attrs;
    in.pin = b.index;
    in.shared_rel = b.index->rel;
    in.trie = b.index->trie;
    hinputs.push_back(std::move(in));
  }
  StatusOr<dist::HCubeResult> shuffle =
      dist::HCubeShuffle(hinputs, share, params.variant, cluster,
                         &db.index_cache(), &index_stats);
  out.report.index_builds = index_stats.builds;
  out.report.index_reused = index_stats.hits;
  out.report.index_mmap = index_stats.mmap_hits;
  out.report.index_patched = index_stats.patched;
  out.report.delta_rows_merged = index_stats.delta_rows_merged;
  if (!shuffle.ok()) {
    out.report.status = shuffle.status();
    return out;
  }
  out.report.comm = shuffle->comm;
  out.report.comm_s = shuffle->comm.seconds;
  // Local index construction is computation (Fig. 9's right panel).
  out.report.comp_s += shuffle->build_seconds_max;
  out.report.overhead_s = cluster->config().net.stage_overhead_s;

  // Per-server Leapfrog, one server per task. Every server's Leapfrog
  // (and its HCubeJ+Cache intersection cache) is bound here, on the
  // calling thread, so the workers only run joins and their threads
  // grow no malloc arenas of their own. Each server is timed in its
  // thread's CPU time, so comp_s stays the makespan of the modeled
  // cluster whatever the thread count; results land in per-server
  // slots merged in server order, so counts, per-level stats and
  // collected output do not depend on it either.
  const bool collect = params.collect_output;
  const storage::Schema out_schema(
      std::vector<AttrId>(order.begin(), order.end()));
  if (collect) out.results = storage::Relation(out_schema);
  struct ServerJoin {
    std::vector<wcoj::JoinInput> inputs;
    std::unique_ptr<wcoj::IntersectionCache> cache;
    wcoj::Leapfrog leapfrog;
    Status status;
    uint64_t count = 0;
    wcoj::JoinStats stats;
    double cpu_s = 0.0;
    storage::Relation results;
    wcoj::EmitFn emit;
  };
  // Sized once: each Leapfrog borrows its slot's inputs by address.
  std::vector<ServerJoin> servers(size_t(cluster->num_servers()));
  std::vector<std::function<void()>> tasks;
  for (int s = 0; s < cluster->num_servers(); ++s) {
    ServerJoin& slot = servers[size_t(s)];
    const dist::LocalShard& shard = cluster->shard(s);
    bool any_empty = false;
    for (size_t a = 0; a < shard.tries.size(); ++a) {
      if (shard.tries[a]->empty()) any_empty = true;
      slot.inputs.push_back(
          wcoj::JoinInput{shard.tries[a].get(), shard.attrs[a]});
    }
    if (any_empty) continue;  // this hypercube produces nothing
    if (params.use_cache) {
      // Cache capacity = memory HCube storage left unused, split into
      // cached values (vals + idxs at sizeof(Value) each).
      const uint64_t mem = cluster->config().memory_per_server_bytes;
      const uint64_t free_bytes =
          shard.resident_bytes >= mem ? 0 : mem - shard.resident_bytes;
      slot.cache = std::make_unique<wcoj::IntersectionCache>(
          free_bytes / sizeof(Value));
    }
    StatusOr<wcoj::Leapfrog> leapfrog = wcoj::Leapfrog::Bind(
        slot.inputs, order, params.limits, slot.cache.get());
    if (!leapfrog.ok()) {
      slot.status = leapfrog.status();
      continue;
    }
    slot.leapfrog = std::move(*leapfrog);
    slot.stats.tuples_at_level.assign(order.size(), 0);
    if (collect) {
      slot.results = storage::Relation(out_schema);
      slot.emit = [&slot](std::span<const Value> tuple) {
        slot.results.Append(tuple);
      };
    }
    tasks.push_back([&slot, collect] {
      const ThreadCpuTimer cpu;
      StatusOr<uint64_t> count =
          slot.leapfrog.Run(collect ? &slot.emit : nullptr, &slot.stats);
      slot.cpu_s = cpu.Seconds();
      if (count.ok()) {
        slot.count = *count;
      } else {
        slot.status = count.status();
      }
    });
  }
  const int threads = params.worker_threads > 0
                          ? params.worker_threads
                          : dist::FanOutThreads(tasks.size());
  dist::RunTasks(threads, tasks);

  double max_join_s = 0.0;
  wcoj::JoinStats all_stats;
  uint64_t total = 0;
  for (ServerJoin& slot : servers) {
    if (!slot.status.ok()) {
      out.report.status = slot.status;
      return out;
    }
    total += slot.count;
    max_join_s = std::max(max_join_s, slot.cpu_s);
    all_stats.Merge(slot.stats);
    if (collect) {
      for (uint64_t r = 0; r < slot.results.size(); ++r) {
        out.results.Append(slot.results.Row(r));
      }
    }
  }
  out.report.comp_s += max_join_s;
  out.report.output_count = total;
  out.report.tuples_at_level = all_stats.tuples_at_level;
  out.report.extensions = all_stats.extensions;
  out.report.simd_intersections = all_stats.simd_intersections;
  out.report.scalar_fallbacks = all_stats.scalar_fallbacks;
  out.report.blocks_decoded = all_stats.blocks_decoded;
  {
    // Resident compressed footprint of the distinct indexes this run
    // bound (labeled binds alias one trie — count it once).
    std::set<const storage::Trie*> seen;
    for (const BoundAtom& b : *bound) {
      const storage::Trie* trie = b.index->trie.get();
      if (trie != nullptr && seen.insert(trie).second) {
        out.report.compressed_bytes += trie->CompressedBytes();
      }
    }
  }
  return out;
}

}  // namespace adj::exec
