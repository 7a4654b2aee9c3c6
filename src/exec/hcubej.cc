#include "exec/hcubej.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "common/timer.h"
#include "dist/thread_pool.h"
#include "optimizer/share_optimizer.h"

namespace adj::exec {

namespace {

/// Morsels per fan-out thread: enough that a heaviest-first queue
/// evens out the threads' loads, few enough that a morsel's root
/// narrowing and its thread's Leapfrog bind stay cheap beside it.
constexpr uint64_t kMorselsPerThread = 8;

/// A contiguous range of one server's root values, and its outcome.
struct Morsel {
  int server = 0;
  wcoj::RootRange range;
  uint64_t weight = 0;
  Status status;
  uint64_t count = 0;
  wcoj::JoinStats stats;
  double cpu_s = 0.0;
  storage::Relation results;
};

/// How one server's join is cut into morsels: along the root
/// participant (an input whose first level is the root attribute) with
/// the fewest root values, preferring one with a child level. A root
/// value weighs its child-range width there, or 1 when that input is
/// unary — the trie's child offsets are the running weight, so a cut
/// is a binary search, not a scan.
class RootCut {
 public:
  static RootCut Of(const std::vector<wcoj::JoinInput>& inputs, AttrId root) {
    const auto better = [](const storage::Trie* a, const storage::Trie* b) {
      if ((a->arity() > 1) != (b->arity() > 1)) return a->arity() > 1;
      return a->LevelSize(0) < b->LevelSize(0);
    };
    RootCut cut;
    for (const wcoj::JoinInput& in : inputs) {
      if (in.attrs.empty() || in.attrs[0] != root) continue;
      if (cut.trie_ == nullptr || better(in.trie, cut.trie_)) {
        cut.trie_ = in.trie;
      }
    }
    if (cut.trie_ != nullptr && cut.trie_->arity() > 1) {
      cut.kids_ = cut.trie_->ChildBeginSpan(0);
    }
    return cut;
  }

  /// Weight of the whole server (at least 1).
  uint64_t Weight() const { return std::max<uint64_t>(1, Before(Size())); }

  /// Appends the server's morsels: at most `parts` contiguous root
  /// ranges of roughly equal weight, in root-value order. The first
  /// starts at 0 and the last runs to the end of the value domain, so
  /// together they cover every root value.
  void Cut(int server, uint64_t parts, std::vector<Morsel>* out) const {
    const uint32_t n = Size();
    const uint64_t total = Weight();
    uint32_t begin = 0;  // root index the next morsel starts at
    Morsel m;
    m.server = server;
    for (uint64_t j = 1; j < parts && begin + 1 < n; ++j) {
      // The first root index past `begin` whose prefix weight reaches
      // j/parts of the total ends this morsel.
      const uint64_t target = total * j / parts;
      uint32_t a = begin + 1, b = n;
      while (a < b) {
        const uint32_t mid = a + (b - a) / 2;
        if (Before(mid) < target) {
          a = mid + 1;
        } else {
          b = mid;
        }
      }
      if (a == n) break;
      m.range.hi = trie_->ValueAt(0, a);
      m.weight = Before(a) - Before(begin);
      out->push_back(m);
      m.range.lo = m.range.hi;
      begin = a;
    }
    m.range.hi = wcoj::RootRange{}.hi;
    m.weight = total - Before(begin);
    out->push_back(std::move(m));
  }

 private:
  uint32_t Size() const {
    return trie_ == nullptr ? 0 : uint32_t(trie_->LevelSize(0));
  }
  /// Weight of the first `idx` root values.
  uint64_t Before(uint32_t idx) const {
    return kids_.empty() ? idx : kids_[idx] - kids_[0];
  }

  const storage::Trie* trie_ = nullptr;
  std::span<const uint32_t> kids_;
};

}  // namespace

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
    StatusOr<BoundAtom> prepared =
        wcoj::PrepareRelationShared(std::move(*base), atom.schema.attrs(),
                                    rank, db.index_cache(), stats);
    if (!prepared.ok()) return prepared.status();
    bound.push_back(std::move(*prepared));
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

  // One-round shuffle; each input's bound index anchors its shard
  // fragments/tries in the cache, so they are built once and reused by
  // every later shuffle of the same input under the same configuration.
  std::vector<dist::HCubeInput> hinputs;
  hinputs.reserve(bound->size());
  for (const BoundAtom& b : *bound) {
    hinputs.push_back(dist::HCubeInput::Indexed(b.index, b.attrs));
  }
  StatusOr<dist::HCubeResult> shuffle =
      dist::HCubeShuffle(hinputs, share, params.variant, cluster,
                         &db.index_cache(), &index_stats);
  out.report.SetIndexStats(index_stats);
  if (!shuffle.ok()) {
    out.report.status = shuffle.status();
    return out;
  }
  out.report.comm = shuffle->comm;
  out.report.comm_s = shuffle->comm.seconds;
  // Local index construction is computation (Fig. 9's right panel).
  out.report.comp_s += shuffle->build_seconds_max;
  out.report.overhead_s = cluster->config().net.stage_overhead_s;

  // Per-server Leapfrog, cut into morsels: contiguous ranges of one
  // server's root values that any thread may take (see RootCut).
  // Each thread reuses one Leapfrog per server it joins, bound on its
  // first morsel there. Every server is timed in thread CPU time summed
  // over its morsels, so comp_s stays the makespan of the modeled
  // cluster whatever the thread count; results land in per-morsel slots
  // merged in (server, morsel) order, so counts, per-level stats and
  // collected output do not depend on it either. HCubeJ+Cache servers
  // stay one morsel each: their IntersectionCache is not thread-safe.
  const bool collect = params.collect_output;
  const storage::Schema out_schema(
      std::vector<AttrId>(order.begin(), order.end()));
  if (collect) out.results = storage::Relation(out_schema);
  struct ServerJoin {
    std::vector<wcoj::JoinInput> inputs;
    std::unique_ptr<wcoj::IntersectionCache> cache;
    std::atomic<uint64_t> extensions{0};  // of this server's finished morsels
  };
  // Sized once: each Leapfrog borrows its server's inputs by address.
  const int num_servers = cluster->num_servers();
  std::vector<ServerJoin> servers(static_cast<size_t>(num_servers));
  std::vector<int> active;
  for (int s = 0; s < num_servers; ++s) {
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
    active.push_back(s);
  }
  int threads = params.worker_threads;
  if (threads <= 0) {
    threads = params.use_cache ? dist::FanOutThreads(active.size())
                               : dist::FanOutThreads();
  }
  std::vector<Morsel> morsels;
  {
    // A server's share of the morsels follows its share of the weight.
    std::vector<RootCut> cuts;
    uint64_t total_weight = 0;
    for (const int s : active) {
      cuts.push_back(RootCut::Of(servers[size_t(s)].inputs, order[0]));
      total_weight += cuts.back().Weight();
    }
    const uint64_t total_morsels =
        threads > 1 && !params.use_cache
            ? kMorselsPerThread * uint64_t(threads)
            : 0;  // each server whole
    for (size_t k = 0; k < active.size(); ++k) {
      const uint64_t share = total_morsels * cuts[k].Weight();
      cuts[k].Cut(active[k], (share + total_weight - 1) / total_weight,
                  &morsels);
    }
  }
  threads = int(std::min<size_t>(size_t(threads), morsels.size()));
  for (Morsel& m : morsels) {
    m.stats.tuples_at_level.assign(order.size(), 0);
    if (collect) m.results = storage::Relation(out_schema);
  }
  // Heaviest first, so the last morsels a thread takes are light ones.
  std::vector<size_t> queue(morsels.size());
  std::iota(queue.begin(), queue.end(), size_t{0});
  std::stable_sort(queue.begin(), queue.end(), [&](size_t a, size_t b) {
    return morsels[a].weight > morsels[b].weight;
  });
  // leapfrogs[w * servers + s]: thread w's Leapfrog for server s.
  std::vector<std::optional<wcoj::Leapfrog>> leapfrogs(size_t(threads) *
                                                       servers.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  const WallTimer join_timer;
  std::vector<std::function<void()>> tasks;
  for (int w = 0; w < threads; ++w) {
    tasks.push_back([&, w] {
      for (size_t i = next.fetch_add(1); i < queue.size();
           i = next.fetch_add(1)) {
        // A failed morsel fails the run: skip the rest.
        if (failed) return;
        Morsel& m = morsels[queue[i]];
        ServerJoin& server = servers[size_t(m.server)];
        std::optional<wcoj::Leapfrog>& leapfrog =
            leapfrogs[size_t(w) * servers.size() + size_t(m.server)];
        if (!leapfrog.has_value()) {
          StatusOr<wcoj::Leapfrog> bound = wcoj::Leapfrog::Bind(
              server.inputs, order, params.limits, server.cache.get());
          if (!bound.ok()) {
            m.status = bound.status();
            failed = true;
            return;
          }
          leapfrog = std::move(*bound);
        }
        // The server's limits, less what its finished morsels spent:
        // a morsel trips once the server's remaining budget is gone.
        wcoj::JoinLimits limits = params.limits;
        limits.max_extensions -=
            std::min(server.extensions.load(), limits.max_extensions);
        limits.max_seconds -= join_timer.Seconds();
        wcoj::EmitFn emit;
        if (collect) {
          emit = [&m](std::span<const Value> tuple) {
            m.results.Append(tuple);
          };
        }
        const ThreadCpuTimer cpu;
        StatusOr<uint64_t> count = leapfrog->Run(collect ? &emit : nullptr,
                                                 &m.stats, m.range, limits);
        m.cpu_s = cpu.Seconds();
        server.extensions += m.stats.extensions;
        if (count.ok()) {
          m.count = *count;
        } else {
          m.status = count.status();
          failed = true;
        }
      }
    });
  }
  dist::RunTasks(threads, tasks);

  std::vector<double> server_cpu_s(servers.size(), 0.0);
  wcoj::JoinStats all_stats;
  uint64_t total = 0;
  for (const Morsel& m : morsels) {
    if (!m.status.ok()) {
      out.report.status = m.status;
      return out;
    }
  }
  for (const int s : active) {
    // Morsels that each stayed inside their share of the budget can
    // still sum past it.
    if (servers[size_t(s)].extensions.load() > params.limits.max_extensions) {
      out.report.status =
          Status::ResourceExhausted("join exceeded extension budget");
      return out;
    }
  }
  for (const Morsel& m : morsels) {
    total += m.count;
    server_cpu_s[size_t(m.server)] += m.cpu_s;
    all_stats.Merge(m.stats);
    if (collect) {
      for (uint64_t r = 0; r < m.results.size(); ++r) {
        out.results.Append(m.results.Row(r));
      }
    }
  }
  const double max_join_s =
      server_cpu_s.empty()
          ? 0.0
          : *std::max_element(server_cpu_s.begin(), server_cpu_s.end());
  out.report.comp_s += max_join_s;
  out.report.output_count = total;
  out.report.tuples_at_level = all_stats.tuples_at_level;
  out.report.extensions = all_stats.extensions;
  out.report.simd_intersections = all_stats.simd_intersections;
  out.report.scalar_fallbacks = all_stats.scalar_fallbacks;
  out.report.blocks_decoded = all_stats.blocks_decoded;
  {
    // Resident compressed footprint of the distinct tries the servers
    // joined (atoms of one column order share one trie — count it
    // once).
    std::set<const storage::Trie*> seen;
    for (const int s : active) {
      for (const auto& trie : cluster->shard(s).tries) {
        if (seen.insert(trie.get()).second) {
          out.report.compressed_bytes += trie->CompressedBytes();
        }
      }
    }
  }
  return out;
}

}  // namespace adj::exec
