#include "dist/hcube.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/timer.h"
#include "storage/write_batch.h"

namespace adj::dist {
namespace {

/// Per-input routing plan: how each column's value fixes a cube
/// coordinate, and which coordinates stay free (duplication dims).
struct RoutePlan {
  /// (attr, share, stride) per bound column.
  struct BoundDim {
    AttrId attr;
    uint32_t share;
    uint64_t stride;
  };
  std::vector<BoundDim> bound;
  /// (share, stride) per unbound attribute with share > 1; attributes
  /// with share 1 contribute coordinate 0 and are skipped.
  std::vector<std::pair<uint32_t, uint64_t>> free_dims;
};

/// Simulates Push's arrival order: the interleaved record stream a
/// receiver collects is not sorted, so its local build must sort.
storage::Relation ScrambleRows(const storage::Relation& rel, uint64_t seed) {
  std::vector<uint64_t> idx(rel.size());
  std::iota(idx.begin(), idx.end(), uint64_t{0});
  Rng rng(seed);
  for (uint64_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.Uniform(i)]);
  }
  storage::Relation out(rel.schema());
  out.Reserve(rel.size());
  for (uint64_t i : idx) out.Append(rel.Row(i));
  return out;
}

/// Routes one relation to its destination servers. A tuple lands on
/// DupCubes(R, p) cubes; cubes collapse onto servers round-robin, and
/// a tuple is shipped at most once per server.
std::vector<storage::Relation> RouteInput(const storage::Relation& rel,
                                          const RoutePlan& plan,
                                          int num_servers) {
  std::vector<storage::Relation> blocks(size_t(num_servers),
                                        storage::Relation(rel.schema()));
  std::vector<uint64_t> seen(size_t(num_servers), 0);
  uint64_t tuple_stamp = 0;
  std::vector<uint32_t> coord(plan.free_dims.size());
  for (uint64_t row = 0; row < rel.size(); ++row) {
    const std::span<const Value> tuple = rel.Row(row);
    uint64_t base = 0;
    for (size_t c = 0; c < plan.bound.size(); ++c) {
      const RoutePlan::BoundDim& dim = plan.bound[c];
      base += uint64_t(AttributeHash(dim.attr, tuple[c], dim.share)) *
              dim.stride;
    }
    ++tuple_stamp;
    // Odometer over the free coordinates.
    std::fill(coord.begin(), coord.end(), 0u);
    while (true) {
      uint64_t cube = base;
      for (size_t d = 0; d < coord.size(); ++d) {
        cube += uint64_t(coord[d]) * plan.free_dims[d].second;
      }
      const size_t server = size_t(cube % uint64_t(num_servers));
      if (seen[server] != tuple_stamp) {
        seen[server] = tuple_stamp;
        blocks[server].Append(tuple);
      }
      size_t d = 0;
      for (; d < coord.size(); ++d) {
        if (++coord[d] < plan.free_dims[d].first) break;
        coord[d] = 0;
      }
      if (d == coord.size()) break;
    }
  }
  return blocks;
}

/// Routes, canonicalizes, and index-builds one input end to end —
/// the expensive per-input work an IndexCache hit skips entirely.
/// `build_seconds` (size num_servers) receives each receiver's timed
/// local build work for this input.
ShardedRelation BuildSharded(const storage::Relation& rel,
                             const RoutePlan& plan, int num_servers,
                             HCubeVariant variant, size_t input_index,
                             std::vector<double>* build_seconds) {
  std::vector<storage::Relation> blocks = RouteInput(rel, plan, num_servers);
  ShardedRelation sharded;
  sharded.per_server.resize(size_t(num_servers));
  for (int s = 0; s < num_servers; ++s) {
    storage::Relation block = std::move(blocks[size_t(s)]);
    // RouteInput keeps the input's row order, so a canonical input's
    // blocks arrive sorted: the check is the Pull receiver's verify
    // pass, and only a non-canonical input pays a sort. A cached block
    // is resident for as long as its plan lives, so it drops the
    // slack routing appended it with either way.
    WallTimer verify;
    const bool sorted = block.IsSortedUnique();
    const double verify_s = verify.Seconds();
    if (sorted) {
      block.mutable_raw().shrink_to_fit();
    } else {
      block.SortAndDedup();
    }
    ShardedRelation::Fragment& frag = sharded.per_server[size_t(s)];
    storage::Trie trie;
    if (!block.empty()) {
      switch (variant) {
        case HCubeVariant::kPush: {
          // Records arrive interleaved: sort + dedup + build, timed.
          storage::Relation arrival =
              ScrambleRows(block, uint64_t(s) * 131 + input_index + 1);
          WallTimer timer;
          arrival.SortAndDedup();
          trie = storage::Trie::Build(arrival);
          (*build_seconds)[size_t(s)] += timer.Seconds();
          break;
        }
        case HCubeVariant::kPull: {
          // Sorted blocks: verify order + build, no sort.
          WallTimer timer;
          trie = storage::Trie::Build(block);
          (*build_seconds)[size_t(s)] += verify_s + timer.Seconds();
          break;
        }
        case HCubeVariant::kMerge: {
          // Tries ship pre-built; the receiver adopts the arrays and
          // does no local build work (the sender-side build below is
          // not charged to the receiver's makespan).
          trie = storage::Trie::Build(block);
          break;
        }
      }
    }
    frag.block = std::make_shared<const storage::Relation>(std::move(block));
    frag.trie = std::make_shared<const storage::Trie>(std::move(trie));
  }
  return sharded;
}

/// The post-write form of BuildSharded: the fragments of the same
/// input under the same spec, one relation version earlier, moved
/// forward by the net delta (rows in the input's column order). Only
/// the delta is routed; each server that receives delta rows
/// gallop-merges them into its block and splices them into its trie,
/// and every other server shares its predecessor fragment by pointer.
/// The result equals BuildSharded over the new version. Patch work is
/// charged to the receivers' build time except under Merge, whose
/// senders ship pre-built tries.
ShardedRelation PatchSharded(const ShardedRelation& prev,
                             const storage::DeltaBatch& delta,
                             const RoutePlan& plan, int num_servers,
                             HCubeVariant variant,
                             std::vector<double>* build_seconds) {
  std::vector<storage::Relation> ins =
      RouteInput(delta.inserts, plan, num_servers);
  std::vector<storage::Relation> del =
      RouteInput(delta.deletes, plan, num_servers);
  ShardedRelation sharded = prev;
  for (int s = 0; s < num_servers; ++s) {
    if (ins[size_t(s)].empty() && del[size_t(s)].empty()) continue;
    const ShardedRelation::Fragment& old = prev.per_server[size_t(s)];
    WallTimer timer;
    storage::Relation block(old.block->schema());
    storage::MergeDeltaRows(old.block->raw(), old.block->arity(),
                            ins[size_t(s)].raw(), del[size_t(s)].raw(),
                            &block.mutable_raw());
    storage::Trie trie;
    if (!block.empty()) {
      // An empty block carries the empty default trie, which has no
      // levels to splice into.
      trie = old.block->empty()
                 ? storage::Trie::Build(block)
                 : storage::Trie::PatchFrom(*old.trie, ins[size_t(s)],
                                            del[size_t(s)]);
    }
    if (variant != HCubeVariant::kMerge) {
      (*build_seconds)[size_t(s)] += timer.Seconds();
    }
    ShardedRelation::Fragment& frag = sharded.per_server[size_t(s)];
    frag.block = std::make_shared<const storage::Relation>(std::move(block));
    frag.trie = std::make_shared<const storage::Trie>(std::move(trie));
  }
  return sharded;
}

}  // namespace

uint64_t ShardedRelation::Bytes() const {
  uint64_t bytes = 0;
  for (const Fragment& frag : per_server) {
    if (frag.block != nullptr) bytes += frag.block->SizeBytes();
    if (frag.trie != nullptr) {
      bytes += frag.trie->ResidentBytes();
    }
  }
  return bytes;
}

const char* HCubeVariantName(HCubeVariant variant) {
  switch (variant) {
    case HCubeVariant::kPush:
      return "Push";
    case HCubeVariant::kPull:
      return "Pull";
    case HCubeVariant::kMerge:
      return "Merge";
  }
  return "?";
}

StatusOr<HCubeResult> HCubeShuffle(const std::vector<HCubeInput>& inputs,
                                   const ShareVector& share,
                                   HCubeVariant variant, Cluster* cluster,
                                   storage::IndexCache* cache,
                                   storage::IndexBuildStats* build_stats) {
  if (cluster == nullptr || cluster->num_servers() < 1) {
    return Status::InvalidArgument("HCubeShuffle requires a cluster");
  }
  if (!share.Valid()) {
    return Status::InvalidArgument("invalid share vector " + share.ToString() +
                                   ": every share must be >= 1");
  }
  const int num_servers = cluster->num_servers();
  const size_t num_attrs = share.p.size();

  // Mixed-radix strides: cube = sum_a coord[a] * stride[a].
  std::vector<uint64_t> stride(num_attrs);
  uint64_t cubes = 1;
  for (size_t a = 0; a < num_attrs; ++a) {
    stride[a] = cubes;
    cubes *= share.p[a];
  }

  std::vector<RoutePlan> plans(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const HCubeInput& in = inputs[i];
    if (in.rel == nullptr) {
      return Status::InvalidArgument("HCubeInput with null relation");
    }
    if (int(in.attrs.size()) != in.rel->arity()) {
      return Status::InvalidArgument("HCubeInput attrs/arity mismatch");
    }
    if (in.index != nullptr && in.index->rel.get() != in.rel) {
      return Status::InvalidArgument("HCubeInput rows are not its index's");
    }
    AttrMask bound_mask = 0;
    for (AttrId attr : in.attrs) {
      if (attr < 0 || size_t(attr) >= num_attrs) {
        return Status::InvalidArgument(
            "atom attribute " + std::to_string(attr) +
            " outside share vector " + share.ToString());
      }
      plans[i].bound.push_back(
          {attr, share.p[size_t(attr)], stride[size_t(attr)]});
      bound_mask |= AttrMask(1) << attr;
    }
    for (size_t a = 0; a < num_attrs; ++a) {
      if ((bound_mask & (AttrMask(1) << a)) == 0 && share.p[a] > 1) {
        plans[i].free_dims.emplace_back(share.p[a], stride[a]);
      }
    }
  }

  // Resolve every input to its ShardedRelation — through the cache for
  // indexed inputs (building exactly once, reusing later), inline
  // otherwise. Local build time is charged only when this call did the
  // building: a warm run's receivers genuinely do no index work.
  std::vector<std::shared_ptr<const ShardedRelation>> sharded(inputs.size());
  std::vector<double> build_s(size_t(num_servers), 0.0);
  for (size_t i = 0; i < inputs.size(); ++i) {
    const HCubeInput& in = inputs[i];
    // Single-server alias: with one server every tuple of the (already
    // canonical) input lands there exactly once, so the fragment is the
    // prepared index itself. Nothing is routed, sorted, built or
    // cached; it is reported as a reuse of the index (with mmap
    // provenance if it was snapshot-loaded), never as a build.
    if (num_servers == 1 && in.index != nullptr) {
      auto alias = std::make_shared<ShardedRelation>();
      alias->per_server.push_back({in.index->rel, in.index->trie});
      sharded[i] = std::move(alias);
      if (build_stats != nullptr) {
        ++build_stats->hits;
        if (in.index->trie->mmap_backed()) ++build_stats->mmap_hits;
      }
    } else if (cache != nullptr && in.index != nullptr) {
      std::string spec = std::string("hcube:") + HCubeVariantName(variant) +
                         ":s=" + std::to_string(num_servers) +
                         ":p=" + share.ToString() + ":a=";
      for (size_t c = 0; c < in.attrs.size(); ++c) {
        if (c > 0) spec += ',';
        spec += std::to_string(in.attrs[c]);
      }
      StatusOr<std::shared_ptr<const void>> artifact = cache->GetOrBuild(
          in.rel, spec, in.index,
          [&](const storage::IndexCache::PatchBase* from)
              -> StatusOr<storage::IndexCache::BuildResult> {
            std::shared_ptr<ShardedRelation> built;
            bool patched = false;
            if (from != nullptr) {
              // After a write: the input's predecessor fragments under
              // this spec move forward at delta cost.
              built = std::make_shared<ShardedRelation>(PatchSharded(
                  *static_cast<const ShardedRelation*>(from->artifact.get()),
                  from->delta, plans[i], num_servers, variant, &build_s));
              patched = true;
            } else {
              built = std::make_shared<ShardedRelation>(BuildSharded(
                  *in.rel, plans[i], num_servers, variant, i, &build_s));
            }
            storage::IndexCache::BuildResult result{built, built->Bytes()};
            result.patched = patched;
            return result;
          },
          build_stats);
      if (!artifact.ok()) return artifact.status();
      sharded[i] = std::static_pointer_cast<const ShardedRelation>(*artifact);
    } else {
      sharded[i] = std::make_shared<const ShardedRelation>(BuildSharded(
          *in.rel, plans[i], num_servers, variant, i, &build_s));
      if (build_stats != nullptr) ++build_stats->builds;
    }
  }

  // Assemble shards and account communication per variant. The comm
  // figures are derived from the (possibly cached) fragments, so cold
  // and warm shuffles report identical modeled traffic.
  cluster->ClearShards();
  HCubeResult result;
  const NetworkModel& net = cluster->config().net;
  for (int s = 0; s < num_servers; ++s) {
    LocalShard& shard = cluster->shard(s);
    shard.attrs.reserve(inputs.size());
    shard.atoms.reserve(inputs.size());
    shard.tries.reserve(inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      const ShardedRelation::Fragment& frag =
          sharded[i]->per_server[size_t(s)];
      result.comm.tuple_copies += frag.block->size();
      if (!frag.block->empty()) {
        // A fragment ships in the form it is stored in: its rows
        // (Push, Pull) or its trie arrays (Merge).
        ++result.comm.blocks;
        result.comm.bytes += variant == HCubeVariant::kMerge
                                 ? frag.trie->ResidentBytes()
                                 : frag.block->SizeBytes();
      }
      shard.resident_bytes += frag.block->SizeBytes();
      shard.resident_bytes += frag.trie->ResidentBytes();
      shard.attrs.push_back(inputs[i].attrs);
      shard.atoms.push_back(frag.block);
      shard.tries.push_back(frag.trie);
    }
    result.build_seconds_sum += build_s[size_t(s)];
    result.build_seconds_max =
        std::max(result.build_seconds_max, build_s[size_t(s)]);
  }

  ADJ_RETURN_IF_ERROR(cluster->CheckMemory());

  result.comm.seconds =
      variant == HCubeVariant::kPush
          ? PushSeconds(net, result.comm.tuple_copies, result.comm.bytes,
                        num_servers)
          : PullSeconds(net, result.comm.blocks, result.comm.bytes,
                        num_servers);
  return result;
}

}  // namespace adj::dist
