#ifndef ADJ_DIST_HCUBE_H_
#define ADJ_DIST_HCUBE_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dist/cluster.h"
#include "dist/share_vector.h"
#include "storage/index_cache.h"
#include "storage/relation.h"

namespace adj::dist {

/// One relation entering an HCube shuffle: the (sorted, deduplicated)
/// tuples plus the query attribute each column binds. Attribute ids
/// index the share vector.
///
/// `index`, when set, is the cache-shared index `rel` is the rows of
/// (null for Plain inputs). When the shuffle runs against an
/// IndexCache, it anchors the input's routed fragments and shard tries,
/// cached under (rows, share, variant, server count, attrs) and reused
/// by later shuffles; inputs without one are shuffled inline,
/// uncached. With one server it is the alias fast path: the single
/// shard is the index itself, so the shuffle routes, sorts, builds and
/// caches nothing, and reports an index reuse (mmap-flagged when the
/// trie is snapshot-loaded) instead of a build.
struct HCubeInput {
  const storage::Relation* rel = nullptr;
  std::vector<AttrId> attrs;
  std::shared_ptr<const storage::PreparedIndex> index;

  /// An input over `rel` alone.
  static HCubeInput Plain(const storage::Relation* rel,
                          std::vector<AttrId> attrs) {
    HCubeInput in;
    in.rel = rel;
    in.attrs = std::move(attrs);
    return in;
  }
  /// An input over a cache-shared index's rows.
  static HCubeInput Indexed(std::shared_ptr<const storage::PreparedIndex> index,
                            std::vector<AttrId> attrs) {
    HCubeInput in = Plain(index->rel.get(), std::move(attrs));
    in.index = std::move(index);
    return in;
  }
};

/// One input's shuffle outcome in shareable form: per server the
/// canonical block and the trie over it. A fragment ships in the bytes
/// it is stored in, so HCubeShuffle prices it from these two when it
/// assembles the shards. This is the artifact the IndexCache holds so
/// repeat runs of a prepared query re-populate cluster shards at
/// pointer-copy cost — the Merge-variant premise (pre-built tries are
/// the unit you ship) applied across runs.
struct ShardedRelation {
  struct Fragment {
    std::shared_ptr<const storage::Relation> block;
    std::shared_ptr<const storage::Trie> trie;
  };
  std::vector<Fragment> per_server;

  /// Resident payload across all servers (blocks + trie arrays).
  uint64_t Bytes() const;
};

/// The three HCube implementations of Sec. V, compared in Fig. 9:
///  - kPush: senders route every tuple copy as its own record; the
///    receiver collects an unsorted stream and must sort before
///    building its tries (per-record network overhead, full local sort),
///  - kPull: senders group tuples into per-destination sorted blocks
///    that receivers fetch; the local build skips the sort,
///  - kMerge: senders pre-build and ship the trie arrays themselves
///    ("a trie ... can be implemented using three arrays"); receivers
///    adopt them with no local build work.
enum class HCubeVariant { kPush = 0, kPull = 1, kMerge = 2 };

const char* HCubeVariantName(HCubeVariant variant);

/// Accounting of one HCube shuffle. `build_seconds_*` measure the
/// receivers' local index construction (Fig. 9's right panel):
/// max = parallel makespan across servers, sum = total work.
struct HCubeResult {
  CommStats comm;
  double build_seconds_max = 0.0;
  double build_seconds_sum = 0.0;
};

/// Hypercube-shuffles `inputs` onto `cluster` under share vector
/// `share`: each tuple is routed to every cube agreeing with the
/// hashes of its bound attributes (DupCubes copies), cubes are mapped
/// to servers round-robin, and every shard ends up with the canonical
/// sorted fragment + trie per atom. All variants produce identical
/// shard contents and identical logical tuple movement; they differ in
/// what a fragment ships as (its rows under Push and Pull, its trie
/// arrays under Merge), network pricing, and local build time.
///
/// Fails with kInvalidArgument on a malformed share vector and with
/// kResourceExhausted when any shard's resident set exceeds the
/// cluster's per-server memory budget.
///
/// With `cache`, indexed inputs other than a single-server alias
/// resolve their ShardedRelation through it: the first shuffle routes,
/// sorts, and builds (charged to build_seconds as usual, ticked into
/// `build_stats`), later shuffles reuse the resident artifacts (zero
/// build seconds, a `build_stats` hit). Communication is *modeled*
/// identically either way — the comm figures of a warm run match the
/// cold one.
StatusOr<HCubeResult> HCubeShuffle(const std::vector<HCubeInput>& inputs,
                                   const ShareVector& share,
                                   HCubeVariant variant, Cluster* cluster,
                                   storage::IndexCache* cache = nullptr,
                                   storage::IndexBuildStats* build_stats =
                                       nullptr);

}  // namespace adj::dist

#endif  // ADJ_DIST_HCUBE_H_
