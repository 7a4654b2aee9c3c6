#include "optimizer/cost_model.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "common/timer.h"
#include "dataset/generators.h"
#include "storage/index_cache.h"
#include "storage/trie.h"
#include "wcoj/leapfrog.h"

namespace adj::optimizer {
namespace {

/// Times `probes` galloping seeks against the root level of `trie`
/// and returns the measured rate (seeks/s).
double MeasureSeekRate(const storage::Trie& trie, uint64_t probes) {
  Rng rng(0xC0FFEE);
  WallTimer timer;
  uint64_t sink = 0;
  const storage::Trie::Range root = trie.RootRange();
  for (uint64_t i = 0; i < probes; ++i) {
    Value v = static_cast<Value>(rng.Next32());
    uint32_t idx = trie.SeekInRange(0, root, v % (root.hi + 1));
    sink += idx;
  }
  double seconds = timer.Seconds();
  if (seconds <= 0) seconds = 1e-9;
  // Keep the compiler from eliding the loop.
  if (sink == 0xFFFFFFFFFFFFFFFFull) return 1.0;
  return double(probes) / seconds;
}

/// The identity column order of `rel` — the bind the executors request
/// for an ascending-attribute atom, i.e. the index calibration should
/// warm.
std::vector<int> IdentityPerm(const storage::Relation& rel) {
  std::vector<int> perm(size_t(rel.arity()));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = int(i);
  return perm;
}

}  // namespace

double CostModel::CommSeconds(double tuple_copies) const {
  const uint64_t bytes =
      static_cast<uint64_t>(tuple_copies * bytes_per_tuple);
  // Block-grouped (Pull) pricing: one block per relation-server pair is
  // a lower-order term; approximate with a small fixed block count.
  const uint64_t blocks = uint64_t(num_servers) * 8;
  return dist::PullSeconds(net, blocks, bytes, num_servers);
}

double CostModel::ExtendSeconds(double bindings,
                                bool node_precomputed) const {
  const double beta = node_precomputed ? beta_precomputed : beta_raw;
  return bindings / (beta * double(std::max(1, num_servers)));
}

double CalibrateBetaPrecomputed(uint64_t trie_tuples) {
  // A skewed calibration relation, indexed through a process-wide
  // IndexCache: repeated calibrations at one size (every Plan of a
  // catalog with no data falls back here) reuse one build instead of
  // constructing a throwaway trie each time.
  static std::mutex mu;
  static storage::IndexCache cache;
  static std::map<uint64_t, std::shared_ptr<const storage::Relation>> bases;
  std::shared_ptr<const storage::Relation> base;
  {
    std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<const storage::Relation>& slot = bases[trie_tuples];
    if (slot == nullptr) {
      Rng rng(0xC0FFEE);
      slot = std::make_shared<const storage::Relation>(
          dataset::ZipfGraph(std::max<uint64_t>(trie_tuples / 8, 64),
                             trie_tuples, 0.8, rng));
    }
    base = slot;
  }
  StatusOr<std::shared_ptr<const storage::PreparedIndex>> index =
      cache.GetPermuted(base, IdentityPerm(*base));
  if (!index.ok()) return 1.0;
  return MeasureSeekRate(*(*index)->trie, 200000);
}

double CalibrateBetaPrecomputed(const storage::Catalog& db,
                                const query::Query& q,
                                const query::AttributeOrder& order) {
  // Probe an index the planning pass itself binds: the query's largest
  // atom under `order`'s ranks — the exact cache key the sampler's
  // PrepareRelationShared just requested, so this is a pure hit (or at
  // worst a warm-up) and never builds an index the query won't touch.
  const query::Atom* largest_atom = nullptr;
  std::shared_ptr<const storage::Relation> largest;
  for (const query::Atom& atom : q.atoms()) {
    StatusOr<std::shared_ptr<const storage::Relation>> rel =
        db.GetShared(atom.relation);
    if (!rel.ok() || (*rel)->empty() || (*rel)->arity() == 0) continue;
    if (largest == nullptr || (*rel)->size() > largest->size()) {
      largest = std::move(*rel);
      largest_atom = &atom;
    }
  }
  if (largest == nullptr || order.empty()) {
    return CalibrateBetaPrecomputed();
  }
  StatusOr<wcoj::SharedPreparedRelation> bound = wcoj::PrepareRelationShared(
      std::move(largest), largest_atom->schema.attrs(),
      query::RankOf(order, q.num_attrs()), db.index_cache());
  if (!bound.ok()) return CalibrateBetaPrecomputed();
  StatusOr<std::shared_ptr<const storage::PreparedIndex>> index =
      std::move(bound->index);

  // The rate is a hardware constant: memoize per probed trie so only
  // the first planning pass against a dataset pays the 50k seeks.
  // (Keyed by trie address — after an eviction a recycled address can
  // at worst return another trie's measurement, which is still a valid
  // seek-rate sample. The map is cleared before it can grow past a
  // few hundred doubles.)
  static std::mutex mu;
  static std::map<const void*, double>* memo =
      new std::map<const void*, double>();
  const void* key = (*index)->trie.get();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo->find(key);
    if (it != memo->end()) return it->second;
  }
  const double rate = MeasureSeekRate(*(*index)->trie, 50000);
  std::lock_guard<std::mutex> lock(mu);
  if (memo->size() >= 256) memo->clear();
  (*memo)[key] = rate;
  return rate;
}

}  // namespace adj::optimizer
