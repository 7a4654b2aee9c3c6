#include "storage/index_cache.h"

#include <algorithm>
#include <optional>

namespace adj::storage {

std::string SpecJoin(const std::vector<int>& xs) {
  std::string out;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

namespace {

std::string RowsSpec(const std::vector<int>& perm) {
  return "rows:p=" + SpecJoin(perm);
}
std::string IndexSpec(const std::vector<int>& perm) {
  return "index:p=" + SpecJoin(perm);
}

/// `rel` with column i taken from column perm[i] (its schema permuted
/// alike), sorted and deduplicated: the canonical rows of a base, or a
/// write's delta side in their column order.
Relation PermuteSorted(const Relation& rel, const std::vector<int>& perm) {
  Relation out = rel.PermuteColumns(rel.schema().Permuted(perm), perm);
  out.SortAndDedup();
  return out;
}

Status CheckPermuted(const std::shared_ptr<const Relation>& base,
                     const std::vector<int>& perm) {
  if (base == nullptr) {
    return Status::InvalidArgument("null base relation for index");
  }
  if (base->arity() != static_cast<int>(perm.size())) {
    return Status::InvalidArgument("column order arity mismatch for index");
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::shared_ptr<const void>> IndexCache::GetOrBuild(
    const void* identity, const std::string& spec,
    std::shared_ptr<const void> pin, const PatchFn& build,
    IndexBuildStats* stats) {
  const void* bound = pin.get();
  return GetOrBuildTagged(
      identity, spec, std::move(pin),
      [&]() -> StatusOr<BuildResult> {
        PatchBase from;
        return build(TakeDerivedPatch(bound, spec, &from) ? &from : nullptr);
      },
      stats, /*meta=*/nullptr);
}

StatusOr<std::shared_ptr<const void>> IndexCache::GetOrBuildTagged(
    const void* identity, const std::string& spec,
    std::shared_ptr<const void> pin, const BuildFn& build,
    IndexBuildStats* stats, std::shared_ptr<const PermutedMeta> meta,
    bool* patched_out) {
  if (identity == nullptr || pin == nullptr) {
    return Status::InvalidArgument("index cache key needs a live source");
  }
  const Key key{identity, spec};
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // miss: this thread builds
    std::shared_ptr<Entry> entry = it->second;
    if (!entry->ready) {
      // Another thread is building this key: wait, then re-check (the
      // entry is gone if that build failed, making us the builder).
      ready_cv_.wait(lock);
      continue;
    }
    entry->lru_tick = ++tick_;
    if (patched_out != nullptr) *patched_out = entry->patched;
    if (entry->statistic) {
      ++stats_.statistic_hits;
      return entry->artifact;
    }
    ++stats_.hits;
    if (entry->mmap) ++stats_.mmap_hits;
    if (stats != nullptr) {
      ++stats->hits;
      if (entry->mmap) ++stats->mmap_hits;
    }
    return entry->artifact;
  }

  auto entry = std::make_shared<Entry>();
  entry->pin = std::move(pin);
  entry->meta = std::move(meta);
  entries_[key] = entry;
  lock.unlock();
  StatusOr<BuildResult> built = build();
  lock.lock();
  // A concurrent Clear() may have dropped our placeholder (and a new
  // builder may have replaced it): only touch the map and the resident
  // accounting if the placeholder is still ours.
  auto it = entries_.find(key);
  const bool resident = it != entries_.end() && it->second == entry;
  if (!built.ok() || built->artifact == nullptr) {
    if (resident) entries_.erase(it);
    ++stats_.build_failures;
    ready_cv_.notify_all();
    return built.ok() ? Status::Internal("index build returned no artifact")
                      : built.status();
  }
  entry->artifact = std::move(built->artifact);
  entry->bytes = built->bytes;
  entry->lru_tick = ++tick_;
  entry->ready = true;
  entry->patched = built->patched;
  entry->statistic = built->statistic;
  if (patched_out != nullptr) *patched_out = built->patched;
  if (built->statistic) {
    ++stats_.statistic_builds;
  } else if (built->patched) {
    ++stats_.patched_builds;
    if (stats != nullptr) {
      ++stats->patched;
      stats->delta_rows_merged += built->delta_rows_merged;
    }
  } else {
    ++stats_.builds;
    if (stats != nullptr) ++stats->builds;
  }
  if (resident) {
    stats_.resident_bytes += entry->bytes;
    EnforceBudgetLocked();
  }
  ready_cv_.notify_all();
  return entry->artifact;
}

StatusOr<std::shared_ptr<const Relation>> IndexCache::PermutedRows(
    const std::shared_ptr<const Relation>& base, const std::vector<int>& perm,
    IndexBuildStats* stats, bool* patched_out) {
  PatchSource src;
  const bool have_patch =
      PeekPatchSource(base, perm, &src) && src.payload != nullptr;
  auto meta = std::make_shared<PermutedMeta>();
  meta->kind = PermutedMeta::kRows;
  meta->perm = perm;
  bool used_patch = false;
  StatusOr<std::shared_ptr<const void>> artifact = GetOrBuildTagged(
      base.get(), RowsSpec(perm), base,
      [&]() -> StatusOr<BuildResult> {
        // The canonical rows: one permuted + sorted relation per
        // (base, perm) under the base schema permuted alike. Snapshot
        // adoption swaps in a mapped-span relation under the same key.
        if (have_patch) {
          // Merge-on-read: the relation gained a delta since the
          // recorded payload was built. Permute + sort only the delta
          // rows into this column order, then gallop-merge them over
          // the predecessor's canonical payload — O(delta · log n)
          // locate work plus run copies, never an O(n log n) re-sort
          // of the whole relation.
          const Relation ins = PermuteSorted(src.delta->inserts, perm);
          const Relation del = PermuteSorted(src.delta->deletes, perm);
          Relation merged(src.payload->schema());
          MergeDeltaRows(src.payload->raw(), base->arity(), ins.raw(),
                         del.raw(), &merged.mutable_raw());
          auto rows = std::make_shared<const Relation>(std::move(merged));
          used_patch = true;
          BuildResult result{rows, rows->SizeBytes()};
          result.patched = true;
          result.delta_rows_merged = src.delta->rows();
          return result;
        }
        auto rows =
            std::make_shared<const Relation>(PermuteSorted(*base, perm));
        return BuildResult{rows, rows->SizeBytes()};
      },
      stats, std::move(meta), patched_out);
  if (!artifact.ok()) return artifact.status();
  if (used_patch) ConsumePatchSource(base.get(), perm, src.delta->rows());
  return std::static_pointer_cast<const Relation>(*artifact);
}

StatusOr<std::shared_ptr<const Relation>> IndexCache::GetPermutedRows(
    std::shared_ptr<const Relation> base, const std::vector<int>& perm,
    IndexBuildStats* stats) {
  ADJ_RETURN_IF_ERROR(CheckPermuted(base, perm));
  return PermutedRows(base, perm, stats, /*patched_out=*/nullptr);
}

StatusOr<std::shared_ptr<const PreparedIndex>> IndexCache::GetPermuted(
    std::shared_ptr<const Relation> base, const std::vector<int>& perm,
    IndexBuildStats* stats) {
  ADJ_RETURN_IF_ERROR(CheckPermuted(base, perm));
  auto meta = std::make_shared<PermutedMeta>();
  meta->kind = PermutedMeta::kIndex;
  meta->perm = perm;
  StatusOr<std::shared_ptr<const void>> artifact = GetOrBuildTagged(
      base.get(), IndexSpec(perm), base,
      [&]() -> StatusOr<BuildResult> {
        // Nested get: the build runs outside the cache lock, so
        // re-entering for the rows layer is safe (single-flight is per
        // key). The rows entry is charged the rows' bytes, this one
        // only the trie's. A rows merge done here is charged to this
        // call's consumer, who triggered it.
        IndexBuildStats rows_stats;
        bool rows_patched = false;
        StatusOr<std::shared_ptr<const Relation>> rows =
            PermutedRows(base, perm, &rows_stats, &rows_patched);
        if (!rows.ok()) return rows.status();
        auto index = std::make_shared<PreparedIndex>();
        index->rel = std::move(*rows);
        // Trie-layer delta patch: when the predecessor's trie is still
        // on the patch record (the rows merge above clears only the
        // payload side), splice the permuted delta into its CSR arrays
        // instead of re-scanning all n merged rows. The tuple-count
        // check downgrades to a scratch build if the patch and the
        // payload ever disagree (they cannot under the single-writer
        // contract; the guard keeps a corrupt record from propagating).
        PatchSource src;
        std::optional<Trie> trie;
        if (PeekPatchSource(base, perm, &src) && src.trie != nullptr &&
            src.delta != nullptr) {
          Trie patched = Trie::PatchFrom(
              *src.trie, PermuteSorted(src.delta->inserts, perm),
              PermuteSorted(src.delta->deletes, perm));
          ConsumeTriePatchSource(base.get(), perm);
          if (patched.NumTuples() == index->rel->size()) {
            trie = std::move(patched);
          }
        }
        // A trie over patched rows counts as patched work, not a
        // from-scratch index build: its input rows were delta-merged.
        const bool patched = trie.has_value() || rows_patched;
        if (!trie.has_value()) trie = Trie::Build(*index->rel);
        if (compress_tries()) trie = Trie::Compress(std::move(*trie));
        index->trie = std::make_shared<const Trie>(std::move(*trie));
        BuildResult result{index, index->trie->ResidentBytes()};
        result.patched = patched;
        result.delta_rows_merged = rows_stats.delta_rows_merged;
        return result;
      },
      stats, std::move(meta));
  if (!artifact.ok()) return artifact.status();
  return std::static_pointer_cast<const PreparedIndex>(*artifact);
}

std::vector<IndexCache::ExportedPayload> IndexCache::ExportPermutedIndexes()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Fold the two layers back into (identity, perm) payload units.
  std::map<std::pair<const void*, std::string>, ExportedPayload> payloads;
  auto slot = [&](const void* identity,
                  const std::vector<int>& perm) -> ExportedPayload& {
    ExportedPayload& p = payloads[{identity, SpecJoin(perm)}];
    if (p.identity == nullptr) {
      p.identity = identity;
      p.perm = perm;
    }
    return p;
  };
  for (const auto& [key, entry] : entries_) {
    if (!entry->ready || entry->meta == nullptr) continue;
    const PermutedMeta& meta = *entry->meta;
    ExportedPayload& p = slot(key.first, meta.perm);
    p.lru_tick = std::max(p.lru_tick, entry->lru_tick);
    if (meta.kind == PermutedMeta::kRows) {
      p.rows = std::static_pointer_cast<const Relation>(entry->artifact);
    } else {
      // An index holds the same rows the rows entry does.
      const auto& index =
          *static_cast<const PreparedIndex*>(entry->artifact.get());
      p.rows = index.rel;
      p.trie = index.trie;
    }
  }
  std::vector<ExportedPayload> out;
  out.reserve(payloads.size());
  for (auto& [key, p] : payloads) out.push_back(std::move(p));
  return out;
}

bool IndexCache::AdoptEntryLocked(const Key& key,
                                  std::shared_ptr<const void> pin,
                                  std::shared_ptr<const void> artifact,
                                  uint64_t bytes,
                                  std::shared_ptr<const PermutedMeta> meta) {
  if (entries_.count(key) != 0) return false;  // live entries win
  auto entry = std::make_shared<Entry>();
  entry->artifact = std::move(artifact);
  entry->pin = std::move(pin);
  entry->bytes = bytes;
  entry->lru_tick = ++tick_;
  entry->ready = true;
  entry->mmap = true;
  entry->meta = std::move(meta);
  entries_[key] = entry;
  stats_.resident_bytes += bytes;
  return true;
}

Status IndexCache::AdoptPermuted(std::shared_ptr<const Relation> base,
                                 const std::vector<int>& perm,
                                 std::shared_ptr<const Relation> rows,
                                 std::shared_ptr<const Trie> trie) {
  ADJ_RETURN_IF_ERROR(CheckPermuted(base, perm));
  if (rows == nullptr || !(rows->schema() == base->schema().Permuted(perm))) {
    return Status::InvalidArgument("adopt: rows are not in the column order");
  }
  if (trie != nullptr &&
      (trie->arity() != base->arity() || trie->NumTuples() != rows->size())) {
    return Status::InvalidArgument("adopt: trie does not match payload");
  }
  std::lock_guard<std::mutex> lock(mu_);
  const void* identity = base.get();
  auto meta = std::make_shared<PermutedMeta>();
  meta->kind = PermutedMeta::kRows;
  meta->perm = perm;
  AdoptEntryLocked({identity, RowsSpec(perm)}, base, rows, rows->SizeBytes(),
                   meta);
  if (trie != nullptr) {
    auto index_meta = std::make_shared<PermutedMeta>(*meta);
    index_meta->kind = PermutedMeta::kIndex;
    const uint64_t bytes = trie->ResidentBytes();
    auto index = std::make_shared<PreparedIndex>(
        PreparedIndex{std::move(rows), std::move(trie)});
    AdoptEntryLocked({identity, IndexSpec(perm)}, base, std::move(index),
                     bytes, std::move(index_meta));
  }
  EnforceBudgetLocked();
  return Status::OK();
}

void IndexCache::LinkDelta(const std::shared_ptr<const Relation>& prev,
                           const std::shared_ptr<const Relation>& next,
                           std::shared_ptr<const DeltaBatch> delta) {
  if (prev == nullptr || next == nullptr || delta == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  PatchRecord rec;
  rec.child = next;
  // Inherit `prev`'s own unconsumed sources first — prev may itself be
  // an unbound successor of an older version, in which case the two
  // deltas compose into one net delta per source. Every layer of an
  // inherited source describes that ORIGINAL version, so the composed
  // net delta applies to each.
  auto pit = patches_.find(prev.get());
  if (pit != patches_.end()) {
    if (auto live = pit->second.child.lock(); live == prev) {
      for (auto& [perm, src] : pit->second.by_perm) {
        PatchSource& inherited = rec.by_perm[perm];
        inherited = std::move(src);
        inherited.delta = std::make_shared<DeltaBatch>(
            ComposeDelta(*inherited.delta, *delta));
      }
    }
    patches_.erase(pit);
  }
  // Fresh sources from every layer of `prev` currently resident —
  // canonical rows, trie, and the artifacts derived from the index
  // (found under its rows' identity). A permutation with any fresh
  // layer supersedes its inherited source: one delta, not two.
  // `prev`'s statistics are dropped, not recorded.
  std::map<std::string, PatchSource> fresh;
  for (auto it = entries_.lower_bound(Key{prev.get(), std::string()});
       it != entries_.end() && it->first.first == prev.get();) {
    const Entry& entry = *it->second;
    if (entry.ready && entry.statistic) {
      stats_.resident_bytes -= entry.bytes;
      ++stats_.evictions;
      it = entries_.erase(it);
      continue;
    }
    if (entry.ready && entry.meta != nullptr) {
      PatchSource& src = fresh[SpecJoin(entry.meta->perm)];
      if (entry.meta->kind == PermutedMeta::kRows) {
        src.payload = std::static_pointer_cast<const Relation>(entry.artifact);
      } else {
        const auto& index =
            *static_cast<const PreparedIndex*>(entry.artifact.get());
        src.trie = index.trie;
        const void* rows = index.rel.get();
        for (auto d = entries_.lower_bound(Key{rows, std::string()});
             d != entries_.end() && d->first.first == rows; ++d) {
          if (d->second->ready) {
            src.derived[d->first.second] = d->second->artifact;
          }
        }
      }
    }
    ++it;
  }
  for (auto& [perm, src] : fresh) {
    if (src.Drained()) continue;
    src.delta = delta;
    rec.by_perm[perm] = std::move(src);
  }
  if (!rec.by_perm.empty()) patches_[next.get()] = std::move(rec);
}

bool IndexCache::PeekPatchSource(const std::shared_ptr<const Relation>& base,
                                 const std::vector<int>& perm,
                                 PatchSource* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patches_.find(base.get());
  if (it == patches_.end()) return false;
  // ABA guard: honor the record only for the relation it was made for.
  if (it->second.child.lock() != base) return false;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return false;
  *out = pit->second;
  return true;
}

void IndexCache::ConsumePatchSource(const void* identity,
                                    const std::vector<int>& perm,
                                    uint64_t merged_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.delta_rows_merged += merged_rows;
  auto it = patches_.find(identity);
  if (it == patches_.end()) return;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return;
  pit->second.payload.reset();
  EraseIfDrainedLocked(it, pit);
}

void IndexCache::ConsumeTriePatchSource(const void* identity,
                                        const std::vector<int>& perm) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = patches_.find(identity);
  if (it == patches_.end()) return;
  auto pit = it->second.by_perm.find(SpecJoin(perm));
  if (pit == it->second.by_perm.end()) return;
  pit->second.trie.reset();
  EraseIfDrainedLocked(it, pit);
}

bool IndexCache::TakeDerivedPatch(const void* pin, const std::string& spec,
                                  PatchBase* out) {
  std::shared_ptr<const DeltaBatch> delta;
  std::vector<int> perm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (patches_.empty()) return false;  // no write since the last binds
    // The index `pin` is the artifact of an index entry, whose key
    // names the relation (whose patch record holds the predecessors).
    auto index = entries_.begin();
    for (; index != entries_.end(); ++index) {
      const Entry& e = *index->second;
      if (e.ready && e.artifact.get() == pin && e.meta != nullptr &&
          e.meta->kind == PermutedMeta::kIndex) {
        break;
      }
    }
    if (index == entries_.end()) return false;
    auto it = patches_.find(index->first.first);
    // ABA guard, as in PeekPatchSource: the index entry's pin is its
    // relation.
    if (it == patches_.end() ||
        it->second.child.lock() != index->second->pin) {
      return false;
    }
    perm = index->second->meta->perm;
    auto pit = it->second.by_perm.find(SpecJoin(perm));
    if (pit == it->second.by_perm.end()) return false;
    PatchSource& src = pit->second;
    auto dit = src.derived.find(spec);
    if (dit == src.derived.end()) return false;
    out->artifact = std::move(dit->second);
    delta = src.delta;
    src.derived.erase(dit);
    EraseIfDrainedLocked(it, pit);
  }
  // Permute the net delta into the index's column order outside the
  // lock: a write's few rows, sorted once per derived artifact.
  out->delta.inserts = PermuteSorted(delta->inserts, perm);
  out->delta.deletes = PermuteSorted(delta->deletes, perm);
  return true;
}

void IndexCache::EraseIfDrainedLocked(
    std::map<const void*, PatchRecord>::iterator it,
    std::map<std::string, PatchSource>::iterator pit) {
  if (pit->second.Drained()) it->second.by_perm.erase(pit);
  if (it->second.by_perm.empty()) patches_.erase(it);
}

bool IndexCache::SweepOnceLocked() {
  // How many pins inside the cache share each source's control block:
  // a source is unreachable when the cache accounts for every one of
  // its remaining references.
  std::map<const void*, long> cache_pins;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) ++cache_pins[entry->pin.get()];
  }
  bool dropped = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = *it->second;
    if (e.ready && e.pin.use_count() <= cache_pins[e.pin.get()]) {
      stats_.resident_bytes -= e.bytes;
      ++stats_.evictions;
      it = entries_.erase(it);
      dropped = true;
    } else {
      ++it;
    }
  }
  return dropped;
}

void IndexCache::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  // Fixpoint: dropping a bound-atom entry releases its artifact, which
  // may have been the last external reference pinning shard entries
  // derived from it — the next pass collects those.
  while (SweepOnceLocked()) {
  }
  // Patch records die with their successor relation (their payload
  // handles are what would otherwise keep dead payloads resident).
  for (auto it = patches_.begin(); it != patches_.end();) {
    if (it->second.child.expired()) {
      it = patches_.erase(it);
    } else {
      ++it;
    }
  }
}

void IndexCache::EnforceBudgetLocked() {
  if (budget_bytes_ == 0) return;
  while (stats_.resident_bytes > budget_bytes_) {
    // LRU among entries no consumer holds right now; evicting a held
    // artifact would not free memory anyway.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const Entry& e = *it->second;
      if (!e.ready || e.artifact.use_count() > 1) continue;
      if (victim == entries_.end() ||
          e.lru_tick < victim->second->lru_tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything is in use
    stats_.resident_bytes -= victim->second->bytes;
    ++stats_.evictions;
    entries_.erase(victim);
  }
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    if (entry->ready) {
      stats_.resident_bytes -= entry->bytes;
      ++stats_.evictions;
    }
  }
  entries_.clear();
  patches_.clear();
}

void IndexCache::EnforceBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  EnforceBudgetLocked();
}

void IndexCache::set_budget_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_bytes_ = bytes;
  EnforceBudgetLocked();
}

uint64_t IndexCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.resident_bytes;
}

size_t IndexCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

IndexCache::Stats IndexCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = entries_.size();
  out.mmap_entries = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry->ready && entry->mmap) ++out.mmap_entries;
  }
  return out;
}

}  // namespace adj::storage
