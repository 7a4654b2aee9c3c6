// Compressed trie storage: the block codec (delta+vbyte/bitpack with
// per-block skip metadata), Trie::Compress equivalence against the raw
// representation (ValueAt / Seek / Find, force mode covering the root
// level), PatchFrom over compressed predecessors (touched-block
// re-encode + MaxRangeWidth recompute), FromMapped validation of
// untrusted compressed segments, and the cross-engine property: every
// strategy returns bit-identical counts over raw, compressed, and
// snapshot-mapped compressed tries. Runs under the ASan/UBSan CI leg
// like the rest of the suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/api.h"
#include "common/rng.h"
#include "core/engine.h"
#include "persist/snapshot.h"
#include "query/query.h"
#include "storage/block_codec.h"
#include "storage/catalog.h"
#include "storage/index_cache.h"
#include "storage/relation.h"
#include "storage/trie.h"
#include "storage/write_batch.h"
#include "wcoj/naive_join.h"

namespace adj {
namespace {

namespace bc = storage::blockcodec;
using storage::Relation;
using storage::Schema;
using storage::Trie;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// A concatenation of strictly increasing runs with negative deltas at
/// every run boundary — the exact shape of a deep trie level.
std::vector<Value> MultiRunLevel(Rng& rng, int runs, uint32_t max_run) {
  std::vector<Value> out;
  for (int r = 0; r < runs; ++r) {
    const uint32_t len = 1 + uint32_t(rng.Uniform(max_run));
    Value v = Value(rng.Uniform(50));
    for (uint32_t i = 0; i < len; ++i) {
      v += 1 + Value(rng.Uniform(9));
      out.push_back(v);
    }
  }
  return out;
}

std::vector<Value> DecodeAll(const bc::CompressedLevelView& v) {
  std::vector<Value> out;
  Value buf[bc::kBlockValues];
  for (uint32_t b = 0; b < v.num_blocks(); ++b) {
    const uint32_t n = bc::DecodeBlock(v, b, buf);
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

TEST(BlockCodecTest, RoundTripsRunsWithNegativeBoundaryDeltas) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    // Sizes straddle block boundaries: empty, sub-block, exact
    // multiples, and a partial final block.
    const std::vector<Value> level = MultiRunLevel(rng, int(rng.Uniform(40)),
                                                   1 + uint32_t(rng.Uniform(90)));
    bc::CompressedLevel enc;
    bc::EncodeLevel(level, &enc);
    ASSERT_TRUE(bc::ValidateCompressedLevel(enc.View()).ok());
    EXPECT_EQ(enc.size, level.size());
    EXPECT_EQ(DecodeAll(enc.View()), level);
    // Skip table invariant: mins[b] is the value at position b*B.
    for (uint32_t b = 0; b < enc.View().num_blocks(); ++b) {
      EXPECT_EQ(enc.mins[b], level[size_t(b) * bc::kBlockValues]);
    }
  }
}

TEST(BlockCodecTest, EncoderIsDeterministicAndTailSplices) {
  Rng rng(202);
  const std::vector<Value> level = MultiRunLevel(rng, 25, 60);
  bc::CompressedLevel a, b;
  bc::EncodeLevel(level, &a);
  bc::EncodeLevel(level, &b);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mins, b.mins);
  EXPECT_EQ(a.starts, b.starts);

  // Re-encoding only the tail over an untouched prefix must reproduce
  // the full encoding byte for byte — the property PatchFrom leans on
  // to splice prefix blocks verbatim.
  const uint32_t from = a.View().num_blocks() / 2;
  bc::CompressedLevel spliced;
  spliced.mins.assign(a.mins.begin(), a.mins.begin() + from);
  spliced.starts.assign(a.starts.begin(), a.starts.begin() + from + 1);
  spliced.bytes.assign(a.bytes.begin(), a.bytes.begin() + a.starts[from]);
  bc::EncodeLevelTail(level, from, &spliced);
  EXPECT_EQ(spliced.bytes, a.bytes);
  EXPECT_EQ(spliced.mins, a.mins);
  EXPECT_EQ(spliced.starts, a.starts);
  EXPECT_EQ(spliced.size, a.size);
}

TEST(BlockCodecTest, PicksBitpackForNarrowDeltasAndBeatsRaw) {
  // Dense level: deltas of 1..4 bit-pack far below 4 bytes/value.
  std::vector<Value> level;
  Value v = 0;
  Rng rng(303);
  for (int i = 0; i < 4096; ++i) {
    v += 1 + Value(rng.Uniform(4));
    level.push_back(v);
  }
  bc::CompressedLevel enc;
  bc::EncodeLevel(level, &enc);
  EXPECT_LT(enc.ResidentBytes(), level.size() * sizeof(Value) / 2);
  EXPECT_EQ(DecodeAll(enc.View()), level);
}

TEST(BlockCodecTest, ValidationRejectsCorruptedStructure) {
  Rng rng(404);
  const std::vector<Value> level = MultiRunLevel(rng, 20, 50);
  bc::CompressedLevel enc;
  bc::EncodeLevel(level, &enc);
  ASSERT_GE(enc.View().num_blocks(), 2u);

  {  // Non-monotone starts.
    bc::CompressedLevel bad = enc;
    std::swap(bad.starts[1], bad.starts[2]);
    EXPECT_FALSE(bc::ValidateCompressedLevel(bad.View()).ok());
  }
  {  // Truncated payload.
    bc::CompressedLevel bad = enc;
    bad.bytes.resize(bad.bytes.size() / 2);
    EXPECT_FALSE(bc::ValidateCompressedLevel(bad.View()).ok());
  }
  {  // Skip table / size mismatch.
    bc::CompressedLevel bad = enc;
    bad.mins.pop_back();
    EXPECT_FALSE(bc::ValidateCompressedLevel(bad.View()).ok());
  }
  {  // starts pointing past the payload.
    bc::CompressedLevel bad = enc;
    bad.starts.back() = uint32_t(bad.bytes.size()) + 7;
    EXPECT_FALSE(bc::ValidateCompressedLevel(bad.View()).ok());
  }
}

/// A random binary relation big enough that the default density
/// heuristic compresses its deep level.
Relation BigGraph(Rng& rng, uint64_t rows, uint64_t domain) {
  Relation rel((Schema({0, 1})));
  for (uint64_t r = 0; r < rows; ++r) {
    rel.Append({Value(rng.Uniform(domain)), Value(rng.Uniform(domain))});
  }
  rel.SortAndDedup();
  return rel;
}

TEST(CompressedTrieTest, ForceCompressedProbesMatchRawEverywhere) {
  Rng rng(505);
  for (int round = 0; round < 8; ++round) {
    Relation rel((Schema({0, 1, 2})));
    const uint64_t rows = 200 + rng.Uniform(800);
    for (uint64_t r = 0; r < rows; ++r) {
      rel.Append({Value(rng.Uniform(12)), Value(rng.Uniform(30)),
                  Value(rng.Uniform(40))});
    }
    rel.SortAndDedup();
    const Trie raw = Trie::Build(rel);
    const Trie comp =
        Trie::Compress(Trie::Build(rel), Trie::CompressOptions{.force = true});
    ASSERT_TRUE(comp.any_compressed());
    ASSERT_EQ(comp.arity(), raw.arity());
    for (int l = 0; l < raw.arity(); ++l) {
      // Force mode compresses every non-empty level, the root included.
      EXPECT_TRUE(comp.level_compressed(l)) << "level " << l;
      ASSERT_EQ(comp.LevelSize(l), raw.LevelSize(l));
      std::vector<Value> decoded;
      comp.DecodeLevelInto(l, &decoded);
      const std::span<const Value> rawvals = raw.LevelSpan(l);
      ASSERT_TRUE(
          std::equal(decoded.begin(), decoded.end(), rawvals.begin(),
                     rawvals.end()))
          << "level " << l;
      // Random probes: ValueAt / SeekInRange / FindInRange agree on
      // random sub-ranges, with and without a decode cache.
      bc::DecodeCache cache;
      const uint32_t size = uint32_t(raw.LevelSize(l));
      for (int probe = 0; probe < 200; ++probe) {
        const uint32_t idx = uint32_t(rng.Uniform(size));
        ASSERT_EQ(comp.ValueAt(l, idx), raw.ValueAt(l, idx));
        ASSERT_EQ(comp.ValueAt(l, idx, &cache), raw.ValueAt(l, idx));
        // Probe a genuine sibling range (random sub-range of a random
        // parent's children; the root range for level 0) — Seek/Find
        // are only defined over sorted runs.
        Trie::Range r = l == 0 ? raw.RootRange()
                               : raw.ChildRange(
                                     l - 1, uint32_t(rng.Uniform(
                                                raw.LevelSize(l - 1))));
        if (!r.empty() && rng.Uniform(2) == 0) {
          r.lo += uint32_t(rng.Uniform(r.size()));
          r.hi -= uint32_t(rng.Uniform(r.hi - r.lo));
        }
        const Value v = Value(rng.Uniform(64));
        ASSERT_EQ(comp.SeekInRange(l, r, v), raw.SeekInRange(l, r, v));
        ASSERT_EQ(comp.SeekInRange(l, r, v, &cache),
                  raw.SeekInRange(l, r, v));
        ASSERT_EQ(comp.FindInRange(l, r, v), raw.FindInRange(l, r, v));
        ASSERT_EQ(comp.FindInRange(l, r, v, &cache),
                  raw.FindInRange(l, r, v));
      }
      EXPECT_EQ(comp.MaxRangeWidth(l), raw.MaxRangeWidth(l));
    }
    EXPECT_EQ(comp.NumTuples(), raw.NumTuples());
  }
}

TEST(CompressedTrieTest, DensityHeuristicKeepsRootAndTinyLevelsRaw) {
  Rng rng(606);
  const Trie big = Trie::Compress(Trie::Build(BigGraph(rng, 6000, 256)));
  EXPECT_FALSE(big.level_compressed(0));  // root stays raw (min_level)
  EXPECT_TRUE(big.level_compressed(1));
  EXPECT_GT(big.CompressedBytes(), 0u);
  EXPECT_LT(big.ResidentBytes(), Trie::Build(BigGraph(rng, 6000, 256))
                                     .ResidentBytes());

  Relation tiny((Schema({0, 1})));
  tiny.Append({1, 2});
  tiny.Append({3, 4});
  tiny.SortAndDedup();
  const Trie t = Trie::Compress(Trie::Build(tiny));
  EXPECT_FALSE(t.any_compressed());  // below min_level_values
  EXPECT_EQ(t.CompressedBytes(), 0u);
}

TEST(CompressedTriePatchTest, CompressedPrevMatchesScratchBuild) {
  Rng rng(707);
  for (int round = 0; round < 10; ++round) {
    Relation base = BigGraph(rng, 3000, 200);
    Relation deletes((Schema({0, 1})));
    for (uint64_t r = 0; r < base.size(); ++r) {
      if (rng.Uniform(5) == 0) {
        std::span<const Value> row = base.Row(r);
        deletes.Append(std::vector<Value>(row.begin(), row.end()));
      }
    }
    deletes.SortAndDedup();
    Relation inserts((Schema({0, 1})));
    for (int i = 0; i < 40; ++i) {
      inserts.Append({Value(300 + rng.Uniform(50)), Value(rng.Uniform(200))});
    }
    inserts.SortAndDedup();

    std::vector<Value> merged_raw;
    storage::MergeDeltaRows(base.raw(), 2, inserts.raw(), deletes.raw(),
                            &merged_raw);
    Relation merged((Schema({0, 1})));
    merged.mutable_raw() = std::move(merged_raw);

    const Trie prev = Trie::Compress(Trie::Build(base));
    ASSERT_TRUE(prev.any_compressed());
    const Trie patched = Trie::PatchFrom(prev, inserts, deletes);
    const Trie built = Trie::Build(merged);
    ASSERT_EQ(patched.NumTuples(), built.NumTuples()) << "round " << round;
    for (int l = 0; l < built.arity(); ++l) {
      // Compressed levels stay compressed through the patch...
      EXPECT_EQ(patched.level_compressed(l), prev.level_compressed(l));
      // ...and decode to exactly the scratch build's arrays.
      std::vector<Value> pv, bv;
      patched.DecodeLevelInto(l, &pv);
      built.DecodeLevelInto(l, &bv);
      ASSERT_EQ(pv, bv) << "level " << l << " round " << round;
      ASSERT_TRUE(std::ranges::equal(patched.ChildBeginSpan(l),
                                     built.ChildBeginSpan(l)))
          << "level " << l << " round " << round;
      EXPECT_EQ(patched.MaxRangeWidth(l), built.MaxRangeWidth(l))
          << "level " << l << " round " << round;
    }
    // And the patched encoding is the canonical one: re-encoding the
    // merged rows from scratch yields identical compressed bytes.
    const Trie recomp = Trie::Compress(Trie::Build(merged));
    for (int l = 0; l < built.arity(); ++l) {
      if (!patched.level_compressed(l)) continue;
      ASSERT_TRUE(recomp.level_compressed(l));
      const bc::CompressedLevelView a = patched.CompressedView(l);
      const bc::CompressedLevelView b = recomp.CompressedView(l);
      EXPECT_TRUE(std::ranges::equal(a.bytes, b.bytes)) << "level " << l;
      EXPECT_TRUE(std::ranges::equal(a.mins, b.mins)) << "level " << l;
    }
  }
}

TEST(CompressedTriePatchTest, WideningPatchRecomputesMaxRangeWidth) {
  // Base: every key has exactly 2 children, so MaxRangeWidth(1) == 2.
  Relation base((Schema({0, 1})));
  for (Value k = 0; k < 40; ++k) {
    base.Append({k, 10});
    base.Append({k, 20});
  }
  base.SortAndDedup();
  const Trie prev = Trie::Build(base);
  ASSERT_EQ(prev.MaxRangeWidth(1), 2u);

  // Patch key 7 up to 9 children: the patched trie must report the new
  // maximum (a stale width would undersize executor arenas and is
  // exactly the regression this test pins).
  Relation inserts((Schema({0, 1})));
  for (Value v = 30; v < 37; ++v) inserts.Append({7, v});
  inserts.SortAndDedup();
  Relation deletes((Schema({0, 1})));
  const Trie patched = Trie::PatchFrom(prev, inserts, deletes);
  EXPECT_EQ(patched.MaxRangeWidth(1), 9u);
  EXPECT_EQ(patched.MaxRangeWidth(0), 40u);

  // Same through a compressed predecessor.
  const Trie cpatched = Trie::PatchFrom(
      Trie::Compress(Trie::Build(base), Trie::CompressOptions{.force = true}),
      inserts, deletes);
  EXPECT_EQ(cpatched.MaxRangeWidth(1), 9u);

  // And shrinking back down narrows it again — widths are recomputed,
  // never inherited.
  Relation redeletes = inserts;
  const Trie shrunk = Trie::PatchFrom(patched, Relation((Schema({0, 1}))),
                                      redeletes);
  EXPECT_EQ(shrunk.MaxRangeWidth(1), 2u);
}

TEST(CompressedTrieTest, FromMappedRejectsCorruptCompressedSegments) {
  Rng rng(808);
  Relation rel = BigGraph(rng, 2000, 150);
  const Trie src =
      Trie::Compress(Trie::Build(rel), Trie::CompressOptions{.force = true});
  ASSERT_TRUE(src.level_compressed(0) && src.level_compressed(1));

  // Hold copies of the compressed arrays as the "mapped" memory.
  struct Backing {
    std::vector<Value> mins[2];
    std::vector<uint32_t> starts[2];
    std::vector<uint8_t> bytes[2];
    std::vector<uint32_t> kids;
  };
  auto backing = std::make_shared<Backing>();
  for (int l = 0; l < 2; ++l) {
    const bc::CompressedLevelView v = src.CompressedView(l);
    backing->mins[l].assign(v.mins.begin(), v.mins.end());
    backing->starts[l].assign(v.starts.begin(), v.starts.end());
    backing->bytes[l].assign(v.bytes.begin(), v.bytes.end());
  }
  const std::span<const uint32_t> kids = src.ChildBeginSpan(0);
  backing->kids.assign(kids.begin(), kids.end());

  auto make_levels = [&]() {
    std::vector<Trie::MappedLevel> levels(2);
    for (int l = 0; l < 2; ++l) {
      levels[l].compressed = true;
      levels[l].num_values = src.LevelSize(l);
      levels[l].block_mins = backing->mins[l];
      levels[l].block_starts = backing->starts[l];
      levels[l].block_bytes = backing->bytes[l];
    }
    levels[0].child_begin = backing->kids;
    return levels;
  };

  {  // Intact segments load, probe like the source, recompute widths.
    StatusOr<Trie> mapped = Trie::FromMapped(make_levels(), backing);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    EXPECT_TRUE(mapped->mmap_backed());
    EXPECT_TRUE(mapped->any_compressed());
    EXPECT_EQ(mapped->NumTuples(), src.NumTuples());
    for (int l = 0; l < 2; ++l) {
      EXPECT_EQ(mapped->MaxRangeWidth(l), src.MaxRangeWidth(l));
      std::vector<Value> mv, sv;
      mapped->DecodeLevelInto(l, &mv);
      src.DecodeLevelInto(l, &sv);
      EXPECT_EQ(mv, sv);
    }
  }
  {  // Corrupt payload byte: structural validation must reject.
    auto corrupt = *backing;
    auto corrupt_ptr = std::make_shared<Backing>(corrupt);
    corrupt_ptr->bytes[1].resize(corrupt_ptr->bytes[1].size() / 3);
    std::vector<Trie::MappedLevel> levels(2);
    for (int l = 0; l < 2; ++l) {
      levels[l].compressed = true;
      levels[l].num_values = src.LevelSize(l);
      levels[l].block_mins = corrupt_ptr->mins[l];
      levels[l].block_starts = corrupt_ptr->starts[l];
      levels[l].block_bytes = corrupt_ptr->bytes[l];
    }
    levels[0].child_begin = corrupt_ptr->kids;
    EXPECT_FALSE(Trie::FromMapped(std::move(levels), corrupt_ptr).ok());
  }
  {  // Lying num_values: skip table no longer matches.
    std::vector<Trie::MappedLevel> levels = make_levels();
    levels[1].num_values += bc::kBlockValues;
    EXPECT_FALSE(Trie::FromMapped(std::move(levels), backing).ok());
  }
}

// ---------------------------------------------------------------------------
// Cross-engine property: raw, compressed, and snapshot-mapped
// compressed tries are interchangeable under every strategy.

constexpr core::Strategy kAllStrategies[] = {
    core::Strategy::kCommFirst, core::Strategy::kCachedCommFirst,
    core::Strategy::kBinaryJoin, core::Strategy::kBigJoin,
    core::Strategy::kCoOpt};

class CompressedStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressedStrategyTest, AllStrategiesMatchRawTrieCounts) {
  Rng rng(uint64_t(GetParam()) * 6151 + 11);
  Relation g = BigGraph(rng, 3000 + rng.Uniform(3000), 200);
  const char* kAttrs[] = {"a", "b", "c"};
  query::Query q = query::Query::Make(
      {kAttrs[0], kAttrs[1], kAttrs[2]},
      {query::Atom{"G", Schema({0, 1})}, query::Atom{"G", Schema({1, 2})},
       query::Atom{"G", Schema({0, 2})}});

  storage::Catalog raw_db;
  raw_db.index_cache().set_compress_tries(false);
  ASSERT_TRUE(
      raw_db.Apply(storage::WriteBatch().Create("G", Relation(g))).ok());
  storage::Catalog comp_db;
  ASSERT_TRUE(
      comp_db.Apply(storage::WriteBatch().Create("G", Relation(g))).ok());

  auto naive = wcoj::NaiveJoin(q, raw_db, 50'000'000);
  ASSERT_TRUE(naive.ok()) << naive.status();
  const uint64_t truth = naive->size();

  core::EngineOptions opts;
  opts.cluster.num_servers = 2;
  opts.num_samples = 32;
  core::Engine raw_engine(&raw_db);
  core::Engine comp_engine(&comp_db);
  for (core::Strategy s : kAllStrategies) {
    auto raw_report = raw_engine.Run(q, s, opts);
    ASSERT_TRUE(raw_report.ok() && raw_report->ok())
        << core::StrategyName(s);
    auto comp_report = comp_engine.Run(q, s, opts);
    ASSERT_TRUE(comp_report.ok() && comp_report->ok())
        << core::StrategyName(s);
    EXPECT_EQ(raw_report->output_count, truth) << core::StrategyName(s);
    EXPECT_EQ(comp_report->output_count, truth) << core::StrategyName(s);
  }
  // The compressed catalog really exercised compressed tries.
  bool any_compressed = false;
  for (const storage::IndexCache::ExportedPayload& p :
       comp_db.index_cache().ExportPermutedIndexes()) {
    any_compressed |= p.trie != nullptr && p.trie->any_compressed();
  }
  EXPECT_TRUE(any_compressed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressedStrategyTest,
                         ::testing::Range(0, 4));

TEST(CompressedStrategyTest, MappedCompressedTriesMatchAllStrategies) {
  const std::string path = TempPath("compressed_strategies.adjsnap");
  api::Database db;
  {
    Rng rng(909);
    db.AddRelation("G", BigGraph(rng, 5000, 220));
  }
  api::Session session = db.OpenSession();
  session.options().cluster.num_servers = 1;
  session.options().num_samples = 32;
  // Pin the cost model so the plan binds the base tries (and the run
  // touches compressed blocks) even on instrumented builds, where a
  // measured seek rate can flip the plan to a heap-built precompute.
  session.options().beta_precomputed_override = 4e6;
  session.options().beta_raw_override = 4e6;
  StatusOr<api::PreparedQuery> prepared =
      session.Prepare("G(a,b) G(b,c) G(a,c)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  api::Result warm = prepared->Run();
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_GT(warm.compressed_bytes(), 0u);
  ASSERT_TRUE(db.Save(path).ok());

  api::Database restarted;
  ASSERT_TRUE(restarted.Open(path).ok());
  // The snapshot loaded at least one mapped, still-compressed trie —
  // v3 stores compressed levels once and maps them in place.
  bool mapped_compressed = false;
  for (const storage::IndexCache::ExportedPayload& p :
       restarted.catalog().index_cache().ExportPermutedIndexes()) {
    mapped_compressed |= p.trie != nullptr && p.trie->mmap_backed() &&
                         p.trie->any_compressed();
  }
  EXPECT_TRUE(mapped_compressed);

  query::Query q = query::Query::Make(
      {"a", "b", "c"},
      {query::Atom{"G", Schema({0, 1})}, query::Atom{"G", Schema({1, 2})},
       query::Atom{"G", Schema({0, 2})}});
  core::EngineOptions opts;
  opts.cluster.num_servers = 1;
  opts.num_samples = 32;
  core::Engine engine(&restarted.catalog());
  for (core::Strategy s : kAllStrategies) {
    auto report = engine.Run(q, s, opts);
    ASSERT_TRUE(report.ok() && report->ok()) << core::StrategyName(s);
    EXPECT_EQ(report->output_count, warm.count()) << core::StrategyName(s);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adj
