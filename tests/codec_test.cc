#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "storage/codec.h"

namespace adj::storage {
namespace {

TEST(VarintTest, RoundTripBoundaries) {
  std::vector<uint8_t> buf;
  const uint64_t cases[] = {0,       1,          127,        128,
                            16383,   16384,      0xFFFFFFFF, 1ull << 40,
                            ~0ull};
  for (uint64_t v : cases) PutVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : cases) {
    auto got = GetVarint(buf, &pos);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, TruncatedFails) {
  std::vector<uint8_t> buf;
  PutVarint(1ull << 40, &buf);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(GetVarint(buf, &pos).ok());
}

TEST(SortedValuesTest, RoundTrip) {
  std::vector<Value> vals = {3, 3, 7, 100, 100000, 4000000000u};
  std::vector<uint8_t> buf;
  EncodeSortedValues(vals, &buf);
  size_t pos = 0;
  std::vector<Value> out;
  ASSERT_TRUE(DecodeSortedValues(buf, &pos, &out).ok());
  EXPECT_EQ(out, vals);
}

TEST(SortedValuesTest, DeltaCompressionIsCompact) {
  // Dense ascending run: ~1 byte per value after the first.
  std::vector<Value> vals;
  for (Value v = 1000000; v < 1004096; ++v) vals.push_back(v);
  std::vector<uint8_t> buf;
  EncodeSortedValues(vals, &buf);
  EXPECT_LT(buf.size(), vals.size() + 16);
}

TEST(RelationBlockTest, RoundTripRandom) {
  Rng rng(11);
  Relation rel = dataset::ErdosRenyi(500, 4000, rng);
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  auto decoded = DecodeRelationBlock(buf, rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::ranges::equal(decoded->raw(), rel.raw()));
}

TEST(RelationBlockTest, RoundTripWideRows) {
  Relation rel(Schema({0, 1, 2, 3, 4}));
  Rng rng(13);
  for (int i = 0; i < 300; ++i) {
    rel.Append({Value(rng.Uniform(5)), Value(rng.Uniform(5)),
                Value(rng.Uniform(5)), Value(rng.Uniform(1000000)),
                Value(rng.Uniform(5))});
  }
  rel.SortAndDedup();
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  auto decoded = DecodeRelationBlock(buf, rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::ranges::equal(decoded->raw(), rel.raw()));
}

TEST(RelationBlockTest, EmptyRelation) {
  Relation rel(Schema({0, 1}));
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  auto decoded = DecodeRelationBlock(buf, rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RelationBlockTest, CompressesBelowRawWidth) {
  Rng rng(17);
  Relation rel = dataset::ZipfGraph(2000, 30000, 0.8, rng);
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  EXPECT_LT(buf.size(), rel.SizeBytes());
}

TEST(RelationBlockTest, ArityMismatchRejected) {
  Relation rel(Schema({0, 1}));
  rel.Append({1, 2});
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  EXPECT_FALSE(DecodeRelationBlock(buf, Schema({0, 1, 2})).ok());
}

TEST(RelationBlockTest, CorruptBufferRejectedNotCrashing) {
  Rng rng(19);
  Relation rel = dataset::ErdosRenyi(50, 200, rng);
  std::vector<uint8_t> buf = EncodeRelationBlock(rel);
  buf.resize(buf.size() / 2);  // truncate
  auto decoded = DecodeRelationBlock(buf, rel.schema());
  EXPECT_FALSE(decoded.ok());
}

TEST(TrieBlockTest, RoundTripViaRelation) {
  Rng rng(23);
  Relation rel = dataset::ErdosRenyi(300, 2500, rng);
  Trie trie = Trie::Build(rel);
  std::vector<uint8_t> buf = EncodeTrieBlock(trie);
  auto decoded = DecodeTrieBlockToRelation(buf, rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::ranges::equal(decoded->raw(), rel.raw()));
}

TEST(TrieBlockTest, TernaryTrieRoundTrip) {
  Relation rel(Schema({0, 1, 2}));
  Rng rng(29);
  for (int i = 0; i < 500; ++i) {
    rel.Append({Value(rng.Uniform(8)), Value(rng.Uniform(8)),
                Value(rng.Uniform(8))});
  }
  rel.SortAndDedup();
  Trie trie = Trie::Build(rel);
  auto decoded = DecodeTrieBlockToRelation(EncodeTrieBlock(trie),
                                           rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::ranges::equal(decoded->raw(), rel.raw()));
}

TEST(TrieBlockTest, SmallerThanTupleBlockOnSharedPrefixes) {
  // Heavy prefix sharing: trie encoding strictly smaller than the
  // tuple-block encoding — the Merge-vs-Pull bytes effect.
  Relation rel(Schema({0, 1}));
  for (Value u = 0; u < 50; ++u) {
    for (Value v = 0; v < 200; ++v) rel.Append({u, v * 97});
  }
  rel.SortAndDedup();
  Trie trie = Trie::Build(rel);
  EXPECT_LT(EncodeTrieBlock(trie).size(),
            EncodeRelationBlock(rel).size() * 1.2);
}

TEST(TrieBlockTest, EmptyTrie) {
  Relation rel(Schema({0, 1}));
  Trie trie = Trie::Build(rel);
  auto decoded = DecodeTrieBlockToRelation(EncodeTrieBlock(trie),
                                           rel.schema());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(EncodedSizeTest, SizesEqualEncodedBufferOnRandomInputs) {
  // The allocation-free size functions HCube's wire accounting uses
  // must agree byte for byte with the buffers they stand in for:
  // arities 1-4, empty to a few hundred rows, small domains (long
  // shared prefixes) and wide ones (multi-byte varints), sorted and
  // unsorted rows, and the empty default trie.
  Rng rng(31);
  for (int round = 0; round < 60; ++round) {
    const int arity = 1 + int(rng.Uniform(4));
    std::vector<AttrId> attrs(static_cast<size_t>(arity));
    for (int i = 0; i < arity; ++i) attrs[size_t(i)] = i;
    Relation rel(Schema{attrs});
    const uint64_t domain = rng.Uniform(2) == 0 ? 6 : 4000000000ull;
    for (uint64_t r = rng.Uniform(300); r > 0; --r) {
      std::vector<Value> row(static_cast<size_t>(arity));
      for (Value& v : row) v = Value(rng.Uniform(domain));
      rel.Append(row);
    }
    if (round % 4 != 0) rel.SortAndDedup();
    EXPECT_EQ(EncodedRelationBlockSize(rel), EncodeRelationBlock(rel).size())
        << "round " << round;
    if (round % 4 == 0) continue;  // tries need canonical rows
    const Trie trie = Trie::Build(rel);
    EXPECT_EQ(EncodedTrieBlockSize(trie), EncodeTrieBlock(trie).size())
        << "round " << round;
  }
  const Trie empty;
  EXPECT_EQ(EncodedTrieBlockSize(empty), EncodeTrieBlock(empty).size());
}

}  // namespace
}  // namespace adj::storage
