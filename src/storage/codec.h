#ifndef ADJ_STORAGE_CODEC_H_
#define ADJ_STORAGE_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/relation.h"
#include "storage/trie.h"

namespace adj::storage {

/// Wire codecs for the two block payloads HCube ships (Sec. V): tuple
/// blocks (Push/Pull) and pre-built trie blocks (Merge). Sorted runs
/// compress well under delta + varint; the trie layout ("three
/// arrays") both compresses better and deserializes without a sort —
/// the effect behind Fig. 9's Pull-vs-Merge gap.

/// LEB128 unsigned varint.
void PutVarint(uint64_t v, std::vector<uint8_t>* out);
StatusOr<uint64_t> GetVarint(const std::vector<uint8_t>& buf, size_t* pos);

/// Encodes a sorted ascending value run as deltas (first value
/// absolute).
void EncodeSortedValues(std::span<const Value> values,
                        std::vector<uint8_t>* out);
Status DecodeSortedValues(const std::vector<uint8_t>& buf, size_t* pos,
                          std::vector<Value>* out);

/// Tuple block: rows (must be lexicographically sorted for effective
/// compression, not required for correctness).
/// Layout: arity, row-count, then rows with shared-prefix + delta
/// encoding against the previous row.
std::vector<uint8_t> EncodeRelationBlock(const Relation& rel);
/// EncodeRelationBlock(rel).size(), computed without building the
/// buffer — what HCube's wire accounting needs.
uint64_t EncodedRelationBlockSize(const Relation& rel);
StatusOr<Relation> DecodeRelationBlock(const std::vector<uint8_t>& buf,
                                       const Schema& schema);

/// Trie block: the CSR level arrays, each varint-delta encoded.
std::vector<uint8_t> EncodeTrieBlock(const Trie& trie);
/// EncodeTrieBlock(trie).size(), computed without building the buffer.
uint64_t EncodedTrieBlockSize(const Trie& trie);
/// Decodes by reconstructing the relation rows and rebuilding; the
/// payload is what matters for transfer accounting, and rebuild from
/// sorted data is linear.
StatusOr<Relation> DecodeTrieBlockToRelation(const std::vector<uint8_t>& buf,
                                             const Schema& schema);

}  // namespace adj::storage

#endif  // ADJ_STORAGE_CODEC_H_
