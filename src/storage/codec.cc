#include "storage/codec.h"

#include <functional>

namespace adj::storage {

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

StatusOr<uint64_t> GetVarint(const std::vector<uint8_t>& buf, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < buf.size()) {
    const uint8_t byte = buf[(*pos)++];
    v |= uint64_t(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) break;
  }
  return Status::OutOfRange("truncated varint");
}

void EncodeSortedValues(std::span<const Value> values,
                        std::vector<uint8_t>* out) {
  PutVarint(values.size(), out);
  Value prev = 0;
  for (Value v : values) {
    PutVarint(uint64_t(v) - uint64_t(prev), out);
    prev = v;
  }
}

Status DecodeSortedValues(const std::vector<uint8_t>& buf, size_t* pos,
                          std::vector<Value>* out) {
  StatusOr<uint64_t> count = GetVarint(buf, pos);
  if (!count.ok()) return count.status();
  out->clear();
  out->reserve(*count);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    StatusOr<uint64_t> delta = GetVarint(buf, pos);
    if (!delta.ok()) return delta.status();
    prev += *delta;
    if (prev > 0xFFFFFFFFull) return Status::OutOfRange("value overflow");
    out->push_back(static_cast<Value>(prev));
  }
  return Status::OK();
}

namespace {

uint64_t VarintSize(uint64_t v) {
  uint64_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Byte sinks for the block writers below: one appends the encoding,
/// the other only counts it, so a wire size never allocates.
struct ByteWriter {
  std::vector<uint8_t>* out;
  void Varint(uint64_t v) { PutVarint(v, out); }
};
struct ByteCounter {
  uint64_t bytes = 0;
  void Varint(uint64_t v) { bytes += VarintSize(v); }
};

/// One row of a tuple block: the length of its common prefix with the
/// previous row (none for the first row), then a delta for the first
/// differing column and absolute values after it.
template <class Sink>
void WriteRow(const Value* prev, const Value* row, int k, Sink& sink) {
  int common = 0;
  if (prev != nullptr) {
    while (common < k && prev[common] == row[common]) ++common;
  }
  sink.Varint(uint64_t(common));
  for (int c = common; c < k; ++c) {
    if (c == common && prev != nullptr) {
      // Sorted input: first differing column strictly increases.
      sink.Varint(uint64_t(row[c]) - uint64_t(prev[c]));
    } else {
      sink.Varint(uint64_t(row[c]));
    }
  }
}

template <class Sink>
void WriteRelationBlock(const Relation& rel, Sink& sink) {
  const int k = rel.arity();
  sink.Varint(uint64_t(k));
  sink.Varint(rel.size());
  const Value* prev = nullptr;
  for (uint64_t r = 0; r < rel.size(); ++r) {
    const Value* row = rel.Row(r).data();
    WriteRow(prev, row, k, sink);
    prev = row;
  }
}

template <class Sink>
void WriteTrieBlock(const Trie& trie, Sink& sink) {
  const int k = trie.arity();
  sink.Varint(uint64_t(k));
  for (int l = 0; l < k; ++l) {
    // Values per level are sorted runs *within a parent*; across
    // parents they restart, so encode raw varints (still small) for
    // robustness, plus the child offsets as a sorted sequence.
    std::span<const Value> values = trie.values(l);
    sink.Varint(values.size());
    for (Value v : values) sink.Varint(uint64_t(v));
    if (l + 1 < k) {
      // Offsets ascend: delta-encoded as EncodeSortedValues does —
      // count, then each offset minus its predecessor.
      sink.Varint(values.size() + 1);
      uint64_t prev = 0;
      for (uint32_t i = 0; i < values.size(); ++i) {
        const uint64_t lo = trie.ChildRange(l, i).lo;
        sink.Varint(lo - prev);
        prev = lo;
      }
      const uint64_t end =
          values.empty()
              ? 0
              : trie.ChildRange(l, uint32_t(values.size()) - 1).hi;
      sink.Varint(end - prev);
    }
  }
}

}  // namespace

std::vector<uint8_t> EncodeRelationBlock(const Relation& rel) {
  std::vector<uint8_t> out;
  ByteWriter sink{&out};
  WriteRelationBlock(rel, sink);
  return out;
}

uint64_t EncodedRelationBlockSize(const Relation& rel) {
  ByteCounter sink;
  WriteRelationBlock(rel, sink);
  return sink.bytes;
}

StatusOr<Relation> DecodeRelationBlock(const std::vector<uint8_t>& buf,
                                       const Schema& schema) {
  size_t pos = 0;
  StatusOr<uint64_t> arity = GetVarint(buf, &pos);
  if (!arity.ok()) return arity.status();
  if (int(*arity) != schema.arity()) {
    return Status::InvalidArgument("block arity does not match schema");
  }
  StatusOr<uint64_t> rows = GetVarint(buf, &pos);
  if (!rows.ok()) return rows.status();
  const int k = schema.arity();
  Relation rel(schema);
  rel.Reserve(*rows);
  std::vector<Value> prev(k, 0);
  for (uint64_t r = 0; r < *rows; ++r) {
    StatusOr<uint64_t> common = GetVarint(buf, &pos);
    if (!common.ok()) return common.status();
    if (*common > uint64_t(k)) return Status::OutOfRange("bad prefix len");
    for (int c = int(*common); c < k; ++c) {
      StatusOr<uint64_t> coded = GetVarint(buf, &pos);
      if (!coded.ok()) return coded.status();
      uint64_t value = *coded;
      if (c == int(*common) && r > 0) value += prev[size_t(c)];
      if (value > 0xFFFFFFFFull) return Status::OutOfRange("value overflow");
      prev[size_t(c)] = static_cast<Value>(value);
    }
    rel.Append(std::span<const Value>(prev.data(), size_t(k)));
  }
  return rel;
}

std::vector<uint8_t> EncodeTrieBlock(const Trie& trie) {
  std::vector<uint8_t> out;
  ByteWriter sink{&out};
  WriteTrieBlock(trie, sink);
  return out;
}

uint64_t EncodedTrieBlockSize(const Trie& trie) {
  ByteCounter sink;
  WriteTrieBlock(trie, sink);
  return sink.bytes;
}

StatusOr<Relation> DecodeTrieBlockToRelation(const std::vector<uint8_t>& buf,
                                             const Schema& schema) {
  size_t pos = 0;
  StatusOr<uint64_t> arity = GetVarint(buf, &pos);
  if (!arity.ok()) return arity.status();
  const int k = int(*arity);
  if (k != schema.arity()) {
    return Status::InvalidArgument("trie block arity mismatch");
  }
  std::vector<std::vector<Value>> values(k);
  std::vector<std::vector<Value>> offsets(k);  // per level, size+1
  for (int l = 0; l < k; ++l) {
    StatusOr<uint64_t> count = GetVarint(buf, &pos);
    if (!count.ok()) return count.status();
    values[size_t(l)].reserve(*count);
    for (uint64_t i = 0; i < *count; ++i) {
      StatusOr<uint64_t> v = GetVarint(buf, &pos);
      if (!v.ok()) return v.status();
      values[size_t(l)].push_back(static_cast<Value>(*v));
    }
    if (l + 1 < k) {
      ADJ_RETURN_IF_ERROR(DecodeSortedValues(buf, &pos, &offsets[size_t(l)]));
      if (offsets[size_t(l)].size() != values[size_t(l)].size() + 1) {
        return Status::OutOfRange("trie offsets inconsistent");
      }
    }
  }
  // Reconstruct rows by walking the implied trie (depth <= arity).
  Relation rel(schema);
  std::vector<Value> row(k);
  std::function<Status(int, uint32_t, uint32_t)> walk =
      [&](int level, uint32_t lo, uint32_t hi) -> Status {
    for (uint32_t i = lo; i < hi; ++i) {
      row[size_t(level)] = values[size_t(level)][i];
      if (level + 1 == k) {
        rel.Append(row);
      } else {
        const uint32_t clo = offsets[size_t(level)][i];
        const uint32_t chi = offsets[size_t(level)][i + 1];
        if (chi < clo || chi > values[size_t(level) + 1].size()) {
          return Status::OutOfRange("trie child range corrupt");
        }
        ADJ_RETURN_IF_ERROR(walk(level + 1, clo, chi));
      }
    }
    return Status::OK();
  };
  if (k > 0 && !values[0].empty()) {
    ADJ_RETURN_IF_ERROR(walk(0, 0, uint32_t(values[0].size())));
  }
  return rel;
}

}  // namespace adj::storage
