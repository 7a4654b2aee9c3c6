#include "persist/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "common/hash.h"

namespace adj::persist {

using storage::Relation;
using storage::Schema;
using storage::Trie;

uint64_t Checksum(const uint8_t* data, size_t n) {
  // Mix64-chained over 64-bit words: word speed on the hot path (a
  // snapshot open reads every byte through this once), order- and
  // length-sensitive.
  uint64_t h = Mix64(0x5A4D5348ULL ^ n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = Mix64(h ^ w);
  }
  if (i < n) {
    uint64_t tail = 0;
    std::memcpy(&tail, data + i, n - i);
    h = Mix64(h ^ tail ^ (uint64_t(n - i) << 56));
  }
  return h;
}

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

namespace {

// ---------------------------------------------------------------------------
// Varint-based manifest helpers.

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

void PutString(const std::string& s, std::vector<uint8_t>* out) {
  PutVarint(s.size(), out);
  out->insert(out->end(), s.begin(), s.end());
}

StatusOr<std::string> GetString(const std::vector<uint8_t>& buf, size_t* pos) {
  StatusOr<uint64_t> len = GetVarint(buf, pos);
  if (!len.ok()) return len.status();
  if (*len > buf.size() - *pos) {
    return Status::OutOfRange("snapshot manifest: string overruns buffer");
  }
  std::string s(buf.begin() + *pos, buf.begin() + *pos + *len);
  *pos += *len;
  return s;
}

void PutSchema(const Schema& schema, std::vector<uint8_t>* out) {
  PutVarint(schema.arity(), out);
  for (AttrId a : schema.attrs()) PutVarint(ZigZag(a), out);
}

StatusOr<Schema> GetSchema(const std::vector<uint8_t>& buf, size_t* pos) {
  StatusOr<uint64_t> arity = GetVarint(buf, pos);
  if (!arity.ok()) return arity.status();
  if (*arity > 64) {
    return Status::InvalidArgument("snapshot manifest: implausible arity " +
                                   std::to_string(*arity));
  }
  std::vector<AttrId> attrs;
  attrs.reserve(*arity);
  for (uint64_t i = 0; i < *arity; ++i) {
    StatusOr<uint64_t> a = GetVarint(buf, pos);
    if (!a.ok()) return a.status();
    attrs.push_back(static_cast<AttrId>(UnZigZag(*a)));
  }
  return Schema(std::move(attrs));
}

// ---------------------------------------------------------------------------
// Little-endian fixed-width IO for header/footer.

void PutFixed32(uint32_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
void PutFixed64(uint64_t v, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xFF);
}
uint32_t GetFixed32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
  return v;
}
uint64_t GetFixed64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
  return v;
}

template <typename T>
std::span<const uint8_t> BytesOf(std::span<const T> xs) {
  return {reinterpret_cast<const uint8_t*>(xs.data()), xs.size_bytes()};
}

// ---------------------------------------------------------------------------
// Streaming segment writer: data segments at 64-byte alignment, TOC
// and footer at the end, all through one temp file.

class FileBuilder {
 public:
  explicit FileBuilder(const std::string& path)
      : out_(path, std::ios::binary | std::ios::trunc) {}

  bool ok() const { return out_.good(); }

  void WriteRaw(std::span<const uint8_t> bytes) {
    out_.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    offset_ += bytes.size();
  }

  /// Appends one segment (padded to alignment first) and returns its
  /// TOC index.
  uint32_t AddSegment(SegmentKind kind, std::span<const uint8_t> bytes) {
    static const std::array<uint8_t, kSegmentAlign> zeros = {};
    const uint64_t pad = (kSegmentAlign - offset_ % kSegmentAlign) %
                         kSegmentAlign;
    if (pad > 0) WriteRaw(std::span<const uint8_t>(zeros.data(), pad));
    SegmentInfo info;
    info.kind = kind;
    info.offset = offset_;
    info.size = bytes.size();
    info.checksum = Checksum(bytes.data(), bytes.size());
    WriteRaw(bytes);
    toc_.push_back(info);
    return static_cast<uint32_t>(toc_.size() - 1);
  }

  const std::vector<SegmentInfo>& toc() const { return toc_; }
  uint64_t offset() const { return offset_; }

  Status Finish(uint32_t manifest_segment) {
    std::vector<uint8_t> toc_bytes;
    PutVarint(toc_.size(), &toc_bytes);
    for (const SegmentInfo& s : toc_) {
      toc_bytes.push_back(static_cast<uint8_t>(s.kind));
      PutVarint(s.offset, &toc_bytes);
      PutVarint(s.size, &toc_bytes);
      PutFixed64(s.checksum, &toc_bytes);
    }
    const uint64_t toc_offset = offset_;
    const uint64_t toc_checksum = Checksum(toc_bytes.data(), toc_bytes.size());
    WriteRaw(toc_bytes);
    std::vector<uint8_t> footer;
    PutFixed64(toc_offset, &footer);
    PutFixed64(toc_bytes.size(), &footer);
    PutFixed64(toc_checksum, &footer);
    PutFixed32(manifest_segment, &footer);
    PutFixed32(0, &footer);  // pad: magic sits at footer+32
    footer.insert(footer.end(), kFooterMagic, kFooterMagic + 8);
    WriteRaw(footer);
    out_.flush();
    if (!out_.good()) return Status::Internal("snapshot write failed");
    out_.close();
    return Status::OK();
  }

 private:
  std::ofstream out_;
  uint64_t offset_ = 0;
  std::vector<SegmentInfo> toc_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Writer

StatusOr<WriteStats> SnapshotWriter::Write(const storage::Catalog& catalog,
                                           const std::string& path) {
  WriteStats stats;
  const std::string tmp = path + ".tmp";
  FileBuilder builder(tmp);
  if (!builder.ok()) {
    return Status::InvalidArgument("cannot create snapshot file '" + tmp +
                                   "'");
  }

  // Header.
  {
    std::vector<uint8_t> header(kMagic, kMagic + 8);
    PutFixed32(kVersion, &header);
    // Written in *native* byte order on purpose: a reader on the other
    // endianness sees the byte-swapped tag and refuses, because every
    // raw array segment is native-order too.
    const uint8_t* tag = reinterpret_cast<const uint8_t*>(&kEndianTag);
    header.insert(header.end(), tag, tag + 4);
    PutFixed32(sizeof(Value), &header);
    header.resize(kHeaderSize, 0);
    builder.WriteRaw(header);
  }

  // Distinct physical relations — each entry's base and effective
  // (same pointer until the first write) — then the per-name entry
  // states over them.
  std::vector<std::string> names = catalog.Names();
  std::map<const Relation*, uint32_t> phys_index;
  std::vector<std::shared_ptr<const Relation>> phys;
  struct NamedEntry {
    std::string name;
    storage::Catalog::EntryState state;
  };
  std::vector<NamedEntry> entries;
  auto intern = [&](const std::shared_ptr<const Relation>& rel) {
    auto [it, inserted] =
        phys_index.emplace(rel.get(), static_cast<uint32_t>(phys.size()));
    if (inserted) phys.push_back(rel);
    return it->second;
  };
  for (const std::string& name : names) {
    StatusOr<storage::Catalog::EntryState> state = catalog.Inspect(name);
    if (!state.ok()) return state.status();
    intern(state->base);
    intern(state->effective);
    entries.push_back({name, std::move(*state)});
  }

  std::vector<uint8_t> manifest;
  PutVarint(phys.size(), &manifest);
  for (const auto& rel : phys) {
    PutSchema(rel->schema(), &manifest);
    PutVarint(rel->size(), &manifest);
    const uint32_t rows_seg =
        builder.AddSegment(SegmentKind::kRelationRows, BytesOf(rel->raw()));
    PutVarint(rows_seg, &manifest);
  }
  stats.relations = phys.size();
  // Per-name entry state: base + effective physical indexes, version,
  // and the pending delta chain with its rows inline — chains are
  // bounded by the compaction threshold, so this stays a small varint
  // run inside the (checksummed) manifest rather than aligned
  // segments.
  PutVarint(entries.size(), &manifest);
  for (const NamedEntry& e : entries) {
    PutString(e.name, &manifest);
    PutVarint(phys_index.at(e.state.base.get()), &manifest);
    PutVarint(phys_index.at(e.state.effective.get()), &manifest);
    PutVarint(e.state.version, &manifest);
    PutVarint(e.state.deltas.size(), &manifest);
    for (const auto& delta : e.state.deltas) {
      for (const Relation* side : {&delta->inserts, &delta->deletes}) {
        PutVarint(side->size(), &manifest);
        for (Value v : side->raw()) PutVarint(v, &manifest);
      }
    }
  }
  stats.names = entries.size();

  // Resident permuted-index payloads whose base is a catalog relation
  // (the cache may also hold indexes over execution-catalog bags and
  // shuffle shards; those are derived state, rebuilt on demand).
  // Ascending LRU order, so restore re-creates the same hotness order.
  std::vector<storage::IndexCache::ExportedPayload> payloads =
      catalog.index_cache().ExportPermutedIndexes();
  std::erase_if(payloads, [&](const auto& p) {
    return phys_index.find(static_cast<const Relation*>(p.identity)) ==
           phys_index.end();
  });
  std::sort(payloads.begin(), payloads.end(),
            [](const auto& a, const auto& b) { return a.lru_tick < b.lru_tick; });
  PutVarint(payloads.size(), &manifest);
  for (const auto& p : payloads) {
    PutVarint(
        phys_index.at(static_cast<const Relation*>(p.identity)), &manifest);
    PutVarint(p.perm.size(), &manifest);
    for (int x : p.perm) PutVarint(ZigZag(x), &manifest);
    PutVarint(p.rows->size(), &manifest);
    const uint32_t rows_seg =
        builder.AddSegment(SegmentKind::kPayloadRows, BytesOf(p.rows->raw()));
    PutVarint(rows_seg, &manifest);
    PutVarint(p.trie != nullptr ? 1 : 0, &manifest);
    if (p.trie != nullptr) {
      const Trie& t = *p.trie;
      for (int l = 0; l < t.arity(); ++l) {
        std::span<const uint32_t> kids = t.ChildBeginSpan(l);
        PutVarint(t.LevelSize(l), &manifest);
        PutVarint(t.level_compressed(l) ? 1 : 0, &manifest);
        if (t.level_compressed(l)) {
          // The blockcodec arrays are the stored form — mapped in
          // place on open, no raw copy.
          const storage::blockcodec::CompressedLevelView cv =
              t.CompressedView(l);
          const uint32_t mseg = builder.AddSegment(
              SegmentKind::kTrieLevelMins, BytesOf(cv.mins));
          const uint32_t sseg = builder.AddSegment(
              SegmentKind::kTrieLevelStarts, BytesOf(cv.starts));
          const uint32_t bseg =
              builder.AddSegment(SegmentKind::kTrieLevelBytes, cv.bytes);
          PutVarint(mseg, &manifest);
          PutVarint(sseg, &manifest);
          PutVarint(bseg, &manifest);
          ++stats.compressed_levels;
        } else {
          std::span<const Value> vals = t.LevelSpan(l);
          const uint32_t vseg =
              builder.AddSegment(SegmentKind::kTrieValues, BytesOf(vals));
          PutVarint(vseg, &manifest);
        }
        if (l + 1 < t.arity()) {
          const uint32_t cseg =
              builder.AddSegment(SegmentKind::kTrieChild, BytesOf(kids));
          PutVarint(uint64_t{cseg} + 1, &manifest);
        } else {
          PutVarint(0, &manifest);
        }
      }
    }
  }

  const uint32_t manifest_seg =
      builder.AddSegment(SegmentKind::kManifest, manifest);
  ADJ_RETURN_IF_ERROR(builder.Finish(manifest_seg));
  if (!builder.ok()) {
    std::remove(tmp.c_str());
    return Status::Internal("snapshot write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot move snapshot into place at '" + path +
                            "'");
  }
  stats.file_bytes = builder.offset();
  return stats;
}

// ---------------------------------------------------------------------------
// Reader

StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  SnapshotReader reader;
  StatusOr<std::shared_ptr<const MappedFile>> file = MappedFile::Open(path);
  if (!file.ok()) return file.status();
  reader.file_ = std::move(*file);
  const MappedFile& f = *reader.file_;

  if (f.size() < kHeaderSize + kFooterSize) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' truncated: smaller than header+footer");
  }
  // Header checks, most-specific first: magic, endianness, version,
  // value width.
  if (std::memcmp(f.data(), kMagic, 8) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a snapshot (magic)");
  }
  const uint32_t version = GetFixed32(f.data() + 8);
  uint32_t endian_tag;
  std::memcpy(&endian_tag, f.data() + 12, 4);
  if (endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "snapshot '" + path +
        "' was written on a platform with different endianness");
  }
  if (version != kVersion) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kVersion));
  }
  const uint32_t value_size = GetFixed32(f.data() + 16);
  if (value_size != sizeof(Value)) {
    return Status::InvalidArgument("snapshot '" + path + "' stores " +
                                   std::to_string(value_size) +
                                   "-byte values; this build uses " +
                                   std::to_string(sizeof(Value)));
  }

  // Footer -> TOC.
  const uint8_t* footer = f.data() + f.size() - kFooterSize;
  if (std::memcmp(footer + 32, kFooterMagic, 8) != 0) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' truncated: footer magic missing");
  }
  const uint64_t toc_offset = GetFixed64(footer);
  const uint64_t toc_size = GetFixed64(footer + 8);
  const uint64_t toc_checksum = GetFixed64(footer + 16);
  const uint32_t manifest_seg = GetFixed32(footer + 24);
  StatusOr<std::span<const uint8_t>> toc_bytes = f.View(toc_offset, toc_size);
  if (!toc_bytes.ok()) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "' truncated: TOC out of bounds");
  }
  if (Checksum(toc_bytes->data(), toc_bytes->size()) != toc_checksum) {
    return Status::InvalidArgument("snapshot '" + path +
                                   "': TOC checksum mismatch");
  }
  {
    const std::vector<uint8_t> buf(toc_bytes->begin(), toc_bytes->end());
    size_t pos = 0;
    StatusOr<uint64_t> count = GetVarint(buf, &pos);
    if (!count.ok()) return count.status();
    reader.segments_.reserve(*count);
    for (uint64_t i = 0; i < *count; ++i) {
      if (pos >= buf.size()) {
        return Status::OutOfRange("snapshot TOC truncated");
      }
      SegmentInfo info;
      info.kind = static_cast<SegmentKind>(buf[pos++]);
      StatusOr<uint64_t> off = GetVarint(buf, &pos);
      if (!off.ok()) return off.status();
      StatusOr<uint64_t> size = GetVarint(buf, &pos);
      if (!size.ok()) return size.status();
      if (pos + 8 > buf.size()) {
        return Status::OutOfRange("snapshot TOC truncated");
      }
      info.offset = *off;
      info.size = *size;
      info.checksum = GetFixed64(buf.data() + pos);
      pos += 8;
      // Bounds once, here: everything downstream trusts these.
      if (!f.View(info.offset, info.size).ok()) {
        return Status::InvalidArgument(
            "snapshot segment " + std::to_string(i) + " out of bounds");
      }
      reader.segments_.push_back(info);
    }
  }
  if (manifest_seg >= reader.segments_.size()) {
    return Status::InvalidArgument("snapshot manifest segment out of range");
  }

  // Manifest parse (checksum-guarded: a flipped manifest byte must not
  // turn into a wild segment reference).
  const SegmentInfo& m = reader.segments_[manifest_seg];
  StatusOr<std::span<const uint8_t>> mbytes = f.View(m.offset, m.size);
  if (!mbytes.ok()) return mbytes.status();
  if (Checksum(mbytes->data(), mbytes->size()) != m.checksum) {
    return Status::InvalidArgument("snapshot manifest checksum mismatch");
  }
  const std::vector<uint8_t> buf(mbytes->begin(), mbytes->end());
  size_t pos = 0;
  const uint64_t num_segments = reader.segments_.size();
  auto get = [&](const char* what) -> StatusOr<uint64_t> {
    StatusOr<uint64_t> v = GetVarint(buf, &pos);
    if (!v.ok()) {
      return Status::OutOfRange(std::string("snapshot manifest truncated at ") +
                                what);
    }
    return v;
  };
  auto get_seg = [&](const char* what) -> StatusOr<uint64_t> {
    StatusOr<uint64_t> v = get(what);
    if (!v.ok()) return v.status();
    if (*v >= num_segments) {
      return Status::InvalidArgument(
          std::string("snapshot manifest: segment reference out of range (") +
          what + ")");
    }
    return v;
  };

  StatusOr<uint64_t> num_phys = get("relation count");
  if (!num_phys.ok()) return num_phys.status();
  for (uint64_t i = 0; i < *num_phys; ++i) {
    PhysRel rel;
    StatusOr<Schema> schema = GetSchema(buf, &pos);
    if (!schema.ok()) return schema.status();
    rel.schema = std::move(*schema);
    StatusOr<uint64_t> rows = get("relation rows");
    if (!rows.ok()) return rows.status();
    rel.row_count = *rows;
    StatusOr<uint64_t> seg = get_seg("relation rows segment");
    if (!seg.ok()) return seg.status();
    rel.rows_seg = static_cast<uint32_t>(*seg);
    const uint64_t expect =
        rel.row_count * uint64_t(rel.schema.arity()) * sizeof(Value);
    if (reader.segments_[rel.rows_seg].size != expect) {
      return Status::InvalidArgument(
          "snapshot relation " + std::to_string(i) +
          ": segment size disagrees with row count");
    }
    reader.relations_.push_back(std::move(rel));
  }

  StatusOr<uint64_t> num_names = get("name count");
  if (!num_names.ok()) return num_names.status();
  for (uint64_t i = 0; i < *num_names; ++i) {
    NameEntry entry;
    StatusOr<std::string> name = GetString(buf, &pos);
    if (!name.ok()) return name.status();
    entry.name = std::move(*name);
    for (auto [field, what] : {std::pair<uint32_t*, const char*>(
                                   &entry.base, "name base relation"),
                               {&entry.effective, "name effective relation"}}) {
      StatusOr<uint64_t> index = get(what);
      if (!index.ok()) return index.status();
      if (*index >= reader.relations_.size()) {
        return Status::InvalidArgument(
            "snapshot manifest: name '" + entry.name + "' references " +
            what + " " + std::to_string(*index) + " of " +
            std::to_string(reader.relations_.size()));
      }
      *field = static_cast<uint32_t>(*index);
    }
    const int arity = reader.relations_[entry.base].schema.arity();
    if (reader.relations_[entry.effective].schema.arity() != arity) {
      return Status::InvalidArgument(
          "snapshot manifest: name '" + entry.name +
          "' base/effective arity mismatch");
    }
    StatusOr<uint64_t> version = get("name version");
    if (!version.ok()) return version.status();
    entry.version = *version;
    StatusOr<uint64_t> num_deltas = get("delta count");
    if (!num_deltas.ok()) return num_deltas.status();
    for (uint64_t d = 0; d < *num_deltas; ++d) {
      DeltaRows delta;
      for (std::vector<Value>* side : {&delta.inserts, &delta.deletes}) {
        StatusOr<uint64_t> rows = get("delta row count");
        if (!rows.ok()) return rows.status();
        // Each row is `arity` varints; a lying count runs out of
        // manifest bytes below rather than allocating wild.
        side->reserve(std::min<uint64_t>(*rows * arity, buf.size() - pos));
        for (uint64_t r = 0; r < *rows * uint64_t(arity); ++r) {
          StatusOr<uint64_t> v = get("delta row value");
          if (!v.ok()) return v.status();
          side->push_back(static_cast<Value>(*v));
        }
      }
      entry.deltas.push_back(std::move(delta));
    }
    reader.names_.push_back(std::move(entry));
  }

  StatusOr<uint64_t> num_payloads = get("payload count");
  if (!num_payloads.ok()) return num_payloads.status();
  for (uint64_t i = 0; i < *num_payloads; ++i) {
    Payload p;
    StatusOr<uint64_t> phys = get("payload base");
    if (!phys.ok()) return phys.status();
    if (*phys >= reader.relations_.size()) {
      return Status::InvalidArgument(
          "snapshot payload references missing relation");
    }
    p.phys = static_cast<uint32_t>(*phys);
    const int arity = reader.relations_[p.phys].schema.arity();
    StatusOr<uint64_t> perm_len = get("perm length");
    if (!perm_len.ok()) return perm_len.status();
    if (static_cast<int>(*perm_len) != arity) {
      return Status::InvalidArgument(
          "snapshot payload permutation arity mismatch");
    }
    for (uint64_t j = 0; j < *perm_len; ++j) {
      StatusOr<uint64_t> x = get("perm entry");
      if (!x.ok()) return x.status();
      const int64_t v = UnZigZag(*x);
      if (v < 0 || v >= arity) {
        return Status::InvalidArgument(
            "snapshot payload permutation entry out of range");
      }
      p.perm.push_back(static_cast<int>(v));
    }
    StatusOr<uint64_t> rows = get("payload rows");
    if (!rows.ok()) return rows.status();
    p.row_count = *rows;
    StatusOr<uint64_t> seg = get_seg("payload rows segment");
    if (!seg.ok()) return seg.status();
    p.rows_seg = static_cast<uint32_t>(*seg);
    if (reader.segments_[p.rows_seg].size !=
        p.row_count * uint64_t(arity) * sizeof(Value)) {
      return Status::InvalidArgument(
          "snapshot payload segment size disagrees with row count");
    }
    StatusOr<uint64_t> has_trie = get("trie flag");
    if (!has_trie.ok()) return has_trie.status();
    p.has_trie = *has_trie != 0;
    if (p.has_trie) {
      for (int l = 0; l < arity; ++l) {
        TrieLevelRef level;
        StatusOr<uint64_t> count = get("trie level count");
        if (!count.ok()) return count.status();
        level.values_count = *count;
        StatusOr<uint64_t> flag = get("trie level compressed flag");
        if (!flag.ok()) return flag.status();
        level.compressed = *flag != 0;
        if (level.compressed) {
          StatusOr<uint64_t> mseg = get_seg("trie mins segment");
          if (!mseg.ok()) return mseg.status();
          StatusOr<uint64_t> sseg = get_seg("trie starts segment");
          if (!sseg.ok()) return sseg.status();
          StatusOr<uint64_t> bseg = get_seg("trie bytes segment");
          if (!bseg.ok()) return bseg.status();
          level.mins_seg = static_cast<int64_t>(*mseg);
          level.starts_seg = static_cast<int64_t>(*sseg);
          level.bytes_seg = static_cast<int64_t>(*bseg);
          // Skip-table sizes follow from the value count; the payload
          // structure itself is validated by Trie::FromMapped.
          const uint64_t blocks =
              (level.values_count + storage::blockcodec::kBlockValues - 1) /
              storage::blockcodec::kBlockValues;
          if (reader.segments_[*mseg].size != blocks * sizeof(Value) ||
              reader.segments_[*sseg].size !=
                  (blocks + 1) * sizeof(uint32_t)) {
            return Status::InvalidArgument(
                "snapshot compressed trie level skip table size disagrees "
                "with value count");
          }
        } else {
          StatusOr<uint64_t> vseg = get_seg("trie values segment");
          if (!vseg.ok()) return vseg.status();
          level.values_seg = static_cast<uint32_t>(*vseg);
          if (reader.segments_[level.values_seg].size !=
              level.values_count * sizeof(Value)) {
            return Status::InvalidArgument(
                "snapshot trie level size disagrees with value count");
          }
        }
        StatusOr<uint64_t> cseg = get("trie child segment");
        if (!cseg.ok()) return cseg.status();
        if (*cseg != 0) {
          if (*cseg - 1 >= num_segments) {
            return Status::InvalidArgument(
                "snapshot manifest: child segment out of range");
          }
          level.child_seg = static_cast<int64_t>(*cseg - 1);
        }
        const bool deepest = l + 1 == arity;
        if (deepest != (level.child_seg < 0)) {
          return Status::InvalidArgument(
              "snapshot trie child arrays malformed");
        }
        p.levels.push_back(level);
      }
    }
    reader.payloads_.push_back(std::move(p));
  }
  return reader;
}

StatusOr<std::span<const uint8_t>> SnapshotReader::SegmentBytes(
    uint64_t index) const {
  const SegmentInfo& s = segments_[index];
  return file_->View(s.offset, s.size);
}

StatusOr<std::span<const Value>> SnapshotReader::SegmentValues(
    uint64_t index) const {
  StatusOr<std::span<const uint8_t>> bytes = SegmentBytes(index);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() % sizeof(Value) != 0) {
    return Status::InvalidArgument("snapshot value segment misaligned");
  }
  return std::span<const Value>(
      reinterpret_cast<const Value*>(bytes->data()),
      bytes->size() / sizeof(Value));
}

StatusOr<std::span<const uint32_t>> SnapshotReader::SegmentOffsets(
    uint64_t index) const {
  StatusOr<std::span<const uint8_t>> bytes = SegmentBytes(index);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument("snapshot offset segment misaligned");
  }
  return std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(bytes->data()),
      bytes->size() / sizeof(uint32_t));
}

StatusOr<Trie> SnapshotReader::MapTrie(const Payload& p) const {
  std::vector<Trie::MappedLevel> levels;
  levels.reserve(p.levels.size());
  for (const TrieLevelRef& ref : p.levels) {
    Trie::MappedLevel level;
    if (ref.compressed) {
      level.compressed = true;
      level.num_values = ref.values_count;
      StatusOr<std::span<const Value>> mins = SegmentValues(ref.mins_seg);
      if (!mins.ok()) return mins.status();
      StatusOr<std::span<const uint32_t>> starts =
          SegmentOffsets(ref.starts_seg);
      if (!starts.ok()) return starts.status();
      StatusOr<std::span<const uint8_t>> payload = SegmentBytes(ref.bytes_seg);
      if (!payload.ok()) return payload.status();
      level.block_mins = *mins;
      level.block_starts = *starts;
      level.block_bytes = *payload;
    } else {
      StatusOr<std::span<const Value>> vals = SegmentValues(ref.values_seg);
      if (!vals.ok()) return vals.status();
      level.values = *vals;
    }
    if (ref.child_seg >= 0) {
      StatusOr<std::span<const uint32_t>> kids = SegmentOffsets(ref.child_seg);
      if (!kids.ok()) return kids.status();
      level.child_begin = *kids;
    }
    levels.push_back(level);
  }
  StatusOr<Trie> mapped = Trie::FromMapped(std::move(levels), file_);
  if (!mapped.ok()) return mapped.status();
  if (mapped->NumTuples() != p.row_count) {
    return Status::InvalidArgument(
        "snapshot trie tuple count disagrees with payload rows");
  }
  return mapped;
}

Status SnapshotReader::VerifyChecksums() const {
  for (size_t i = 0; i < segments_.size(); ++i) {
    StatusOr<std::span<const uint8_t>> bytes = SegmentBytes(i);
    if (!bytes.ok()) return bytes.status();
    if (Checksum(bytes->data(), bytes->size()) != segments_[i].checksum) {
      return Status::InvalidArgument("snapshot segment " + std::to_string(i) +
                                     " checksum mismatch");
    }
  }
  return Status::OK();
}

Status SnapshotReader::Verify() const {
  ADJ_RETURN_IF_ERROR(VerifyChecksums());
  for (const Payload& p : payloads_) {
    // The stored levels ARE the execution format. FromMapped runs the
    // full structural validation — block skip tables, payload
    // decodability, CSR shape, sorted sibling runs — against the mapped
    // segments.
    if (p.has_trie) ADJ_RETURN_IF_ERROR(MapTrie(p).status());
  }
  return Status::OK();
}

StatusOr<SnapshotReader::LoadStats> SnapshotReader::LoadInto(
    storage::Catalog* catalog) const {
  if (catalog == nullptr) {
    return Status::InvalidArgument("LoadInto needs a catalog");
  }

  // Phase 1 — construct and validate everything without touching the
  // catalog, so a corrupt snapshot leaves it exactly as it was.
  // Physical relations alias the mapped file directly; the MappedFile
  // handle rides along as each relation's keepalive.
  std::vector<std::shared_ptr<const Relation>> phys;
  phys.reserve(relations_.size());
  for (const PhysRel& rel : relations_) {
    StatusOr<std::span<const Value>> rows = SegmentValues(rel.rows_seg);
    if (!rows.ok()) return rows.status();
    phys.push_back(std::make_shared<const Relation>(
        Relation::AliasSpan(rel.schema, *rows, file_)));
  }
  // Entry states: mapped base/effective plus the heap-resident delta
  // chain. The merge kernels assume sorted-unique delta sides; check
  // at the trust boundary.
  std::vector<storage::Catalog::EntryState> states;
  states.reserve(names_.size());
  for (const NameEntry& n : names_) {
    storage::Catalog::EntryState state;
    state.base = phys[n.base];
    state.effective = phys[n.effective];
    state.version = n.version;
    const Schema& schema = relations_[n.base].schema;
    for (const DeltaRows& d : n.deltas) {
      auto batch = std::make_shared<storage::DeltaBatch>();
      batch->inserts = Relation(schema);
      batch->inserts.mutable_raw() = d.inserts;
      batch->deletes = Relation(schema);
      batch->deletes.mutable_raw() = d.deletes;
      if (!batch->inserts.IsSortedUnique() ||
          !batch->deletes.IsSortedUnique()) {
        return Status::InvalidArgument("snapshot delta batch for '" + n.name +
                                       "' is not sorted-unique");
      }
      state.deltas.push_back(std::move(batch));
    }
    states.push_back(std::move(state));
  }
  struct Restored {
    std::shared_ptr<const Relation> rows;
    std::shared_ptr<const Trie> trie;
  };
  std::vector<Restored> restored;
  restored.reserve(payloads_.size());
  for (const Payload& p : payloads_) {
    Restored r;
    StatusOr<std::span<const Value>> rows = SegmentValues(p.rows_seg);
    if (!rows.ok()) return rows.status();
    r.rows = std::make_shared<const Relation>(Relation::AliasSpan(
        phys[p.phys]->schema().Permuted(p.perm), *rows, file_));
    // The join kernels' galloping seeks assume sorted-unique rows:
    // check once at the trust boundary rather than crashing later.
    if (!r.rows->IsSortedUnique()) {
      return Status::InvalidArgument(
          "snapshot payload rows are not sorted-unique");
    }
    if (p.has_trie) {
      StatusOr<Trie> mapped = MapTrie(p);
      if (!mapped.ok()) return mapped.status();
      r.trie = std::make_shared<const Trie>(std::move(*mapped));
    }
    restored.push_back(std::move(r));
  }

  // Phase 2 — commit. Restore entry states first: each Restore bumps
  // the name's version, so a snapshot open invalidates downstream plan
  // caches exactly like any other reload. Then adopt index payloads,
  // coldest first, so the cache's LRU order matches the saved one and
  // a tight byte budget keeps the hot tail.
  for (size_t i = 0; i < names_.size(); ++i) {
    ADJ_RETURN_IF_ERROR(
        catalog->Restore(names_[i].name, std::move(states[i])));
  }
  storage::IndexCache& cache = catalog->index_cache();
  for (size_t i = 0; i < payloads_.size(); ++i) {
    const Payload& p = payloads_[i];
    // Handles are moved in: coldest-first order plus released handles
    // let a byte budget evict the cold tail during adoption itself.
    ADJ_RETURN_IF_ERROR(cache.AdoptPermuted(phys[p.phys], p.perm,
                                            std::move(restored[i].rows),
                                            std::move(restored[i].trie)));
  }
  // The last adoption's entries were referenced by its own arguments
  // while the budget ran; re-enforce now that nothing external holds
  // them.
  cache.EnforceBudget();
  return LoadStats{.relations = relations_.size(), .names = names_.size()};
}

}  // namespace adj::persist
