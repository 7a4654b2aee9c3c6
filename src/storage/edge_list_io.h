#ifndef ADJ_STORAGE_EDGE_LIST_IO_H_
#define ADJ_STORAGE_EDGE_LIST_IO_H_

#include <string>

#include "common/status.h"
#include "storage/relation.h"

namespace adj::storage {

/// Text edge-list I/O in the SNAP format the paper's datasets ship in:
/// one "src dst" pair per line, '#' comment lines ignored, whitespace
/// (spaces or tabs) separated. Node ids must fit in 32 bits.
///
/// This is how a user plugs the real WB/AS/WT/LJ/EN/OK graphs into the
/// library instead of the synthetic stand-ins:
///   auto g = storage::LoadEdgeList("com-lj.ungraph.txt");
///   Status s = db.Apply(storage::WriteBatch().Create("G", std::move(*g)));
StatusOr<Relation> LoadEdgeList(const std::string& path);

/// Parses edge-list text from a string (used by tests and for
/// in-memory snippets).
StatusOr<Relation> ParseEdgeList(const std::string& text);

/// Writes a binary relation back out in the same format.
Status SaveEdgeList(const Relation& rel, const std::string& path);

}  // namespace adj::storage

#endif  // ADJ_STORAGE_EDGE_LIST_IO_H_
