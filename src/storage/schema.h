#ifndef ADJ_STORAGE_SCHEMA_H_
#define ADJ_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/types.h"

namespace adj::storage {

/// Ordered list of attribute ids — the schema of a relation occurrence.
/// Attribute ids are indexes into a query-level attribute universe
/// (see query::Query), so schemas from different relations of the same
/// query are directly comparable.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttrId> attrs) : attrs_(std::move(attrs)) {}

  int arity() const { return static_cast<int>(attrs_.size()); }
  AttrId attr(int i) const { return attrs_[i]; }
  const std::vector<AttrId>& attrs() const { return attrs_; }

  /// Position of `attr` within this schema, or -1 if absent.
  int PositionOf(AttrId attr) const;

  bool Contains(AttrId attr) const { return PositionOf(attr) >= 0; }

  /// Bitmask of the attributes in this schema.
  AttrMask Mask() const;

  /// Schema whose attributes are sorted ascending by a total order
  /// `rank`, where rank[attr] gives the position of `attr` in the
  /// global attribute order. Returns the column permutation as well:
  /// out_perm[i] = index in *this* schema of the i-th sorted attribute.
  Schema SortedBy(const std::vector<int>& rank, std::vector<int>* out_perm) const;

  /// This schema with column i taken from column perm[i].
  Schema Permuted(const std::vector<int>& perm) const;

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.attrs_ == b.attrs_;
  }

 private:
  std::vector<AttrId> attrs_;
};

}  // namespace adj::storage

#endif  // ADJ_STORAGE_SCHEMA_H_
