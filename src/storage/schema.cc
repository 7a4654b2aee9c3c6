#include "storage/schema.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace adj::storage {

int Schema::PositionOf(AttrId attr) const {
  for (int i = 0; i < arity(); ++i) {
    if (attrs_[i] == attr) return i;
  }
  return -1;
}

AttrMask Schema::Mask() const {
  AttrMask mask = 0;
  for (AttrId a : attrs_) mask |= (AttrMask(1) << a);
  return mask;
}

Schema Schema::SortedBy(const std::vector<int>& rank,
                        std::vector<int>* out_perm) const {
  std::vector<int> perm(attrs_.size());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](int i, int j) {
    ADJ_CHECK(attrs_[i] < static_cast<int>(rank.size()));
    ADJ_CHECK(attrs_[j] < static_cast<int>(rank.size()));
    return rank[attrs_[i]] < rank[attrs_[j]];
  });
  if (out_perm != nullptr) *out_perm = perm;
  return Permuted(perm);
}

Schema Schema::Permuted(const std::vector<int>& perm) const {
  std::vector<AttrId> out(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) out[i] = attrs_[perm[i]];
  return Schema(std::move(out));
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (int i = 0; i < arity(); ++i) {
    if (i > 0) out += ",";
    // Attribute ids are rendered a, b, c, ... like the paper's queries.
    AttrId a = attrs_[i];
    if (a < 26) {
      out += static_cast<char>('a' + a);
    } else {
      out += "x" + std::to_string(a);
    }
  }
  out += ")";
  return out;
}

}  // namespace adj::storage
