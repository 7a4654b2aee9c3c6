#include "query/queries.h"

namespace adj::query {
namespace {

/// Query bodies, indexed by query number - 1. Each atom's base
/// relation is "G"; the leading identifier is the atom's display name
/// only, so all atoms use G(...) directly.
const char* kQueryText[11] = {
    // Q1: triangle.
    "G(a,b) G(b,c) G(a,c)",
    // Q2: 4-clique.
    "G(a,b) G(b,c) G(c,d) G(d,a) G(a,c) G(b,d)",
    // Q3: 5-clique.
    "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,d) G(b,e) G(c,a) G(c,e) G(a,d)",
    // Q4: 5-cycle with one chord (b,e).
    "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e)",
    // Q5: Q4 plus chord (b,d).
    "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) G(b,d)",
    // Q6: Q5 plus chord (c,e).
    "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) G(b,d) G(c,e)",
    // Q7 (reconstructed): 3-path.
    "G(a,b) G(b,c)",
    // Q8 (reconstructed): out-star on 4 nodes.
    "G(a,b) G(a,c) G(a,d)",
    // Q9 (reconstructed): 4-path.
    "G(a,b) G(b,c) G(c,d)",
    // Q10 (reconstructed): 4-cycle.
    "G(a,b) G(b,c) G(c,d) G(d,a)",
    // Q11 (reconstructed): tailed triangle.
    "G(a,b) G(b,c) G(a,c) G(c,d)",
};

}  // namespace

StatusOr<Query> MakeBenchmarkQuery(int index) {
  if (index < 1 || index > 11) {
    return Status::InvalidArgument("benchmark query index must be in [1,11]");
  }
  return Query::Parse(kQueryText[index - 1]);
}

std::string BenchmarkQueryName(int index) {
  return "Q" + std::to_string(index);
}

}  // namespace adj::query
