#ifndef ADJ_QUERY_QUERIES_H_
#define ADJ_QUERY_QUERIES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"

namespace adj::query {

/// The paper's benchmark queries (Fig. 7). Q1–Q6 are spelled out in
/// Sec. VII-A and reproduced verbatim. Q7–Q11 appear only as pictures;
/// they are the "easy" 3–5 node patterns the paper omits from the
/// evaluation, reconstructed here as representative acyclic /
/// near-acyclic shapes (path, star, 4-path, 4-cycle, tailed triangle).
///
/// Every atom Ri is bound to the catalog relation named "G" — the
/// paper's test-case construction assigns each relation a copy of the
/// same graph.
StatusOr<Query> MakeBenchmarkQuery(int index);

/// Names "Q1".."Q11" for display.
std::string BenchmarkQueryName(int index);

}  // namespace adj::query

#endif  // ADJ_QUERY_QUERIES_H_
