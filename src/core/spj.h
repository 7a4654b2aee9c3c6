#ifndef ADJ_CORE_SPJ_H_
#define ADJ_CORE_SPJ_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/catalog.h"

namespace adj::core {

/// Select-Project-Join queries — the extension the paper's conclusion
/// names as future work ("co-optimize computation, pre-computing, and
/// communication for a query that consists of selection, projection,
/// and join").
///
/// A SpjQuery is a natural-join body plus equality selections
/// (attr = constant) and an optional projection of the output onto a
/// subset of attributes (with set semantics, i.e. DISTINCT).
struct SpjQuery {
  query::Query join;
  struct Selection {
    AttrId attr;
    Value value;
  };
  std::vector<Selection> selections;
  /// Attributes kept in the output; 0 means all of attrs(Q).
  AttrMask projection = 0;

  /// True when the projection drops attributes — the case Prepare
  /// rejects and serve::Server routes to direct execution. The one
  /// definition all layers share.
  bool HasProperProjection() const {
    return projection != 0 && projection != join.AllAttrs();
  }

  std::string ToString() const;
};

/// Parses "R(a,b) S(b,c) | a=5, c=7 | a,b" — join body, optional
/// '|'-separated selection list, optional projection list.
StatusOr<SpjQuery> ParseSpj(const std::string& text);

struct SpjResult {
  exec::RunReport report;        // the join execution report
  uint64_t projected_count = 0;  // distinct projected tuples
  /// Tuples removed per atom by selection push-down.
  uint64_t pushed_down_filtered = 0;
};

/// Executes an SPJ query: equality selections are pushed down into the
/// base relations before planning (shrinking both the shuffle volume
/// and the sampling domain), the join runs under `strategy`, and the
/// projection is applied with duplicate elimination at the end.
///
/// Caveat: a *proper* projection must materialize output tuples,
/// which only the one-round HCubeJ collector supports today — for
/// such queries `strategy` only selects between the HCubeJ variants
/// and everything else falls back to plain HCubeJ. The report's
/// `method` always names the executor actually used.
StatusOr<SpjResult> RunSpj(const storage::Catalog& db, const SpjQuery& spj,
                           Strategy strategy, const EngineOptions& options);

/// Same, dispatching the join by StrategyRegistry name (the paper's
/// five strategies plus anything registered at runtime). NotFound for
/// unregistered names.
StatusOr<SpjResult> RunSpj(const storage::Catalog& db, const SpjQuery& spj,
                           const std::string& strategy,
                           const EngineOptions& options);

/// Selection push-down alone (exposed for tests and for users who
/// want to plan on the reduced database): every atom touched by a
/// selection gets a filtered copy of its base relation under a derived
/// name, and the join is rewritten to reference it. Atoms no selection
/// touches are *aliased* into the reduced catalog (shared storage with
/// `db`, zero copies), so push-down cost scales with the filtered
/// atoms only — and a selection-free query costs only the aliases.
struct PushedDown {
  storage::Catalog catalog;
  query::Query query;
  uint64_t filtered = 0;  // tuples removed across all filtered atoms
};
StatusOr<PushedDown> PushDownSelections(const storage::Catalog& db,
                                        const SpjQuery& spj);

/// Delta-aware re-push-down: when a prepared query is refreshed after
/// a write (api::Session::Reprepare), re-scanning every selected atom
/// would cost O(dataset) per atom even though a write touches a few
/// rows. This overload starts from the *previous* filtered copies
/// (from `prev`, usually the stale ExecutionContext's catalog):
///  - an atom whose base is not in `changed` aliases its prior copy;
///  - an atom whose base changed filters only the rows written since
///    `versions` (the base versions the prior copies were filtered
///    at), taken from the catalog's delta chain. When no written row
///    passes the selection it aliases the prior copy as well; when
///    some do, it merges them into the prior copy and links that delta
///    into the index cache, so the copy's indexes and shards patch.
///    A compacted or re-created chain falls back to a full scan, whose
///    copy is a new relation and so rebuilds its indexes.
/// Aliasing preserves relation identity, which is what keeps cached
/// indexes and shards bindable without rebuilds.
struct PushDownReuse {
  const storage::Catalog* prev = nullptr;     // prior prepared catalog
  const std::set<std::string>* changed = nullptr;  // base names rewritten
  const std::map<std::string, uint64_t>* versions = nullptr;  // at `prev`
};
StatusOr<PushedDown> PushDownSelections(const storage::Catalog& db,
                                        const SpjQuery& spj,
                                        const PushDownReuse* reuse);

}  // namespace adj::core

#endif  // ADJ_CORE_SPJ_H_
