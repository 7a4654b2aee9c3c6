#include "core/spj.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "core/strategy_registry.h"
#include "exec/hcubej.h"

namespace adj::core {
namespace {

std::vector<std::string> SplitTrim(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  for (std::string& p : parts) {
    while (!p.empty() && std::isspace(static_cast<unsigned char>(p.front()))) {
      p.erase(p.begin());
    }
    while (!p.empty() && std::isspace(static_cast<unsigned char>(p.back()))) {
      p.pop_back();
    }
  }
  return parts;
}

}  // namespace

std::string SpjQuery::ToString() const {
  std::string out = join.ToString();
  if (!selections.empty()) {
    out += " WHERE ";
    for (size_t i = 0; i < selections.size(); ++i) {
      if (i > 0) out += " AND ";
      out += join.attr_name(selections[i].attr) + "=" +
             std::to_string(selections[i].value);
    }
  }
  if (projection != 0) {
    out += " PROJECT ";
    bool first = true;
    for (int a = 0; a < join.num_attrs(); ++a) {
      if (projection & (AttrMask(1) << a)) {
        if (!first) out += ",";
        out += join.attr_name(a);
        first = false;
      }
    }
  }
  return out;
}

StatusOr<SpjQuery> ParseSpj(const std::string& text) {
  // "join | selections | projection" — both trailing sections optional.
  std::vector<std::string> sections = SplitTrim(text, '|');
  if (sections.empty() || sections.size() > 3) {
    return Status::InvalidArgument("expected 'join [| sel [| proj]]'");
  }
  SpjQuery spj;
  StatusOr<query::Query> join = query::Query::Parse(sections[0]);
  if (!join.ok()) return join.status();
  spj.join = std::move(join.value());

  if (sections.size() >= 2 && !sections[1].empty()) {
    for (const std::string& item : SplitTrim(sections[1], ',')) {
      if (item.empty()) continue;
      const size_t eq = item.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("selection must be attr=value: " +
                                       item);
      }
      std::string name = item.substr(0, eq);
      while (!name.empty() && std::isspace(static_cast<unsigned char>(
                                  name.back()))) {
        name.pop_back();
      }
      StatusOr<AttrId> attr = spj.join.AttrByName(name);
      if (!attr.ok()) return attr.status();
      char* end = nullptr;
      const unsigned long long v =
          std::strtoull(item.c_str() + eq + 1, &end, 10);
      if (end == item.c_str() + eq + 1) {
        return Status::InvalidArgument("bad selection constant in: " + item);
      }
      spj.selections.push_back({*attr, static_cast<Value>(v)});
    }
  }
  if (sections.size() == 3 && !sections[2].empty()) {
    for (const std::string& name : SplitTrim(sections[2], ',')) {
      if (name.empty()) continue;
      StatusOr<AttrId> attr = spj.join.AttrByName(name);
      if (!attr.ok()) return attr.status();
      spj.projection |= (AttrMask(1) << *attr);
    }
  }
  return spj;
}

StatusOr<PushedDown> PushDownSelections(const storage::Catalog& db,
                                        const SpjQuery& spj) {
  return PushDownSelections(db, spj, nullptr);
}

StatusOr<PushedDown> PushDownSelections(const storage::Catalog& db,
                                        const SpjQuery& spj,
                                        const PushDownReuse* reuse) {
  PushedDown out;
  // The reduced catalog shares the source's index cache: aliased
  // (unfiltered) atoms bind to the indexes the source's consumers
  // already built; filtered copies get their own entries, swept once
  // the prepared query holding them goes away.
  out.catalog.ShareIndexCacheWith(db);
  // Every atom's entry is queued into one batch, applied once, so the
  // shared index cache is swept once per push-down.
  storage::WriteBatch writes;
  std::set<std::string> aliased;
  std::vector<query::Atom> new_atoms;
  for (int i = 0; i < spj.join.num_atoms(); ++i) {
    const query::Atom& atom = spj.join.atom(i);
    StatusOr<std::shared_ptr<const storage::Relation>> shared =
        db.GetShared(atom.relation);
    if (!shared.ok()) return shared.status();
    const storage::Relation* base = shared->get();
    // Which selections touch this atom?
    std::vector<std::pair<int, Value>> filters;  // column, value
    for (const SpjQuery::Selection& sel : spj.selections) {
      const int pos = atom.schema.PositionOf(sel.attr);
      if (pos >= 0) filters.emplace_back(pos, sel.value);
    }
    if (filters.empty()) {
      if (aliased.insert(atom.relation).second) {
        // Untouched base relations are aliased, not copied — push-down
        // cost scales with the filtered atoms only.
        writes.Create(atom.relation, std::move(*shared));
      }
      new_atoms.push_back(atom);
      continue;
    }
    const std::string name = atom.relation + "__sel" + std::to_string(i);
    if (reuse != nullptr && reuse->prev != nullptr &&
        reuse->changed != nullptr &&
        reuse->changed->count(atom.relation) == 0 &&
        reuse->prev->Contains(name)) {
      // The base did not change since the previous push-down: alias
      // the prior filtered copy instead of re-scanning — identity is
      // preserved, so its cached indexes stay bindable.
      StatusOr<std::shared_ptr<const storage::Relation>> prior =
          reuse->prev->GetShared(name);
      if (!prior.ok()) return prior.status();
      out.filtered += base->size() - (*prior)->size();
      writes.Create(name, std::move(*prior));
      query::Atom new_atom = atom;
      new_atom.relation = name;
      new_atoms.push_back(new_atom);
      continue;
    }
    storage::Relation filtered(storage::Schema(base->schema()));
    for (uint64_t r = 0; r < base->size(); ++r) {
      bool keep = true;
      for (const auto& [pos, value] : filters) {
        if (base->At(r, pos) != value) {
          keep = false;
          break;
        }
      }
      if (keep) filtered.Append(base->Row(r));
    }
    out.filtered += base->size() - filtered.size();
    writes.Create(name, std::move(filtered));
    query::Atom new_atom = atom;
    new_atom.relation = name;
    new_atoms.push_back(new_atom);
  }
  ADJ_RETURN_IF_ERROR(out.catalog.Apply(writes));
  out.query = query::Query::Make(spj.join.attr_names(), new_atoms);
  return out;
}

StatusOr<SpjResult> RunSpj(const storage::Catalog& db, const SpjQuery& spj,
                           Strategy strategy, const EngineOptions& options) {
  return RunSpj(db, spj, std::string(StrategyName(strategy)), options);
}

StatusOr<SpjResult> RunSpj(const storage::Catalog& db, const SpjQuery& spj,
                           const std::string& strategy,
                           const EngineOptions& options) {
  ADJ_RETURN_IF_ERROR(ValidateOptions(options));
  // 0. Resolve the strategy up front so an unknown name errors the
  //    same way on the counting and the projecting path (and the
  //    counting path can invoke it without a second registry lookup).
  StatusOr<StrategyFn> fn = StrategyRegistry::Global().Find(strategy);
  if (!fn.ok()) return fn.status();

  // 1. Selection push-down shrinks shuffle volume, sampling domain,
  //    and the join itself before any planning happens. Untouched base
  //    relations are aliased into the reduced catalog at zero copy
  //    cost, so the selection-free serving hot path takes the same
  //    route as selective queries — it just aliases every atom.
  StatusOr<PushedDown> pushed_or = PushDownSelections(db, spj);
  if (!pushed_or.ok()) return pushed_or.status();
  PushedDown pushed = std::move(pushed_or.value());
  SpjResult result;
  result.pushed_down_filtered = pushed.filtered;
  const query::Query* rewritten = &pushed.query;
  const storage::Catalog* reduced = &pushed.catalog;

  // 2. Run the join; when no (proper) projection is requested the
  //    engine's counting path suffices.
  Engine engine(reduced);
  if (spj.projection == 0 || spj.projection == rewritten->AllAttrs()) {
    StatusOr<exec::RunReport> report = (*fn)(engine, *rewritten, options);
    if (!report.ok()) return report.status();
    result.report = std::move(report.value());
    result.projected_count = result.report.output_count;
    return result;
  }

  // 3. Projection with DISTINCT: collect, project, dedupe. Output
  //    tuples must be materialized, which only the one-round HCubeJ
  //    collector supports — `strategy` picks its cache variant, any
  //    other name falls back to plain HCubeJ (the report's `method`
  //    names the executor actually used).
  query::AttributeOrder order;
  for (int a = 0; a < rewritten->num_attrs(); ++a) order.push_back(a);
  dist::Cluster cluster(options.cluster);
  exec::HCubeJParams params;
  params.variant = options.hcube_variant;
  params.limits = options.limits;
  params.use_cache = strategy == StrategyName(Strategy::kCachedCommFirst);
  params.collect_output = true;
  StatusOr<exec::HCubeJOutput> run =
      exec::RunHCubeJ(*rewritten, *reduced, order, params, &cluster);
  if (!run.ok()) return run.status();
  result.report = run->report;
  if (!result.report.ok()) return result;

  std::vector<int> cols;
  std::vector<AttrId> kept;
  for (int a = 0; a < rewritten->num_attrs(); ++a) {
    if (spj.projection & (AttrMask(1) << a)) {
      cols.push_back(run->results.schema().PositionOf(a));
      kept.push_back(a);
    }
  }
  storage::Relation projected((storage::Schema(kept)));
  std::vector<Value> tuple(cols.size());
  for (uint64_t r = 0; r < run->results.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      tuple[c] = run->results.At(r, cols[size_t(c)]);
    }
    projected.Append(tuple);
  }
  projected.SortAndDedup();
  result.projected_count = projected.size();
  return result;
}

}  // namespace adj::core
