// The four workloads. Each generates its graph from the run's seed with
// dataset::Rmat, registers it as relation "G", times set-up several
// times, checks outputs, and then measures for the configured seconds.
// A traced run alternates traced and untraced rounds: the traced ones
// give the per-layer numbers, the pair gives the tracing overhead.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <optional>
#include <thread>

#include "api/api.h"
#include "bench.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/spj.h"
#include "dataset/generators.h"
#include "ghd/decomposition.h"
#include "sampling/sampler.h"
#include "serve/server.h"
#include "storage/write_batch.h"

namespace adj::benchmark {
namespace {

struct Template {
  const char* name;
  const char* text;
};

// The paper's evaluated queries (Fig. 7, the texts of
// query::MakeBenchmarkQuery) without Q4: its 1.9M-row answer takes
// seconds and would swamp every cycle of the mix.
const std::vector<Template> kMix = {
    {"Q1", "G(a,b) G(b,c) G(a,c)"},
    {"Q2", "G(a,b) G(b,c) G(c,d) G(d,a) G(a,c) G(b,d)"},
    {"Q3",
     "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,d) G(b,e) G(c,a) G(c,e) "
     "G(a,d)"},
    {"Q5", "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) G(b,d)"},
    {"Q6", "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) G(b,d) G(c,e)"},
};

struct GraphSize {
  int scale;       // 2^scale nodes
  uint64_t edges;  // RMAT edge draws (duplicates and self loops dropped)
};
// The LJ stand-in's edge budget at scale 0.2.
constexpr GraphSize kMixGraph = {13, 12'600};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.Next64();
}

/// An RMAT graph of fixed shape whose vertex ids the seed permutes:
/// each seed gives a different edge list (different sort orders, hash
/// partitions, sampled values and compressed blocks) of the same
/// difficulty. Drawing the shape itself from the seed moves the answer
/// sizes, and the query times with them, by far more than the bounds.
/// `shape_of`, when given, receives each vertex's id in the shape.
storage::Relation MakeGraph(GraphSize g, uint64_t seed,
                            std::vector<Value>* shape_of = nullptr) {
  dataset::RmatParams params;
  params.scale = g.scale;
  Rng shape_rng(0x5EED0000ULL + uint64_t(g.scale));
  const storage::Relation shape = dataset::Rmat(params, g.edges, shape_rng);
  std::vector<Value> label(size_t(1) << g.scale);
  for (size_t v = 0; v < label.size(); ++v) label[v] = Value(v);
  Rng rng(SubSeed(seed, 1));
  for (size_t v = label.size() - 1; v > 0; --v) {
    std::swap(label[v], label[rng.Uniform(v + 1)]);
  }
  storage::Relation out(shape.schema());
  out.Reserve(shape.size());
  for (uint64_t r = 0; r < shape.size(); ++r) {
    out.Append({label[shape.At(r, 0)], label[shape.At(r, 1)]});
  }
  out.SortAndDedup();
  if (shape_of != nullptr) {
    shape_of->assign(label.size(), 0);
    for (size_t v = 0; v < label.size(); ++v) (*shape_of)[label[v]] = Value(v);
  }
  return out;
}

api::Database MakeDatabase(GraphSize g, uint64_t seed) {
  api::Database db;
  db.AddRelation("G", MakeGraph(g, seed));
  return db;
}

/// Runs op(i, traced) in rounds of `cycle` operations until `seconds`
/// have passed. In a traced run every other round is traced. Returns
/// the measured wall time.
template <typename Op>
double ClosedLoop(const RunConfig& config, size_t cycle, Op op) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i % cycle == 0 && i > 0 &&
        SecondsBetween(start, Clock::now()) >= config.seconds) {
      break;
    }
    op(i, config.trace && (i / cycle) % 2 == 1);
  }
  return SecondsBetween(start, Clock::now());
}

/// Exact answers of the mix from the HCubeJ strategy.
std::map<std::string, uint64_t> ReferenceCounts(const api::Session& session,
                                                RunResult* out) {
  std::map<std::string, uint64_t> counts;
  for (const Template& t : kMix) {
    api::Result r = session.Run(t.text, "HCubeJ");
    out->Check(r.ok(), std::string(t.name) + " HCubeJ reference failed: " +
                           r.status().ToString());
    counts[t.name] = r.count();
  }
  return counts;
}

void CheckCount(const Template& t, uint64_t got,
                const std::map<std::string, uint64_t>& want, RunResult* out) {
  auto it = want.find(t.name);
  if (it != want.end() && got != it->second) {
    out->Check(false, std::string(t.name) + " count " + std::to_string(got) +
                          " != reference " + std::to_string(it->second));
  }
}

// ---------------------------------------------------------------------
// The traced form of one ad hoc query: the engine calls Session::Run
// makes (parse, plan, prepare, run), each in its own span, and side
// probes of the GHD search and the sampler outside the operation.
// ---------------------------------------------------------------------

struct TracedPlan {
  query::Query query;
  core::PlanResult planned;
  std::shared_ptr<const core::ExecutionContext> ctx;
};

StatusOr<TracedPlan> PlanAndPrepare(const storage::Catalog& db,
                                    const std::string& text,
                                    const core::EngineOptions& options,
                                    Tracer* tracer, int64_t op,
                                    int64_t parent) {
  StatusOr<core::SpjQuery> spj = [&] {
    Scope span(tracer, op, "query.parse", parent);
    return core::ParseSpj(text);
  }();
  if (!spj.ok()) return spj.status();
  core::Engine engine(&db);
  StatusOr<core::PlanResult> planned = [&] {
    Scope span(tracer, op, "optimizer.plan", parent);
    return engine.Plan(spj->join, options);
  }();
  if (!planned.ok()) return planned.status();
  StatusOr<core::ExecutionContext> ctx = [&] {
    Scope span(tracer, op, "exec.prepare", parent);
    return engine.PrepareExecution(spj->join, planned->plan, options);
  }();
  if (!ctx.ok()) return ctx.status();
  return TracedPlan{
      spj->join, std::move(planned.value()),
      std::make_shared<const core::ExecutionContext>(std::move(ctx.value()))};
}

StatusOr<exec::RunReport> RunTraced(const storage::Catalog& db,
                                    const core::ExecutionContext& ctx,
                                    const core::EngineOptions& options,
                                    Tracer* tracer, int64_t op,
                                    int64_t parent) {
  Scope span(tracer, op, "exec.run", parent);
  return core::Engine(&db).RunPrepared(ctx, options);
}

/// Times ghd::FindOptimalGhd and the planner's main sampling pass on
/// their own, with the options Engine::Plan would use.
void ProbePlannerLayers(const storage::Catalog& db, const query::Query& q,
                        const core::EngineOptions& options, Tracer* tracer,
                        int64_t op) {
  StatusOr<ghd::Decomposition> decomp = [&] {
    Scope span(tracer, op, "ghd.search");
    return ghd::FindOptimalGhd(q);
  }();
  query::AttributeOrder order;
  for (int a = 0; a < q.num_attrs(); ++a) order.push_back(a);
  if (decomp.ok()) {
    std::vector<query::AttributeOrder> valid =
        ghd::ValidAttributeOrders(*decomp, q);
    if (!valid.empty()) order = valid.front();
  }
  sampling::SamplerOptions sopts;
  sopts.num_samples = options.num_samples;
  sopts.seed = options.seed;
  sopts.per_sample_limits = options.limits;
  sopts.distributed = true;
  Scope span(tracer, op, "sampling.sample");
  (void)sampling::SampleCardinality(q, db, order, sopts, options.cluster.net,
                                    options.cluster.num_servers);
}

/// Plan-shape bookkeeping of the traced runs: bags chosen per plan and
/// plans whose order or bag choice differ from the template's first.
struct PlanShapes {
  std::map<std::string, std::pair<query::AttributeOrder, std::vector<bool>>>
      first;
  double plans = 0, bags = 0, flips = 0, bag_bytes = 0;

  void Add(const std::string& tmpl, const TracedPlan& p) {
    const optimizer::QueryPlan& plan = p.planned.plan;
    plans += 1;
    bags += double(std::count(plan.precompute.begin(), plan.precompute.end(),
                              true));
    bag_bytes += double(p.ctx->bag_bytes);
    auto shape = std::make_pair(plan.order, plan.precompute);
    auto [it, inserted] = first.emplace(tmpl, shape);
    if (!inserted && it->second != shape) flips += 1;
  }
  void Fill(LayerFacts* facts) const {
    facts->bags_precomputed = plans > 0 ? bags / plans : 0;
    facts->bag_bytes = plans > 0 ? bag_bytes / plans : 0;
    facts->plan_flips = flips;
  }
};

/// Emits the per-layer metrics and writes the spans next to the run's
/// other outputs.
void FinishTraced(const RunConfig& config, const Tracer& tracer,
                  const LayerFacts& facts, RunResult* out) {
  AddPerLayer(tracer, facts, out);
  const std::string path = config.out_dir + "/" + config.workload +
                           "-seed" + std::to_string(config.seed) +
                           ".spans.json";
  out->Check(tracer.WriteJson(path), "cannot write " + path);
}

/// Adds one index cache's resident bytes, and its evictions since
/// `before`.
void AddIndexFacts(const storage::IndexCache::Stats& before,
                   const storage::IndexCache::Stats& after,
                   LayerFacts* facts) {
  facts->index_resident_bytes += double(after.resident_bytes);
  facts->index_evictions += double(after.evictions - before.evictions);
}

// ---------------------------------------------------------------------
// adhoc and prepared: the query mix over several labelings.
// ---------------------------------------------------------------------

// adhoc and prepared run the mix over this many relabelings of one
// graph shape (see MakeGraph). The planner's choice for Q6 depends on
// the labeling, and its run time with it (about 3x between the two
// plans it picks), so a run averages over several labelings. Odd, so
// that alternating traced rounds visit every labeling both ways.
constexpr int kMixLabelings = 5;

/// One labeling of the mix graph, set up for querying.
struct MixGraph {
  api::Database db;
  api::Session session;
  std::vector<api::PreparedQuery> prepared;  // the prepared workload only
  std::vector<TracedPlan> traced;  // traced prepared runs only
};

/// Sets up every labeling, timing each set-up on its own: generate,
/// load, then `warm` (which plans or runs each query once).
template <typename Warm>
std::vector<MixGraph> SetUpMix(const RunConfig& config, Warm warm,
                               std::vector<double>* setup_runs) {
  std::vector<MixGraph> graphs;
  for (int g = 0; g < kMixLabelings; ++g) {
    const Clock::time_point t0 = Clock::now();
    api::Database db = MakeDatabase(kMixGraph, SubSeed(config.seed, 10 + g));
    api::Session session = db.OpenSession();
    graphs.push_back(MixGraph{std::move(db), std::move(session), {}, {}});
    warm(&graphs.back());
    setup_runs->push_back(SecondsBetween(t0, Clock::now()));
  }
  return graphs;
}

/// Latency-log group of one query on one labeling.
std::string Group(const Template& t, size_t g) {
  return std::string(t.name) + "/" + std::to_string(g);
}

/// Finishes a mix run: end-to-end metrics, or the per-layer ones.
void FinishMix(const RunConfig& config, const std::vector<MixGraph>& graphs,
               const std::vector<double>& setup_runs, const LatencyLog& traced,
               const LatencyLog& untraced, double wall,
               const std::vector<storage::IndexCache::Stats>& cache_before,
               const Tracer& tracer, LayerFacts* facts, RunResult* out) {
  if (!config.trace) {
    AddEndToEnd(setup_runs, untraced, wall, out);
    return;
  }
  for (size_t g = 0; g < graphs.size(); ++g) {
    AddIndexFacts(cache_before[g],
                  graphs[g].db.catalog().index_cache().stats(), facts);
  }
  facts->failed_ratio = double(out->failed) / double(out->attempted);
  FillRunFacts(traced, untraced, facts);
  FinishTraced(config, tracer, *facts, out);
}

std::vector<storage::IndexCache::Stats> CacheStats(
    const std::vector<MixGraph>& graphs) {
  std::vector<storage::IndexCache::Stats> stats;
  for (const MixGraph& g : graphs) {
    stats.push_back(g.db.catalog().index_cache().stats());
  }
  return stats;
}

}  // namespace

RunResult RunAdhoc(const RunConfig& config) {
  RunResult out;
  std::vector<double> setup_runs;
  std::vector<MixGraph> graphs = SetUpMix(
      config,
      [](MixGraph* g) {
        for (const Template& t : kMix) (void)g->session.Run(t.text, "ADJ");
      },
      &setup_runs);
  // Relabeling keeps every answer, so one reference serves all graphs.
  const std::map<std::string, uint64_t> want =
      ReferenceCounts(graphs[0].session, &out);

  Tracer tracer;
  LatencyLog traced, untraced;
  LayerFacts facts;
  PlanShapes shapes;
  const std::vector<storage::IndexCache::Stats> cache_before =
      CacheStats(graphs);
  const double wall = ClosedLoop(config, kMix.size(), [&](size_t i,
                                                          bool trace) {
    const Template& t = kMix[i % kMix.size()];
    const size_t g = (i / kMix.size()) % graphs.size();
    const MixGraph& graph = graphs[g];
    ++out.attempted;
    if (!trace) {
      const Clock::time_point t0 = Clock::now();
      api::Result r = graph.session.Run(t.text, "ADJ");
      untraced.Add(Group(t, g), SecondsBetween(t0, Clock::now()));
      if (!r.ok()) {
        ++out.failed;
        return;
      }
      CheckCount(t, r.count(), want, &out);
      return;
    }
    const storage::Catalog& db = graph.db.catalog();
    const core::EngineOptions& options = graph.session.options();
    const int64_t op = int64_t(i);
    const Clock::time_point t0 = Clock::now();
    const int64_t root = tracer.Begin(op, "op.adhoc", -1);
    StatusOr<TracedPlan> plan =
        PlanAndPrepare(db, t.text, options, &tracer, op, root);
    StatusOr<exec::RunReport> report =
        plan.ok() ? RunTraced(db, *plan->ctx, options, &tracer, op, root)
                  : StatusOr<exec::RunReport>(plan.status());
    tracer.End(root);
    traced.Add(Group(t, g), SecondsBetween(t0, Clock::now()));
    if (!report.ok() || !report->ok()) {
      ++out.failed;
      return;
    }
    CheckCount(t, report->output_count, want, &out);
    facts.counters.Add(*report);
    shapes.Add(Group(t, g), *plan);
    ProbePlannerLayers(db, plan->query, options, &tracer, op);
  });
  shapes.Fill(&facts);
  FinishMix(config, graphs, setup_runs, traced, untraced, wall, cache_before,
            tracer, &facts, &out);
  return out;
}

RunResult RunPrepared(const RunConfig& config) {
  RunResult out;
  std::vector<double> setup_runs;
  std::vector<MixGraph> graphs = SetUpMix(
      config,
      [&](MixGraph* g) {
        for (const Template& t : kMix) {
          StatusOr<api::PreparedQuery> pq = g->session.Prepare(t.text);
          out.Check(pq.ok(), std::string(t.name) + " prepare failed: " +
                                 pq.status().ToString());
          if (!pq.ok()) return;
          (void)pq->Run();  // the first run builds the per-server shards
          g->prepared.push_back(std::move(pq.value()));
        }
      },
      &setup_runs);
  if (!out.correct) return out;
  const std::map<std::string, uint64_t> want =
      ReferenceCounts(graphs[0].session, &out);

  // The traced rounds run the same queries through the engine calls
  // PreparedQuery wraps; building those plans here also times the
  // planner layers, which this workload pays only during set-up.
  Tracer tracer;
  LayerFacts facts;
  PlanShapes shapes;
  if (config.trace) {
    for (size_t g = 0; g < graphs.size(); ++g) {
      MixGraph& graph = graphs[g];
      const storage::Catalog& db = graph.db.catalog();
      const core::EngineOptions& options = graph.session.options();
      for (size_t q = 0; q < kMix.size(); ++q) {
        const int64_t op = -1 - int64_t(g * kMix.size() + q);  // set-up
        StatusOr<TracedPlan> plan =
            PlanAndPrepare(db, kMix[q].text, options, &tracer, op, -1);
        if (!plan.ok()) {
          out.Check(false, std::string(kMix[q].name) +
                               " traced prepare failed: " +
                               plan.status().ToString());
          return out;
        }
        ProbePlannerLayers(db, plan->query, options, &tracer, op);
        shapes.Add(Group(kMix[q], g), *plan);
        (void)core::Engine(&db).RunPrepared(*plan->ctx, options);
        graph.traced.push_back(std::move(plan.value()));
      }
    }
  }

  LatencyLog traced, untraced;
  const std::vector<storage::IndexCache::Stats> cache_before =
      CacheStats(graphs);
  const double wall = ClosedLoop(config, kMix.size(), [&](size_t i,
                                                          bool trace) {
    const size_t q = i % kMix.size();
    const Template& t = kMix[q];
    const size_t g = (i / kMix.size()) % graphs.size();
    MixGraph& graph = graphs[g];
    ++out.attempted;
    if (!trace) {
      const Clock::time_point t0 = Clock::now();
      api::Result r = graph.prepared[q].Run();
      untraced.Add(Group(t, g), SecondsBetween(t0, Clock::now()));
      if (!r.ok()) {
        ++out.failed;
        return;
      }
      CheckCount(t, r.count(), want, &out);
      return;
    }
    const int64_t op = int64_t(i);
    const Clock::time_point t0 = Clock::now();
    const int64_t root = tracer.Begin(op, "op.prepared", -1);
    StatusOr<exec::RunReport> report =
        RunTraced(graph.db.catalog(), *graph.traced[q].ctx,
                  graph.session.options(), &tracer, op, root);
    tracer.End(root);
    traced.Add(Group(t, g), SecondsBetween(t0, Clock::now()));
    if (!report.ok() || !report->ok()) {
      ++out.failed;
      return;
    }
    CheckCount(t, report->output_count, want, &out);
    facts.counters.Add(*report);
  });
  shapes.Fill(&facts);
  FinishMix(config, graphs, setup_runs, traced, untraced, wall, cache_before,
            tracer, &facts, &out);
  return out;
}

// ---------------------------------------------------------------------
// serve-rw: open-loop Poisson reads against serve::Server beside a
// periodic writer.
// ---------------------------------------------------------------------

namespace {

// About half the rate at which, on a 4-core host, queue-full rejections
// begin (~4000/s); at this rate about one read in ten is a stale plan
// refreshed after a write.
constexpr double kReadRate = 2000.0;       // reads per second
constexpr double kReadLimitS = 0.100;      // latency limit of one read
constexpr double kReadDeadlineS = 1.0;     // server-side request deadline
constexpr double kWritePeriodS = 0.100;    // one batch every 100 ms
constexpr double kTrafficWarmupS = 2.0;
constexpr int kRowsPerWrite = 32;
constexpr int kKeysPerTemplate = 7;
// Set-up is timed this many times per run, each on its own labeling,
// and the median reported; the last set-up's server is measured.
constexpr int kServeSetups = 3;
constexpr double kKeyZipfTheta = 0.9;

const std::vector<Template> kServeTemplates = {
    {"tri", "G(a,b) G(b,c) G(a,c) | a="},
    {"cyc4", "G(a,b) G(b,c) G(c,d) G(d,a) | a="},
    {"cyc5c", "G(a,b) G(b,c) G(c,d) G(d,e) G(e,a) G(b,e) | b="},
};
// Selection constants are taken from the vertices ranked by out-degree
// at these positions (ties broken by shape id, so every seed picks the
// same vertices of the shape): the hubs at the top make the 4-cycle
// blow the 1 s planning budget, and the leaves at the bottom do no
// work.
const int kKeyRanks[kKeysPerTemplate] = {40, 60, 80, 100, 120, 140, 160};

struct ServeKey {
  std::string group;  // latency-log group: template and constant
  std::string text;   // the template with its selection constant
};

std::vector<ServeKey> ChooseKeys(const storage::Relation& g,
                                 const std::vector<Value>& shape_of) {
  std::map<Value, uint64_t> degree;
  for (uint64_t r = 0; r < g.size(); ++r) ++degree[g.At(r, 0)];
  std::vector<std::pair<uint64_t, Value>> ranked;
  for (const auto& [v, d] : degree) ranked.emplace_back(d, v);
  std::sort(ranked.begin(), ranked.end(), [&](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first
                              : shape_of[a.second] < shape_of[b.second];
  });
  std::vector<ServeKey> keys;
  // Interleaved, so Zipf rank r hits template r % 3.
  for (int k = 0; k < kKeysPerTemplate; ++k) {
    const size_t rank = std::min(size_t(kKeyRanks[k]), ranked.size() - 1);
    const std::string constant = std::to_string(ranked[rank].second);
    for (const Template& t : kServeTemplates) {
      keys.push_back(ServeKey{std::string(t.name) + "/" + constant,
                              std::string(t.text) + constant});
    }
  }
  return keys;
}

storage::WriteBatch MakeWrite(Rng& rng, int scale) {
  storage::WriteBatch batch;
  const uint64_t nodes = uint64_t(1) << scale;
  for (int i = 0; i < kRowsPerWrite; ++i) {
    const Value u = Value(rng.Uniform(nodes));
    Value v = Value(rng.Uniform(nodes));
    if (v == u) v = Value((v + 1) % nodes);
    batch.Insert("G", {u, v});
  }
  return batch;
}

serve::ServerOptions ServeOptions() {
  serve::ServerOptions opts;
  opts.worker_threads = 3;
  // Half a second of arrivals: a stall (a compaction's index rebuilds,
  // a host hiccup) then shows as latency rather than as rejections.
  opts.queue_capacity = 1024;
  opts.cache_capacity = 32;
  opts.default_deadline_seconds = kReadDeadlineS;
  return opts;
}

}  // namespace

RunResult RunServeRw(const RunConfig& config) {
  RunResult out;
  // The reader polls for completions between sends; fine-grained
  // sleeps keep its timestamps within microseconds.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  std::vector<double> setup_runs;
  std::unique_ptr<serve::Server> server;
  std::vector<ServeKey> keys;
  uint64_t graph_seed = 0;  // the labeling the measured server holds
  for (int rep = 0; rep < kServeSetups; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    graph_seed = SubSeed(config.seed, 20 + rep);
    std::vector<Value> shape_of;
    storage::Relation g = MakeGraph(kMixGraph, graph_seed, &shape_of);
    keys = ChooseKeys(g, shape_of);
    api::Database db;
    db.AddRelation("G", std::move(g));
    server = std::make_unique<serve::Server>(std::move(db), ServeOptions());
    std::vector<api::Result> cold;
    for (const ServeKey& k : keys) cold.push_back(server->Execute(k.text));
    setup_runs.push_back(SecondsBetween(t0, Clock::now()));
    for (size_t i = 0; i < keys.size(); ++i) {
      out.Check(cold[i].ok(), "key " + keys[i].text + " failed cold: " +
                                  cold[i].status().ToString());
    }
  }
  // Every key must answer alone within the latency limit once warm.
  for (const ServeKey& k : keys) {
    const Clock::time_point t0 = Clock::now();
    api::Result r = server->Execute(k.text);
    const double s = SecondsBetween(t0, Clock::now());
    out.Check(r.ok() && s <= kReadLimitS,
              "key " + k.text + " answers alone in " + std::to_string(s) +
                  " s (" + r.status().ToString() + ")");
  }
  if (!out.correct) return out;

  Tracer tracer;
  LayerFacts facts;
  const serve::ServerStats stats_before = server->stats();
  const storage::IndexCache::Stats cache_before =
      server->database().catalog().index_cache().stats();

  // Traffic runs kTrafficWarmupS before the measured window opens; the
  // first second after set-up is several times slower (fresh threads
  // and allocator arenas, the first plan refreshes).
  auto after = [](Clock::time_point t, double seconds) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  };
  const Clock::time_point traffic_start = Clock::now();
  const Clock::time_point start = after(traffic_start, kTrafficWarmupS);
  const Clock::time_point end = after(start, config.seconds);

  // Writer: one batch per period, timed from when it was due.
  std::vector<storage::WriteBatch> writes;
  std::vector<double> write_latency;
  std::atomic<uint64_t> write_failures{0};
  std::thread writer([&] {
    Rng rng(SubSeed(config.seed, 3));
    for (int w = 1;; ++w) {
      const Clock::time_point due = after(traffic_start, w * kWritePeriodS);
      if (due >= end) break;
      storage::WriteBatch batch = MakeWrite(rng, kMixGraph.scale);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      if (!server->Apply(batch).ok()) write_failures.fetch_add(1);
      const Clock::time_point done = Clock::now();
      writes.push_back(std::move(batch));
      if (due < start) continue;
      write_latency.push_back(SecondsBetween(due, done));
      if (config.trace) tracer.Record(w, "serve.apply", sent, done, -1);
    }
  });

  // Reader: Poisson arrivals over Zipf-popular keys; each read's
  // latency counts from when it was due.
  struct Pending {
    std::future<api::Result> result;
    Clock::time_point due;
    size_t key;
    uint64_t seq;
    bool measured;
    bool traced;
  };
  std::vector<Pending> pending;
  LatencyLog traced, untraced;
  std::vector<double> lag;
  uint64_t over_limit = 0;
  Clock::time_point last_done = start;
  RunCounters& counters = facts.counters;
  // Records every finished read; the reader calls it between sends,
  // so a read's completion is seen within one short sleep.
  auto collect = [&] {
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (p.result.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      api::Result r = p.result.get();
      const Clock::time_point done = Clock::now();
      const double latency = SecondsBetween(p.due, done);
      if (!r.ok()) {
        ++out.failed;
      } else if (p.measured) {
        last_done = done;
        (p.traced ? traced : untraced).Add(keys[p.key].group, latency);
        if (latency > kReadLimitS) ++over_limit;
        if (p.traced) {
          counters.Add(r.report());
          tracer.Record(int64_t(p.seq), "op.serve_read", p.due, done, -1);
        }
      }
      pending[i] = std::move(pending.back());
      pending.pop_back();
    }
  };
  {
    Rng rng(SubSeed(config.seed, 2));
    const ZipfSampler zipf(keys.size(), kKeyZipfTheta);
    Clock::time_point due = traffic_start;
    for (uint64_t n = 0;; ++n) {
      due = after(due, -std::log(1.0 - rng.NextDouble()) / kReadRate);
      if (due >= end) break;
      const size_t key = size_t(zipf.Sample(rng));
      while (Clock::now() < due) {
        collect();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
      lag.push_back(SecondsBetween(due, Clock::now()));
      ++out.attempted;
      StatusOr<std::future<api::Result>> f = server->Submit(keys[key].text);
      if (!f.ok()) {
        ++out.failed;
        continue;
      }
      pending.push_back(Pending{std::move(f.value()), due, key, n,
                                due >= start, config.trace && n % 2 == 1});
    }
    while (!pending.empty()) {
      collect();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  writer.join();
  server->Drain();
  const double wall = SecondsBetween(start, last_done);
  out.Check(write_failures.load() == 0,
            std::to_string(write_failures.load()) + " writes failed");

  // After the writes, every key must answer what a fresh session
  // computes on the final database.
  const serve::ServerStats stats_after = server->stats();
  const storage::IndexCache::Stats cache_after =
      server->database().catalog().index_cache().stats();
  {
    const api::Session fresh = server->database().OpenSession();
    for (const ServeKey& k : keys) {
      api::Result served = server->Execute(k.text);
      api::Result want = fresh.Run(k.text);
      out.Check(served.ok() && want.ok() && served.count() == want.count(),
                "key " + k.text + " served " + std::to_string(served.count()) +
                    " != fresh " + std::to_string(want.count()));
    }
  }

  if (!config.trace) {
    AddEndToEnd(setup_runs, untraced, wall, &out);
    return out;
  }

  // The same batch sequence replayed alone through Database::Apply:
  // serve.apply_s minus this is time the writer spent waiting.
  {
    api::Database replay = MakeDatabase(kMixGraph, graph_seed);
    for (size_t w = 0; w < writes.size(); ++w) {
      const Clock::time_point t0 = Clock::now();
      (void)replay.Apply(writes[w]);
      tracer.Record(int64_t(w), "storage.apply", t0, Clock::now(), -1);
    }
  }
  // Session::Reprepare on each key after one more write.
  {
    api::Database& db = server->database();  // drained: no reader left
    const api::Session session = db.OpenSession();
    std::vector<api::PreparedQuery> plans;
    for (const ServeKey& k : keys) {
      StatusOr<api::PreparedQuery> pq = session.Prepare(k.text);
      if (pq.ok()) plans.push_back(std::move(pq.value()));
    }
    Rng rng(SubSeed(config.seed, 4));
    (void)db.Apply(MakeWrite(rng, kMixGraph.scale));
    for (size_t p = 0; p < plans.size(); ++p) {
      Scope span(&tracer, int64_t(p), "api.reprepare");
      (void)session.Reprepare(plans[p]);
    }
  }

  const uint64_t accepted = stats_after.accepted - stats_before.accepted;
  facts.plan_hit_ratio =
      accepted > 0
          ? double(stats_after.cache.hits - stats_before.cache.hits) /
                double(accepted)
          : 0.0;
  facts.plan_builds =
      double(stats_after.plan_builds - stats_before.plan_builds);
  facts.plan_waits = double(stats_after.plan_waits - stats_before.plan_waits);
  facts.reprepared = double(stats_after.reprepared - stats_before.reprepared);
  facts.invalidations = double(stats_after.cache.invalidations -
                               stats_before.cache.invalidations);
  facts.expired =
      double(stats_after.expired_in_queue + stats_after.expired_planning -
             stats_before.expired_in_queue - stats_before.expired_planning);
  facts.rejected = double(stats_after.rejected - stats_before.rejected);
  AddIndexFacts(cache_before, cache_after, &facts);
  facts.write_p50_s = Quantile(write_latency, 0.50);
  facts.write_p90_s = Quantile(write_latency, 0.90);
  facts.generator_lag_p99_s = Quantile(lag, 0.99);
  facts.failed_ratio =
      double(out.failed + over_limit) / double(out.attempted);
  FillRunFacts(traced, untraced, &facts);
  FinishTraced(config, tracer, facts, &out);
  return out;
}

// ---------------------------------------------------------------------
// restart: time to the first answer from a fresh process-level
// database opened from a snapshot.
// ---------------------------------------------------------------------

namespace {
// Sized so one restart-to-first-answer takes about 0.1 s, which gives
// the tail its 100 samples within the run.
constexpr GraphSize kRestartGraph = {14, 60'000};
// Set-ups, each on its own labeling, whose median is setup_s; the last
// one's snapshot is reopened. A set-up takes only ~0.15 s, so host noise
// moves it by a large share, and the median of seven holds still.
constexpr int kRestartSetups = 7;
}  // namespace

RunResult RunRestart(const RunConfig& config) {
  RunResult out;
  const Template& q1 = kMix[0];
  const std::string path = config.out_dir + "/restart-" +
                           std::to_string(config.seed) + ".snapshot";
  Tracer tracer;
  std::vector<double> setup_runs;
  uint64_t want = 0, user_tuples = 0;
  for (int rep = 0; rep < kRestartSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    api::Database db =
        MakeDatabase(kRestartGraph, SubSeed(config.seed, 20 + rep));
    const api::Session session = db.OpenSession();
    StatusOr<api::PreparedQuery> pq = session.Prepare(q1.text);
    api::Result warm = pq.ok() ? pq->Run() : api::Result(pq.status());
    const Clock::time_point save_start = Clock::now();
    const Status saved = db.Save(path);
    const Clock::time_point save_end = Clock::now();
    setup_runs.push_back(SecondsBetween(t0, save_end));
    tracer.Record(-1 - rep, "persist.save", save_start, save_end, -1);
    out.Check(warm.ok() && saved.ok(),
              "restart set-up failed: " + warm.status().ToString() + " / " +
                  saved.ToString());
    if (!out.correct) return out;
    want = warm.count();
    user_tuples = db.total_tuples();
  }

  LatencyLog traced, untraced;
  LayerFacts facts;
  PlanShapes shapes;
  const double wall = ClosedLoop(config, 1, [&](size_t i, bool trace) {
    ++out.attempted;
    const int64_t op = int64_t(i);
    const Clock::time_point t0 = Clock::now();
    const int64_t root = trace ? tracer.Begin(op, "op.restart", -1) : -1;
    api::Database db;
    Status opened;
    {
      Scope span(trace ? &tracer : nullptr, op, "persist.open", root);
      opened = db.Open(path);
    }
    uint64_t count = 0, mmap_loaded = 0;
    bool ok = opened.ok();
    std::optional<query::Query> probe;
    if (ok && !trace) {
      StatusOr<api::PreparedQuery> pq = db.OpenSession().Prepare(q1.text);
      api::Result r = pq.ok() ? pq->Run() : api::Result(pq.status());
      ok = r.ok();
      count = r.count();
      mmap_loaded = r.index_mmap_loaded();
    } else if (ok) {
      const core::EngineOptions options;
      StatusOr<TracedPlan> plan = PlanAndPrepare(db.catalog(), q1.text,
                                                 options, &tracer, op, root);
      StatusOr<exec::RunReport> report =
          plan.ok() ? RunTraced(db.catalog(), *plan->ctx, options, &tracer,
                                op, root)
                    : StatusOr<exec::RunReport>(plan.status());
      ok = report.ok() && report->ok();
      if (ok) {
        count = report->output_count;
        mmap_loaded = report->index_mmap;
        facts.counters.Add(*report);
        shapes.Add(q1.name, *plan);
        probe = plan->query;
      }
    }
    if (trace) tracer.End(root);
    (trace ? traced : untraced).Add(q1.name, SecondsBetween(t0, Clock::now()));
    if (probe) {
      ProbePlannerLayers(db.catalog(), *probe, core::EngineOptions(), &tracer,
                         op);
    }
    if (!ok) {
      ++out.failed;
      return;
    }
    out.Check(count == want, "count after Open " + std::to_string(count) +
                                 " != before Save " + std::to_string(want));
    out.Check(mmap_loaded > 0, "first run after Open loaded no mmap index");
  });

  std::error_code ec;
  const double snapshot_bytes = double(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  if (!config.trace) {
    AddEndToEnd(setup_runs, untraced, wall, &out);
    return out;
  }
  shapes.Fill(&facts);
  facts.snapshot_bytes = snapshot_bytes;
  facts.stored_per_user =
      snapshot_bytes / (double(user_tuples) * 2.0 * sizeof(Value));
  facts.failed_ratio = double(out.failed) / double(out.attempted);
  FillRunFacts(traced, untraced, &facts);
  FinishTraced(config, tracer, facts, &out);
  return out;
}

}  // namespace adj::benchmark
