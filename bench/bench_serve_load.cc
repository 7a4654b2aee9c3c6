// Closed-loop serving-QoS load harness: one serve::Server under an
// SNB-style mixed workload — interactive clients cycling three query
// templates, a batch client pushing SubmitBatch work down the batch
// lane, a background client on a zero-weight scavenger lane, and a
// writer applying WriteBatch inserts live — measured against a solo
// (zero-contention) baseline on the same server. Reports p50/p95/p99
// latency, throughput, and rejection/deadline rates per phase. Gates,
// each a hard failure for CI's Release leg:
//
//   1. single-flight planning: 16 concurrent cold misses for one
//      canonical key on a fresh server cost exactly 1 plan build
//      (ServerStats::plan_builds == 1, every other request joins the
//      flight or hits the cache the build filled), and all 16 agree
//      on the count;
//   2. QoS under load: the mixed-load interactive p99 stays within a
//      fixed multiple of the solo p99 (floored, so a very fast solo
//      baseline cannot make the gate vacuous) — weighted lanes plus
//      backpressure must keep interactive latency bounded while batch
//      work, background work, and live writes compete for the box;
//   3. sanity: every request completes ok or with the two sanctioned
//      QoS errors (DeadlineExceeded / ResourceExhausted), and solo
//      counts per template are identical across repetitions (no
//      writes happen in the solo phase).
//
// Records its numbers in BENCH_serve_load.json (FinishGates,
// bench_util.h). Scale knobs: ADJ_BENCH_SCALE.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "serve/server.h"
#include "storage/write_batch.h"

namespace adj::bench {
namespace {

constexpr char kTriangle[] = "G(a,b) G(b,c) G(a,c)";
constexpr char kPath[] = "G(a,b) G(b,c)";
constexpr char kSquare[] = "G(a,b) G(b,c) G(c,d) G(d,a)";
const char* const kTemplates[] = {kTriangle, kPath, kSquare};

constexpr int kColdClients = 16;    // gate 1 fan-in
constexpr int kSoloOps = 60;        // solo baseline ops (template-cycled)
constexpr int kInteractive = 6;     // mixed-phase closed-loop clients
constexpr int kOpsPerClient = 30;   // ops per interactive client
constexpr int kBatchRounds = 8;     // SubmitBatch calls by the batch client
constexpr int kBatchSize = 4;       // kPath queries per batch
constexpr int kBackgroundOps = 8;   // zero-weight-lane submissions
constexpr int kWriteBatches = 10;   // live WriteBatch applies
// Gate 2: mixed p99 <= kMaxP99Multiple * max(solo p99, kSoloFloor).
// Generous on purpose — this box is small and the mixed phase runs
// ~9 threads against it — but a fairness or single-flight regression
// shows up as seconds of queueing, far past this bound.
constexpr double kMaxP99Multiple = 50.0;
constexpr double kSoloFloor = 0.005;  // 5ms: keeps the gate non-vacuous
constexpr Value kWriteBase = 2'000'000'000;

serve::ServerOptions LoadOptions() {
  serve::ServerOptions opts;
  opts.worker_threads = 4;
  opts.queue_capacity = 64;
  opts.cache_capacity = 16;
  opts.lanes = {{"interactive", 3, 0}, {"batch", 1, 0}, {"background", 0, 16}};
  opts.engine.cluster.num_servers = ServersFromEnv();
  opts.engine.num_samples = 200;
  return opts;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = size_t(q * double(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Per-client tally for the closed-loop phases.
struct ClientTally {
  std::vector<double> latencies;  // seconds, ok requests only
  uint64_t ok = 0;
  uint64_t deadline_expired = 0;
  uint64_t rejected = 0;
  uint64_t other_errors = 0;  // anything outside the QoS contract
};

void RecordResult(const api::Result& r, double seconds, ClientTally* tally) {
  if (r.ok()) {
    ++tally->ok;
    tally->latencies.push_back(seconds);
  } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
    ++tally->deadline_expired;
  } else if (r.status().code() == StatusCode::kResourceExhausted) {
    ++tally->rejected;
  } else {
    std::fprintf(stderr, "unexpected request error: %s\n",
                 r.status().ToString().c_str());
    ++tally->other_errors;
  }
}

int Run() {
  const double scale = ScaleFromEnv(0.2);
  std::printf("serve_load: dataset=WB\n");
  GateResult result;
  result.Add("scale", scale, "x");

  // -------------------------------------------------------------------
  // Phase 1 — single-flight gate: 16 threads, one cold key, fresh
  // server. Exactly one Prepare may run.
  // -------------------------------------------------------------------
  {
    StatusOr<api::Database> opened = api::Database::OpenBuiltin("WB", scale);
    ADJ_CHECK(opened.ok()) << opened.status();
    serve::Server server(std::move(opened.value()), LoadOptions());

    std::vector<std::thread> clients;
    std::vector<uint64_t> counts(kColdClients, 0);
    std::atomic<int> errors{0};
    for (int t = 0; t < kColdClients; ++t) {
      clients.emplace_back([&, t] {
        api::Result r = server.Execute(kTriangle);
        if (!r.ok()) {
          errors.fetch_add(1);
        } else {
          counts[size_t(t)] = r.count();
        }
      });
    }
    for (std::thread& t : clients) t.join();

    serve::ServerStats stats = server.stats();
    result.Add("cold_clients", kColdClients, "count");
    result.Add("cold_plan_builds", stats.plan_builds, "count");
    result.Add("cold_plan_waits", stats.plan_waits, "count");
    result.Add("cold_cache_hits", stats.cache.hits, "count");
    result.Add("cold_errors", errors.load(), "count");
    result.Check(errors.load() == 0, "every cold-miss request succeeds");
    result.Check(stats.plan_builds == 1,
                 "single-flight: concurrent cold misses of one key cost "
                 "exactly 1 plan build");
    result.Check(std::all_of(counts.begin(), counts.end(),
                             [&](uint64_t c) { return c == counts[0]; }),
                 "every cold client gets the same count");
  }

  // -------------------------------------------------------------------
  // Phase 2 — solo baseline: one client, no competition, warm plans.
  // -------------------------------------------------------------------
  StatusOr<api::Database> opened = api::Database::OpenBuiltin("WB", scale);
  ADJ_CHECK(opened.ok()) << opened.status();
  serve::Server server(std::move(opened.value()), LoadOptions());
  for (const char* text : kTemplates) {  // warm every template's plan
    api::Result r = server.Execute(text);
    ADJ_CHECK(r.ok()) << r.status();
  }

  ClientTally solo;
  uint64_t solo_counts[3] = {0, 0, 0};
  bool solo_counts_stable = true;
  {
    WallTimer phase;
    for (int i = 0; i < kSoloOps; ++i) {
      const int which = i % 3;
      WallTimer op;
      api::Result r = server.Execute(kTemplates[which]);
      RecordResult(r, op.Seconds(), &solo);
      if (r.ok()) {
        if (solo_counts[which] == 0) {
          solo_counts[which] = r.count();
        } else if (solo_counts[which] != r.count()) {
          solo_counts_stable = false;
        }
      }
    }
    result.Add("solo_throughput_qps", double(solo.ok) / phase.Seconds(),
               "1/s");
  }
  result.Check(solo_counts_stable,
               "solo counts are stable across repetitions (no writes)");
  const double solo_p50 = Percentile(solo.latencies, 0.50);
  const double solo_p95 = Percentile(solo.latencies, 0.95);
  const double solo_p99 = Percentile(solo.latencies, 0.99);

  // -------------------------------------------------------------------
  // Phase 3 — mixed load on the same (warm) server: interactive
  // clients vs. batch lane vs. background lane vs. live writes.
  // -------------------------------------------------------------------
  std::vector<ClientTally> tallies(kInteractive);
  uint64_t batch_ok = 0, batch_errors = 0, background_ok = 0;
  std::atomic<int> writer_failures{0};
  double mixed_wall = 0.0;
  {
    WallTimer phase;
    std::vector<std::thread> threads;
    // Interactive clients: closed loop, template-cycled; every 10th op
    // carries a quarter-second deadline as a live QoS probe.
    for (int c = 0; c < kInteractive; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& tally = tallies[size_t(c)];
        for (int i = 0; i < kOpsPerClient; ++i) {
          serve::RequestOptions ropts;
          if (i % 10 == 9) ropts.deadline_seconds = 0.25;
          WallTimer op;
          api::Result r = server.Execute(kTemplates[(c + i) % 3], ropts);
          RecordResult(r, op.Seconds(), &tally);
        }
      });
    }
    // Batch client: all-or-nothing admission onto the batch lane.
    threads.emplace_back([&] {
      for (int round = 0; round < kBatchRounds; ++round) {
        std::vector<std::string> texts(kBatchSize, kPath);
        serve::RequestOptions ropts;
        ropts.lane = 1;
        auto batch = server.SubmitBatch(texts, ropts);
        if (!batch.ok()) {
          // Backpressure is a sanctioned answer for bulk work.
          if (batch.status().code() != StatusCode::kResourceExhausted) {
            ++batch_errors;
          }
          continue;
        }
        for (std::future<api::Result>& f : *batch) {
          api::Result r = f.get();
          if (r.ok()) {
            ++batch_ok;
          } else if (r.status().code() != StatusCode::kDeadlineExceeded) {
            ++batch_errors;
          }
        }
      }
    });
    // Background client: zero-weight scavenger lane — served only when
    // the weighted lanes are idle, but must still complete by drain.
    threads.emplace_back([&] {
      std::vector<std::future<api::Result>> pending;
      for (int i = 0; i < kBackgroundOps; ++i) {
        serve::RequestOptions ropts;
        ropts.lane = 2;
        auto submitted = server.Submit(kPath, ropts);
        if (submitted.ok()) pending.push_back(std::move(*submitted));
      }
      for (std::future<api::Result>& f : pending) {
        if (f.get().ok()) ++background_ok;
      }
    });
    // Writer: live WriteBatch applies — no Pause/Drain choreography.
    threads.emplace_back([&] {
      for (int i = 0; i < kWriteBatches; ++i) {
        const Value v = kWriteBase + Value(2 * i);
        storage::WriteBatch batch;
        batch.Insert("G", {v, v + 1});
        batch.Insert("G", {v + 1, v + 2});
        if (!server.Apply(batch).ok()) writer_failures.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
    for (std::thread& t : threads) t.join();
    mixed_wall = phase.Seconds();
  }

  ClientTally mixed;
  for (const ClientTally& t : tallies) {
    mixed.latencies.insert(mixed.latencies.end(), t.latencies.begin(),
                           t.latencies.end());
    mixed.ok += t.ok;
    mixed.deadline_expired += t.deadline_expired;
    mixed.rejected += t.rejected;
    mixed.other_errors += t.other_errors;
  }
  const double mixed_p50 = Percentile(mixed.latencies, 0.50);
  const double mixed_p95 = Percentile(mixed.latencies, 0.95);
  const double mixed_p99 = Percentile(mixed.latencies, 0.99);
  const double mixed_qps = mixed_wall > 0 ? double(mixed.ok) / mixed_wall : 0;
  const uint64_t issued = uint64_t(kInteractive) * uint64_t(kOpsPerClient);
  const double reject_rate = double(mixed.rejected) / double(issued);
  const double deadline_rate = double(mixed.deadline_expired) / double(issued);
  const double p99_gate = kMaxP99Multiple * std::max(solo_p99, kSoloFloor);

  serve::ServerStats stats = server.stats();
  result.Add("solo_p50_s", solo_p50, "s");
  result.Add("solo_p95_s", solo_p95, "s");
  result.Add("solo_p99_s", solo_p99, "s");
  result.Add("mixed_p50_s", mixed_p50, "s");
  result.Add("mixed_p95_s", mixed_p95, "s");
  result.Add("mixed_p99_s", mixed_p99, "s");
  result.Add("mixed_p99_gate_s", p99_gate, "s");
  result.Add("mixed_throughput_qps", mixed_qps, "1/s");
  result.Add("mixed_interactive_ok", mixed.ok, "count");
  result.Add("mixed_reject_rate", reject_rate, "ratio");
  result.Add("mixed_deadline_rate", deadline_rate, "ratio");
  result.Add("interactive_errors", mixed.other_errors, "count");
  result.Add("batch_ok", batch_ok, "count");
  result.Add("batch_errors", batch_errors, "count");
  result.Add("background_ok", background_ok, "count");
  result.Add("writer_failures", writer_failures.load(), "count");
  result.Add("writes_applied", stats.writes_applied, "count");
  result.Add("reprepared", stats.reprepared, "count");
  result.Add("plan_builds", stats.plan_builds, "count");
  result.Add("expired_in_queue", stats.expired_in_queue, "count");
  result.Add("expired_planning", stats.expired_planning, "count");
  for (const serve::LaneStats& lane : stats.lanes) {
    const std::string prefix = "lane_" + lane.name + "_";
    result.Add(prefix + "accepted", lane.accepted, "count");
    result.Add(prefix + "rejected", lane.rejected, "count");
    result.Add(prefix + "served", lane.served, "count");
    result.Add(prefix + "failed", lane.failed, "count");
  }

  // Gate 2: mixed p99 within the fixed multiple of the solo baseline.
  result.Check(mixed_p99 <= p99_gate,
               "mixed-load p99 <= " + Num(kMaxP99Multiple) +
                   "x max(solo p99, " + Num(kSoloFloor) + "s)");
  // Gate 3: nothing outside the QoS contract, and the mix completed.
  result.Check(mixed.other_errors == 0 && batch_errors == 0 &&
                   writer_failures.load() == 0,
               "no interactive, batch or writer error outside the QoS "
               "contract");
  result.Check(mixed.ok > 0 && background_ok > 0,
               "interactive and background lanes both make progress under "
               "mixed load");
  result.Check(stats.writes_applied == uint64_t(kWriteBatches),
               "every live write is applied");
  return FinishGates("serve_load", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
