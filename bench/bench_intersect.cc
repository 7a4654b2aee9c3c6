// Intersection-kernel smoke: three gates on the leapfrog hot path.
//
//  1. Kernel ratio — the dispatched SIMD 2-way kernel must beat the
//     scalar galloping baseline by >= 1.5x on the leapfrog Descend
//     shape: a sparse probe side against a dense value run, where the
//     block compare retires a vector's worth of the dense side per
//     instruction. Skipped (and recorded as such) when the CPU offers
//     no SIMD kernel. A second shape gates the dense similar-size
//     all-pairs kernel: both sides dense and equal-length, where the
//     shuffle-compare variant must beat scalar by >= 1.2x.
//  2. Allocation-free joins — the number of heap allocations during a
//     LeapfrogJoin must not depend on data size: a join over a 10x
//     larger graph must allocate exactly as many times (the fixed
//     arena + executor setup), and few times in absolute terms. This
//     is what "allocation-free hot path" means observably: per-tuple
//     work costs zero heap traffic.
//  3. End-to-end parity — the dispatched kernel must not make the full
//     triangle join slower than forced-scalar (median of 5 alternated
//     joins each, small tolerance for timer noise).
//
// Allocations are counted by overriding global operator new/delete in
// this binary. Exits non-zero on any violation so CI's Release leg
// catches a regression; records its numbers in BENCH_intersect.json
// (FinishGates, bench_util.h).
//
// Scale knob: ADJ_BENCH_SCALE (bench_util.h) multiplies the workload.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "wcoj/intersect.h"
#include "wcoj/leapfrog.h"

namespace {

std::atomic<uint64_t> g_alloc_count{0};

}  // namespace

void* operator new(size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace adj::bench {
namespace {

using wcoj::intersect::ActiveKernel;
using wcoj::intersect::Kernel;
using wcoj::intersect::KernelName;
using wcoj::intersect::KernelStats;
using wcoj::intersect::SetKernel;

constexpr double kMinKernelRatio = 1.5;
constexpr double kMinDenseRatio = 1.2;  // all-pairs kernel vs scalar
constexpr double kMaxE2eRatio = 1.10;  // dispatched / scalar, warm

/// Strictly increasing values with ~1/(1 + max_gap/2) density — gap
/// walk, no set churn.
std::vector<Value> GapWalk(Rng& rng, size_t count, uint64_t max_gap) {
  std::vector<Value> v(count);
  Value cur = 0;
  for (size_t i = 0; i < count; ++i) {
    cur += static_cast<Value>(1 + rng.Uniform(max_gap));
    v[i] = cur;
  }
  return v;
}

/// Min-of-reps wall time for one fixed 2-way kernel over (a, b).
double TimeKernel(Kernel k, const std::vector<Value>& a,
                  const std::vector<Value>& b, std::vector<Value>* out,
                  int reps, size_t* result_size) {
  KernelStats stats;
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    size_t n = 0;
    switch (k) {
      case Kernel::kScalar:
        n = Intersect2Scalar(a, b, out->data(), nullptr, 1, nullptr, 1,
                             &stats);
        break;
      case Kernel::kSse42:
        n = Intersect2Sse42(a, b, out->data(), nullptr, 1, nullptr, 1,
                            &stats);
        break;
      case Kernel::kAvx2:
        n = Intersect2Avx2(a, b, out->data(), nullptr, 1, nullptr, 1,
                           &stats);
        break;
      default:
        break;
    }
    const double s = t.Seconds();
    if (r == 0 || s < best) best = s;
    *result_size = n;
  }
  return best;
}

/// A random graph as a sorted-unique binary relation.
storage::Relation RandomGraph(Rng& rng, uint64_t edges, uint64_t vertices) {
  storage::Relation g(storage::Schema({0, 1}));
  g.Reserve(edges);
  for (uint64_t e = 0; e < edges; ++e) {
    g.Append({static_cast<Value>(rng.Uniform(vertices)),
              static_cast<Value>(rng.Uniform(vertices))});
  }
  g.SortAndDedup();
  return g;
}

struct JoinRun {
  uint64_t count = 0;
  uint64_t allocs = 0;
  double seconds = 0.0;
};

/// One count-only triangle LeapfrogJoin over prepared tries, with the
/// heap-allocation count of the join call itself.
JoinRun RunTriangle(const wcoj::PreparedRelation& ab,
                    const wcoj::PreparedRelation& bc,
                    const wcoj::PreparedRelation& ac) {
  std::vector<wcoj::JoinInput> inputs = {{&ab.trie, ab.attrs},
                                         {&bc.trie, bc.attrs},
                                         {&ac.trie, ac.attrs}};
  query::AttributeOrder order{0, 1, 2};
  JoinRun run;
  wcoj::JoinStats stats;
  const uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  WallTimer t;
  StatusOr<uint64_t> count =
      wcoj::LeapfrogJoin(inputs, order, nullptr, &stats);
  run.seconds = t.Seconds();
  run.allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  ADJ_CHECK(count.ok()) << count.status();
  run.count = *count;
  return run;
}

int Run() {
  const double scale = ScaleFromEnv(1.0);
  const Kernel simd = ActiveKernel();
  const bool have_simd = simd != Kernel::kScalar;
  std::printf("intersect: kernel=%s\n", KernelName(simd));
  GateResult result;
  result.Add("scale", scale, "x");

  // ---- Gate 1: SIMD kernel vs scalar on the Descend-shaped 2-way
  // intersection: sparse probes (avg gap ~4.5) against a dense run.
  Rng rng(42);
  const size_t set_size = static_cast<size_t>(1'000'000 * scale);
  const std::vector<Value> a = GapWalk(rng, set_size / 8, 8);
  const std::vector<Value> b = GapWalk(rng, set_size, 1);
  std::vector<Value> out(set_size);
  const int reps = 9;
  size_t n_scalar = 0, n_simd = 0;
  const double scalar_s =
      TimeKernel(Kernel::kScalar, a, b, &out, reps, &n_scalar);
  double simd_s = 0.0;
  double kernel_ratio = 0.0;
  if (have_simd) {
    simd_s = TimeKernel(simd, a, b, &out, reps, &n_simd);
    kernel_ratio = simd_s > 0 ? scalar_s / simd_s : kMinKernelRatio * 10;
    result.Check(n_simd == n_scalar, "SIMD result size == scalar");
    result.Check(kernel_ratio >= kMinKernelRatio,
                 "SIMD kernel >= " + Num(kMinKernelRatio) + "x scalar");
  }
  result.Add("set_size", set_size, "count");
  result.Add("scalar_s", scalar_s, "s");
  result.Add("simd_s", simd_s, "s");
  result.Add("kernel_ratio", kernel_ratio, "x");

  // ---- Gate 1b: the dense similar-size shape, where block-compare
  // merging only ties scalar (one probe retired per compare). Both
  // sides dense (avg gap 1.5) and equal-length, values-only — the
  // conditions under which Intersect2 dispatches the all-pairs
  // shuffle kernel. It must beat scalar by >= 1.2x.
  Rng dense_rng(43);
  const size_t dense_size = static_cast<size_t>(1'000'000 * scale);
  const std::vector<Value> da = GapWalk(dense_rng, dense_size, 2);
  const std::vector<Value> db = GapWalk(dense_rng, dense_size, 2);
  std::vector<Value> dense_out(dense_size);
  size_t n_dense_scalar = 0, n_dense_auto = 0;
  const double dense_scalar_s =
      TimeKernel(Kernel::kScalar, da, db, &dense_out, reps, &n_dense_scalar);
  double dense_auto_s = 0.0;
  double dense_ratio = 0.0;
  if (have_simd) {
    // Values-only dispatched call: Intersect2 selects the dense
    // all-pairs kernel (TimeKernel's fixed variants would not).
    KernelStats dense_stats;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      n_dense_auto = Intersect2(da, db, dense_out.data(), nullptr, 1,
                                nullptr, 1, &dense_stats);
      const double s = t.Seconds();
      if (r == 0 || s < dense_auto_s) dense_auto_s = s;
    }
    dense_ratio = dense_auto_s > 0 ? dense_scalar_s / dense_auto_s
                                   : kMinDenseRatio * 10;
    result.Check(n_dense_auto == n_dense_scalar,
                 "dense result size == scalar");
    result.Check(dense_ratio >= kMinDenseRatio,
                 "dense all-pairs kernel >= " + Num(kMinDenseRatio) +
                     "x scalar");
  }
  result.Add("dense_scalar_s", dense_scalar_s, "s");
  result.Add("dense_dispatched_s", dense_auto_s, "s");
  result.Add("dense_ratio", dense_ratio, "x");

  // ---- Gate 2: join allocation count is workload-independent.
  Rng graph_rng(7);
  const uint64_t small_edges = static_cast<uint64_t>(30'000 * scale);
  const uint64_t big_edges = small_edges * 10;
  const storage::Relation small_g =
      RandomGraph(graph_rng, small_edges, small_edges / 15);
  const storage::Relation big_g =
      RandomGraph(graph_rng, big_edges, big_edges / 15);
  auto prep = [](const storage::Relation& g, std::vector<AttrId> attrs) {
    StatusOr<wcoj::PreparedRelation> p =
        wcoj::PrepareRelation(g, attrs, {0, 1, 2});
    ADJ_CHECK(p.ok()) << p.status();
    return std::move(p.value());
  };
  const wcoj::PreparedRelation s_ab = prep(small_g, {0, 1});
  const wcoj::PreparedRelation s_bc = prep(small_g, {1, 2});
  const wcoj::PreparedRelation s_ac = prep(small_g, {0, 2});
  const wcoj::PreparedRelation b_ab = prep(big_g, {0, 1});
  const wcoj::PreparedRelation b_bc = prep(big_g, {1, 2});
  const wcoj::PreparedRelation b_ac = prep(big_g, {0, 2});

  RunTriangle(s_ab, s_bc, s_ac);  // warm-up: malloc arenas, page in
  const JoinRun small_run = RunTriangle(s_ab, s_bc, s_ac);
  const JoinRun big_run = RunTriangle(b_ab, b_bc, b_ac);
  result.Add("join_allocs_small", small_run.allocs, "count");
  result.Add("join_allocs_big", big_run.allocs, "count");
  result.Check(small_run.allocs == big_run.allocs,
               "join allocation count independent of data size (10x edges)");
  result.Check(big_run.allocs <= 64, "join performs <= 64 allocations");

  // ---- Gate 3: dispatched warm join no slower than forced scalar.
  // The two kernels alternate, so a change in host load lands on both;
  // each side is the median of 5 joins.
  std::vector<double> scalar_s_runs, auto_s_runs;
  uint64_t scalar_count = 0, auto_count = 0;
  for (int r = 0; r < 5; ++r) {
    SetKernel(Kernel::kScalar);
    const JoinRun scalar_join = RunTriangle(b_ab, b_bc, b_ac);
    SetKernel(Kernel::kAuto);
    const JoinRun auto_join = RunTriangle(b_ab, b_bc, b_ac);
    scalar_s_runs.push_back(scalar_join.seconds);
    auto_s_runs.push_back(auto_join.seconds);
    scalar_count = scalar_join.count;
    auto_count = auto_join.count;
  }
  const double e2e_scalar_s = Median(scalar_s_runs);
  const double e2e_auto_s = Median(auto_s_runs);
  const double e2e_ratio =
      e2e_scalar_s > 0 ? e2e_auto_s / e2e_scalar_s : 1.0;
  result.Add("e2e_scalar_s", e2e_scalar_s, "s");
  result.Add("e2e_dispatched_s", e2e_auto_s, "s");
  result.Add("e2e_ratio", e2e_ratio, "x");
  result.Check(auto_count == scalar_count,
               "dispatched join count == scalar");
  if (have_simd) {
    result.Check(e2e_ratio <= kMaxE2eRatio,
                 "dispatched join <= " + Num(kMaxE2eRatio) + "x scalar");
  }
  return FinishGates("intersect", result);
}

}  // namespace
}  // namespace adj::bench

int main() { return adj::bench::Run(); }
