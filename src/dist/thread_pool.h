#ifndef ADJ_DIST_THREAD_POOL_H_
#define ADJ_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

namespace adj::dist {

/// Reusable fixed-size worker pool with two modes of use:
///
/// - Fork-join — ForkJoin() runs every task of a batch exactly once
///   and returns when all are done. The calling thread runs tasks of
///   its own batch too (caller-helps), so a batch always completes,
///   even when every worker is busy or the call is made from inside
///   another batch's task. Batches posted at the same time from
///   different threads share the workers, oldest batch first. This is
///   how RunTasks spreads the simulated servers' joins and the
///   sampler's pinned runs over the cores, on one process-wide pool.
/// - Streaming — Submit() enqueues one task and returns immediately;
///   some worker runs it as soon as it is free. This is the serving
///   mode: serve::Server admits each accepted request as one submitted
///   task. WaitIdle() blocks until all submitted tasks have drained,
///   and the destructor drains any still-pending submitted tasks
///   before joining (a submitted task is never dropped).
///
/// The modes may interleave on one pool; workers prefer batch tasks,
/// then the submitted queue.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return int(workers_.size()); }

  /// Runs every task of `tasks` exactly once on the calling thread and
  /// at most `max_threads - 1` workers at a time, and returns when all
  /// are done. The caller runs unclaimed tasks itself, then waits only
  /// for tasks other threads are already running. An empty batch is a
  /// no-op. Safe to call concurrently and from inside a task.
  void ForkJoin(const std::vector<std::function<void()>>& tasks,
                int max_threads = std::numeric_limits<int>::max());

  /// Streaming mode: enqueues `task` to run exactly once on some
  /// worker and returns immediately. There is no internal bound on the
  /// submitted queue — callers that need admission control bound it
  /// themselves (serve::AdmissionQueue). Must not race with the pool's
  /// destruction.
  void Submit(std::function<void()> task);

  /// Blocks until the submitted queue is empty and no submitted task
  /// is in flight. Batches (ForkJoin) are not waited on. Tasks
  /// submitted concurrently with the wait may or may not be covered.
  void WaitIdle();

 private:
  struct Batch;

  void WorkerLoop();
  /// Oldest posted batch with an unclaimed task and a free helper
  /// slot, or nullptr. Requires mu_.
  Batch* HelpableBatch() const;
  /// Claims the next task of `batch`; unlists the batch once its last
  /// task is claimed. Requires mu_.
  size_t Claim(Batch& batch);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<Batch*> batches_;  // posted, not fully claimed; oldest first
  std::deque<std::function<void()>> submitted_;  // streaming-mode queue
  size_t submitted_active_ = 0;  // submitted tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `tasks` on at most `threads` host threads and blocks until all
/// finish. threads <= 1 (or a single task) executes inline,
/// sequentially, in submission order — the right mode for cost
/// measurements (per-task timings undistorted). Otherwise the calling
/// thread and the process-wide pool share the batch: the pool starts
/// on first use with hardware threads - 1 workers (at least one) and
/// lives for the rest of the process.
void RunTasks(int threads, const std::vector<std::function<void()>>& tasks);

/// True on a ThreadPool worker, and while a thread runs a task of a
/// ForkJoin batch (RunTasks' threads, its caller included). Code that
/// could fan out further — the planner's sampling passes, the
/// per-server joins — stays serial there: the batch already spreads
/// work over the cores.
bool OnPoolThread();

/// Threads for a fan-out of `tasks` independent tasks started on this
/// thread: min(tasks, hardware threads), or 1 on a pool thread (a
/// serve worker, a RunBatch query), where concurrent callers already
/// share the cores. The one thread rule of sampling passes and of
/// exec::RunHCubeJ's per-server joins.
int FanOutThreads(uint64_t tasks = std::numeric_limits<uint64_t>::max());

}  // namespace adj::dist

#endif  // ADJ_DIST_THREAD_POOL_H_
