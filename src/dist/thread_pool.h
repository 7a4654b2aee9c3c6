#ifndef ADJ_DIST_THREAD_POOL_H_
#define ADJ_DIST_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adj::dist {

/// Reusable fixed-size worker pool with two modes of use:
///
/// - Batch mode — RunAll() blocks until every task of the batch has
///   executed exactly once. Used to run the simulated servers of one
///   cluster concurrently (exec::RunHCubeJ's worker_threads) and
///   reusable across batches so multi-stage plans do not re-spawn
///   threads per stage.
/// - Streaming mode — Submit() enqueues one task and returns
///   immediately; some worker runs it as soon as it is free. This is
///   the serving mode: serve::Server admits each accepted request as
///   one submitted task. WaitIdle() blocks until all submitted tasks
///   have drained, and the destructor drains any still-pending
///   submitted tasks before joining (a submitted task is never
///   dropped).
///
/// The modes may interleave on one pool; workers prefer the active
/// batch, then the submitted queue.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return int(workers_.size()); }

  /// Runs every task of `tasks` exactly once across the workers and
  /// returns when all are done. An empty batch is a no-op. Not
  /// re-entrant: one batch at a time per pool.
  void RunAll(const std::vector<std::function<void()>>& tasks);

  /// Streaming mode: enqueues `task` to run exactly once on some
  /// worker and returns immediately. There is no internal bound on the
  /// submitted queue — callers that need admission control bound it
  /// themselves (serve::AdmissionQueue). Must not race with the pool's
  /// destruction.
  void Submit(std::function<void()> task);

  /// Blocks until the submitted queue is empty and no submitted task
  /// is in flight. Batches (RunAll) are not waited on. Tasks submitted
  /// concurrently with the wait may or may not be covered by it.
  void WaitIdle();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::vector<std::function<void()>>* tasks_ = nullptr;  // guarded by mu_
  size_t next_ = 0;   // next unclaimed task index
  size_t done_ = 0;   // tasks finished in the current batch
  std::deque<std::function<void()>> submitted_;  // streaming-mode queue
  size_t submitted_active_ = 0;  // submitted tasks currently executing
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs `tasks` on `threads` host threads and blocks until all finish.
/// threads <= 1 executes inline, sequentially, in submission order —
/// the right mode for cost measurements (per-task timings undistorted).
void RunTasks(int threads, const std::vector<std::function<void()>>& tasks);

/// True on a ThreadPool worker (which includes RunTasks' threads).
/// Code that could fan out further — the planner's sampling passes —
/// stays serial there: the pool already spreads work over the cores.
bool OnPoolThread();

}  // namespace adj::dist

#endif  // ADJ_DIST_THREAD_POOL_H_
