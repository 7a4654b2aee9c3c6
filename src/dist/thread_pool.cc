#include "dist/thread_pool.h"

#include <algorithm>

namespace adj::dist {

namespace {

thread_local bool on_pool_thread = false;

/// Runs one batch task as a pool thread, so it does not fan out again.
void RunAsPoolThread(const std::function<void()>& task) {
  const bool was = on_pool_thread;
  on_pool_thread = true;
  task();
  on_pool_thread = was;
}

/// The process-wide pool behind RunTasks. Never destroyed: its workers
/// stay parked on it until the process exits.
ThreadPool& SharedPool() {
  static ThreadPool* const pool = new ThreadPool(
      int(std::max(2u, std::thread::hardware_concurrency())) - 1);
  return *pool;
}

}  // namespace

/// One ForkJoin call, living on its caller's stack. Guarded by mu_.
struct ThreadPool::Batch {
  const std::vector<std::function<void()>>* tasks = nullptr;
  size_t next = 0;      // next unclaimed task
  size_t done = 0;      // finished tasks
  int helpers = 0;      // tasks workers are running now
  int max_helpers = 0;  // cap on `helpers`
  std::condition_variable done_cv;
};

bool OnPoolThread() { return on_pool_thread; }

int FanOutThreads(uint64_t tasks) {
  if (on_pool_thread) return 1;
  const uint64_t cores = std::max(1u, std::thread::hardware_concurrency());
  return int(std::max<uint64_t>(1, std::min(tasks, cores)));
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(size_t(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool::Batch* ThreadPool::HelpableBatch() const {
  for (Batch* batch : batches_) {
    if (batch->helpers < batch->max_helpers) return batch;
  }
  return nullptr;
}

size_t ThreadPool::Claim(Batch& batch) {
  const size_t i = batch.next++;
  if (batch.next == batch.tasks->size()) {
    batches_.erase(std::find(batches_.begin(), batches_.end(), &batch));
  }
  return i;
}

void ThreadPool::WorkerLoop() {
  on_pool_thread = true;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || !submitted_.empty() || HelpableBatch() != nullptr;
    });
    if (Batch* batch = HelpableBatch()) {
      const size_t i = Claim(*batch);
      ++batch->helpers;
      lock.unlock();
      (*batch->tasks)[i]();
      lock.lock();
      --batch->helpers;
      // The caller may return (and free the batch) once mu_ is
      // released after the last task, so touch nothing after this.
      if (++batch->done == batch->tasks->size()) batch->done_cv.notify_one();
      continue;
    }
    if (!submitted_.empty()) {
      std::function<void()> task = std::move(submitted_.front());
      submitted_.pop_front();
      ++submitted_active_;
      lock.unlock();
      task();
      lock.lock();
      if (--submitted_active_ == 0 && submitted_.empty()) {
        idle_cv_.notify_all();
      }
      continue;
    }
    // Exit only once the submitted queue has drained: a submitted task
    // is never dropped, even when stop raced with Submit.
    if (stop_) return;
  }
}

void ThreadPool::ForkJoin(const std::vector<std::function<void()>>& tasks,
                          int max_threads) {
  if (tasks.empty()) return;
  Batch batch;
  batch.tasks = &tasks;
  batch.max_helpers = std::max(0, max_threads - 1);
  std::unique_lock<std::mutex> lock(mu_);
  batches_.push_back(&batch);
  const size_t wake = std::min({tasks.size() - 1, size_t(batch.max_helpers),
                                workers_.size()});
  for (size_t w = 0; w < wake; ++w) work_cv_.notify_one();
  // Caller-helps: run unclaimed tasks here, then wait only for the
  // tasks workers already hold, which are running.
  while (batch.next < tasks.size()) {
    const size_t i = Claim(batch);
    lock.unlock();
    RunAsPoolThread(tasks[i]);
    lock.lock();
    ++batch.done;
  }
  batch.done_cv.wait(lock, [&] { return batch.done == tasks.size(); });
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return submitted_.empty() && submitted_active_ == 0;
  });
}

void RunTasks(int threads, const std::vector<std::function<void()>>& tasks) {
  if (threads <= 1 || tasks.size() <= 1) {
    for (const std::function<void()>& task : tasks) task();
    return;
  }
  SharedPool().ForkJoin(tasks, threads);
}

}  // namespace adj::dist
