#include "dist/thread_pool.h"

#include <algorithm>

namespace adj::dist {

namespace {
thread_local bool on_pool_thread = false;
}  // namespace

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

void ThreadPool::WorkerLoop() {
  on_pool_thread = true;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stop_ || !submitted_.empty() ||
             (tasks_ != nullptr && next_ < tasks_->size());
    });
    while (tasks_ != nullptr && next_ < tasks_->size()) {
      const size_t i = next_++;
      lock.unlock();
      (*tasks_)[i]();
      lock.lock();
      if (++done_ == tasks_->size()) done_cv_.notify_all();
    }
    if (!submitted_.empty()) {
      std::function<void()> task = std::move(submitted_.front());
      submitted_.pop_front();
      ++submitted_active_;
      lock.unlock();
      task();
      lock.lock();
      if (--submitted_active_ == 0 && submitted_.empty()) {
        done_cv_.notify_all();
      }
      continue;
    }
    // Exit only once the submitted queue has drained: a submitted task
    // is never dropped, even when stop raced with Submit.
    if (stop_) return;
  }
}

void ThreadPool::RunAll(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) return;
  std::unique_lock<std::mutex> lock(mu_);
  tasks_ = &tasks;
  next_ = 0;
  done_ = 0;
  work_cv_.notify_all();
  done_cv_.wait(lock, [this, &tasks] { return done_ == tasks.size(); });
  tasks_ = nullptr;
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
  done_cv_.wait(lock, [this] {
    return submitted_.empty() && submitted_active_ == 0;
  });
}

void RunTasks(int threads, const std::vector<std::function<void()>>& tasks) {
  if (threads <= 1 || tasks.size() <= 1) {
    for (const std::function<void()>& task : tasks) task();
    return;
  }
  ThreadPool pool(int(std::min<size_t>(size_t(threads), tasks.size())));
  pool.RunAll(tasks);
}

}  // namespace adj::dist
