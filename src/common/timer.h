#ifndef ADJ_COMMON_TIMER_H_
#define ADJ_COMMON_TIMER_H_

#include <chrono>
#include <ctime>

namespace adj {

/// Simple wall-clock stopwatch used for measuring real computation time
/// (trie builds, Leapfrog runs, sampling) that feeds the cost model.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds since construction or last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time consumed by the calling thread. Unlike WallTimer it does
/// not count time the thread spends descheduled, so a rate measured
/// with it holds when more threads run than there are cores. Start and
/// read it on the same thread.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { Restart(); }

  void Restart() { start_ = Now(); }

  /// CPU seconds this thread used since construction or last Restart().
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
  }
  double start_ = 0.0;
};

}  // namespace adj

#endif  // ADJ_COMMON_TIMER_H_
