#include "streaming/thread_pool.h"

#include <string>

#include "common/sched.h"

namespace loglens {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back(sched::spawn_named("pool-" + std::to_string(i),
                                             [this] { worker_loop(); }));
  }
}

ThreadPool::~ThreadPool() {
  {
    RankedMutexLock lock(mu_);
    stop_ = true;
  }
  sched::cv_notify_all(work_cv_);
  for (auto& w : workers_) sched::join(w);
}

void ThreadPool::submit(std::function<void()> task) {
  {
    RankedMutexLock lock(mu_);
    queue_.push_back(std::move(task));
  }
  sched::cv_notify_one(work_cv_);
}

// The waits below use explicit loops rather than the predicate overload:
// the thread-safety analysis checks a predicate lambda as a separate
// function, where the guarded reads would not see the lock held here.

void ThreadPool::wait_idle() {
  RankedMutexLock lock(mu_);
  while (!(queue_.empty() && in_flight_ == 0)) {
    sched::cv_wait(idle_cv_, lock);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      RankedMutexLock lock(mu_);
      while (!stop_ && queue_.empty()) {
        sched::cv_wait(work_cv_, lock);
      }
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    LOGLENS_SCHED_POINT("pool.task_start");
    task();
    {
      RankedMutexLock lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        sched::cv_notify_all(idle_cv_);
      }
    }
  }
}

}  // namespace loglens
