// Work-stealing thread pool with task futures, cancellation, and per-task
// wall-time accounting.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from siblings when empty, so a burst of submissions spreads
// across the pool without a single contended queue. External submissions
// are sprayed round-robin; submissions made *from* a worker thread stay on
// that worker's deque until stolen.
//
// Semantics the rest of src/exec relies on:
//   - Submit() returns a TaskFuture; Get() blocks and yields the value, or
//     std::nullopt if the task was cancelled before it started.
//   - Cancel() wins only while the task is still pending; a running task is
//     never interrupted (simulation jobs are not interruptible).
//   - Shutdown() drains every already-submitted task, then joins. Pair it
//     with CancelPending() first for a fast abort.
//   - Task wall time (queue-exit to completion) is recorded per task and
//     aggregated in PoolStats for latency reporting.
#ifndef GRAPHPIM_EXEC_THREAD_POOL_H_
#define GRAPHPIM_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.h"
#include "common/stats.h"

namespace graphpim::exec {

enum class TaskState { kPending, kRunning, kDone, kCancelled };

const char* ToString(TaskState s);

namespace detail {

// Type-erased per-task shared state; the typed result lives in the
// TaskFuture's derived wrapper.
struct TaskCore {
  std::mutex mu;
  std::condition_variable cv;
  TaskState state = TaskState::kPending;
  double wall_ms = 0.0;
  std::function<void()> run;  // set at Submit(); fills the typed slot

  // Worker-side: kPending -> kRunning. False if the task lost to Cancel().
  bool TryStart() {
    std::lock_guard<std::mutex> lk(mu);
    if (state != TaskState::kPending) return false;
    state = TaskState::kRunning;
    return true;
  }

  void Finish(double ms) {
    {
      std::lock_guard<std::mutex> lk(mu);
      state = TaskState::kDone;
      wall_ms = ms;
    }
    cv.notify_all();
  }

  // Client-side: kPending -> kCancelled. False once the task started.
  bool Cancel() {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (state != TaskState::kPending) return false;
      state = TaskState::kCancelled;
    }
    cv.notify_all();
    return true;
  }

  void Wait() {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [this] {
      return state == TaskState::kDone || state == TaskState::kCancelled;
    });
  }

  TaskState State() {
    std::lock_guard<std::mutex> lk(mu);
    return state;
  }
};

template <typename T>
struct TaskShared {
  TaskCore core;
  // void-returning tasks store a `true` marker so Get() can still signal
  // ran-vs-cancelled through std::optional.
  using Stored = std::conditional_t<std::is_void_v<T>, bool, T>;
  std::optional<Stored> value;
};

}  // namespace detail

// Handle to a submitted task. Copyable; all copies observe the same task.
template <typename T>
class TaskFuture {
 public:
  using Stored = typename detail::TaskShared<T>::Stored;

  TaskFuture() = default;

  bool valid() const { return s_ != nullptr; }

  // Blocks until the task finished or was cancelled.
  void Wait() const { s_->core.Wait(); }

  // Blocks; the task's result, or std::nullopt if it was cancelled before
  // it ever ran. (void tasks yield `true` on completion.)
  std::optional<Stored> Get() const {
    s_->core.Wait();
    std::lock_guard<std::mutex> lk(s_->core.mu);
    return s_->value;
  }

  // Attempts to cancel. True iff the task will never run.
  bool Cancel() const { return s_->core.Cancel(); }

  TaskState state() const { return s_->core.State(); }

  // Execution wall time (ms) of a finished task; 0 before completion.
  double wall_ms() const {
    std::lock_guard<std::mutex> lk(s_->core.mu);
    return s_->core.wall_ms;
  }

 private:
  friend class ThreadPool;
  explicit TaskFuture(std::shared_ptr<detail::TaskShared<T>> s) : s_(std::move(s)) {}
  std::shared_ptr<detail::TaskShared<T>> s_;
};

// Aggregate pool counters (snapshot; monotonically growing).
struct PoolStats {
  std::uint64_t submitted = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t steals = 0;   // tasks taken from another worker's deque
  double busy_ms = 0.0;       // summed task execution wall time
  // Occupancy high-water marks (saturation diagnostics, DESIGN.md §13):
  // deepest the deques ever got, and most tasks ever running at once.
  std::uint64_t peak_queued = 0;
  std::uint64_t peak_running = 0;
};

class ThreadPool {
 public:
  // `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // True when the calling thread is one of this pool's workers. Blocking
  // helpers use this to fall back to inline execution instead of waiting
  // on the pool from inside it (which could starve it of workers).
  bool OnWorkerThread() const;

  // Schedules `fn` and returns its future. Fatal to call after Shutdown().
  template <typename F>
  auto Submit(F&& fn) -> TaskFuture<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    auto shared = std::make_shared<detail::TaskShared<R>>();
    // Raw capture, not shared: the closure lives inside TaskShared, so a
    // shared_ptr capture would be a reference cycle. The deque entry and
    // the returned future pin the object; the worker holds the deque's
    // reference for the duration of the run.
    auto* p = shared.get();
    shared->core.run = [p, fn = std::forward<F>(fn)]() mutable {
      if constexpr (std::is_void_v<R>) {
        fn();
        std::lock_guard<std::mutex> lk(p->core.mu);
        p->value = true;
      } else {
        auto v = fn();
        std::lock_guard<std::mutex> lk(p->core.mu);
        p->value = std::move(v);
      }
    };
    Enqueue(shared, &shared->core);
    return TaskFuture<R>(std::move(shared));
  }

  // Blocks until every submitted task has finished or been cancelled.
  void WaitIdle();

  // Cancels every task still waiting in a deque; running tasks proceed.
  // Returns how many tasks were cancelled.
  std::size_t CancelPending();

  // Drains all pending tasks, then joins the workers. Idempotent; the
  // destructor calls it.
  void Shutdown();

  PoolStats stats() const;

  // Folds the current stats() snapshot into `reg` under "<prefix>.*"
  // (pool.submitted, pool.executed, pool.cancelled, pool.steals,
  // pool.busy_ms, pool.peak_queued, pool.peak_running, pool.threads).
  // Wall-clock occupancy numbers: metadata, NOT covered by any determinism
  // contract — callers must keep them out of byte-identity-gated output.
  void ExportStats(StatRegistry* reg, const std::string& prefix = "pool") const;

 private:
  struct Worker {
    std::mutex mu;
    // Keep-alive owner + raw core pointer: the owner pins the type-erased
    // closure (which itself holds the typed TaskShared alive).
    std::deque<std::pair<std::shared_ptr<void>, detail::TaskCore*>> dq;
    std::thread thread;
  };

  void Enqueue(std::shared_ptr<void> owner, detail::TaskCore* core);
  void WorkerLoop(std::size_t self);
  // Pops own work LIFO, else steals FIFO; `stole` reports which happened.
  std::pair<std::shared_ptr<void>, detail::TaskCore*> TakeTask(std::size_t self,
                                                               bool* stole);
  void TaskRetired();  // bookkeeping after a task finishes or is dropped

  std::vector<std::unique_ptr<Worker>> workers_;

  std::mutex wake_mu_;
  std::condition_variable wake_cv_;    // workers sleep here
  std::condition_variable drained_cv_; // WaitIdle()/Shutdown() sleep here
  std::atomic<std::uint64_t> queued_{0};    // tasks sitting in deques
  std::atomic<std::uint64_t> in_flight_{0}; // queued + running
  std::atomic<std::uint64_t> running_{0};   // tasks currently executing
  std::atomic<std::uint64_t> peak_queued_{0};
  std::atomic<std::uint64_t> peak_running_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_queue_{0};

  mutable std::mutex stats_mu_;
  PoolStats stats_;
};

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_THREAD_POOL_H_
