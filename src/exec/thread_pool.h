// A small FIFO thread pool (DESIGN.md §8). Submit() returns a std::future
// fed by a std::promise, so get() rethrows a task's exception, and a task's
// closure is freed as soon as it has run. A worker runs the tasks it
// submitted first, then outside tasks, then other workers' tasks, so the
// worker that built a sweep cell replays it before building another. The
// destructor runs every queued task and joins: declare a pool after the
// locals its tasks capture by reference. Never block on a future inside a
// worker; check OnWorkerThread() and run inline instead.
#ifndef GRAPHPIM_EXEC_THREAD_POOL_H_
#define GRAPHPIM_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace graphpim::exec {

class ThreadPool {
 public:
  // `num_threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  bool OnWorkerThread() const;

  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>&>> {
    using R = std::invoke_result_t<std::decay_t<F>&>;
    // Shared, because std::function needs a copyable closure.
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    Push([promise, fn = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise->set_value();
        } else {
          promise->set_value(fn());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return future;
  }

 private:
  using Queue = std::deque<std::function<void()>>;

  void Push(std::function<void()> job);
  void WorkerLoop(std::size_t self);

  std::mutex mu_;
  std::condition_variable cv_;
  Queue outside_;
  std::vector<Queue> own_;  // per worker: the tasks it submitted
  std::size_t queued_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace graphpim::exec

#endif  // GRAPHPIM_EXEC_THREAD_POOL_H_
