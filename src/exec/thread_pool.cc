#include "exec/thread_pool.h"

namespace graphpim::exec {

namespace {

// The pool and index of the worker that is the calling thread, if any.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_self = 0;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 1;
  }
  own_.resize(static_cast<std::size_t>(num_threads));
  for (std::size_t i = 0; i < own_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::OnWorkerThread() const { return tl_pool == this; }

void ThreadPool::Push(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    (OnWorkerThread() ? own_[tl_self] : outside_).push_back(std::move(job));
    ++queued_;
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(std::size_t self) {
  tl_pool = this;
  tl_self = self;
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || queued_ > 0; });
      if (queued_ == 0) return;  // stopping, and nothing left to run
      Queue* q = own_[self].empty() ? &outside_ : &own_[self];
      for (std::size_t i = 0; q->empty(); ++i) q = &own_[i];
      job = std::move(q->front());
      q->pop_front();
      --queued_;
    }
    // `job` is destroyed at the end of this iteration, before the next pop.
    job();
  }
}

}  // namespace graphpim::exec
