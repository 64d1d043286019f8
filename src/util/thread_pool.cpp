#include "util/thread_pool.hpp"

#include <algorithm>

namespace optibar {

namespace {

/// Index of the worker owning the current thread, or npos on external
/// threads (used for push locality and steal start offsets).
constexpr std::size_t kExternal = static_cast<std::size_t>(-1);
thread_local std::size_t tls_worker_index = kExternal;

}  // namespace

ThreadPool::ThreadPool(std::size_t width) {
  if (width == 0) {
    width = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::size_t workers = width - 1;
  queues_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_index = index;
  Task task;
  while (true) {
    if (try_pop(task)) {
      execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) > 0;
    });
    // Drain remaining tasks even after stop so no group waits forever.
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::push(Task task) {
  // Owners push to their own deque front (LIFO locality); external
  // threads spread round-robin.
  const std::size_t owner = tls_worker_index;
  const std::size_t target =
      owner != kExternal && owner < queues_.size()
          ? owner
          : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    if (owner == target) {
      queues_[target]->tasks.push_front(std::move(task));
    } else {
      queues_[target]->tasks.push_back(std::move(task));
    }
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

bool ThreadPool::try_pop(Task& out) {
  const std::size_t n = queues_.size();
  if (n == 0 || queued_.load(std::memory_order_acquire) == 0) {
    return false;
  }
  const std::size_t self = tls_worker_index;
  // Own queue first (front = most recently pushed), then steal from the
  // back of the others, starting after our own slot to spread thieves.
  if (self != kExternal && self < n) {
    std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    if (!queues_[self]->tasks.empty()) {
      out = std::move(queues_[self]->tasks.front());
      queues_[self]->tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  const std::size_t start = self != kExternal && self < n ? self + 1 : 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    std::lock_guard<std::mutex> lock(queues_[i]->mutex);
    if (!queues_[i]->tasks.empty()) {
      out = std::move(queues_[i]->tasks.back());
      queues_[i]->tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void ThreadPool::execute(Task& task) {
  try {
    task.fn();
  } catch (...) {
    task.group->record_error(std::current_exception());
  }
  task.group->finish_one();
}

ThreadPool::TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // Errors are observable via an explicit wait(); a destructor that
    // was reached by stack unwinding must not throw again.
  }
}

void ThreadPool::TaskGroup::run(std::function<void()> task) {
  if (pool_.queues_.empty()) {
    // Width-1 pool: inline execution, deferred error surfacing.
    try {
      task();
    } catch (...) {
      record_error(std::current_exception());
    }
    return;
  }
  pending_.fetch_add(1, std::memory_order_release);
  pool_.push(Task{std::move(task), this});
}

void ThreadPool::TaskGroup::wait() {
  Task task;
  while (pending_.load(std::memory_order_acquire) != 0) {
    if (pool_.try_pop(task)) {
      // Help: the stolen task may belong to any group; executing it
      // makes global progress and keeps the recursion deadlock-free.
      pool_.execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0 ||
             pool_.queued_.load(std::memory_order_acquire) > 0;
    });
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = error_;
    error_ = nullptr;
  }
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::TaskGroup::record_error(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) {
    error_ = error;
  }
}

void ThreadPool::TaskGroup::finish_one() {
  // Decrement under the mutex: wait() takes it before returning, so the
  // group — often a caller's stack object — cannot be destroyed while
  // this worker still touches its mutex or condvar.
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (queues_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  auto runner = [&next, n, &body] {
    std::size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        body(i);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);  // stop issuing work
        throw;
      }
    }
  };
  TaskGroup group(*this);
  const std::size_t helpers = std::min(queues_.size(), n - 1);
  for (std::size_t i = 0; i < helpers; ++i) {
    group.run(runner);
  }
  std::exception_ptr caller_error;
  try {
    runner();
  } catch (...) {
    caller_error = std::current_exception();
  }
  group.wait();  // may rethrow a worker error first
  if (caller_error) {
    std::rethrow_exception(caller_error);
  }
}

}  // namespace optibar
