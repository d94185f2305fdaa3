#include "sched/ThreadPool.h"

namespace rs::sched {

namespace {
/// Which pool (if any) owns the current thread, so submit() from inside a
/// running task can prefer the submitting worker's own deque.
thread_local const ThreadPool *TlsPool = nullptr;
thread_local unsigned TlsIndex = 0;
} // namespace

unsigned ThreadPool::defaultWorkerCount() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

ThreadPool::ThreadPool(unsigned Workers) {
  unsigned N = Workers == 0 ? defaultWorkerCount() : Workers;
  Queues.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Queues.push_back(std::make_unique<WorkerState>());
  this->Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    this->Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::submit(Task T) {
  unsigned Q;
  if (TlsPool == this) {
    Q = TlsIndex; // A task spawning subtasks keeps them local.
  } else {
    Q = unsigned(NextQueue.fetch_add(1, std::memory_order_relaxed) %
                 Queues.size());
  }
  {
    // In flight before a thief can see it: a sibling may pop, run and
    // retire the task before this call returns, and wait() must not
    // observe zero in between.
    std::lock_guard<std::mutex> Lock(SleepM);
    ++InFlightTasks;
  }
  {
    std::lock_guard<std::mutex> Lock(Queues[Q]->M);
    Queues[Q]->Deque.push_back(std::move(T));
  }
  {
    std::lock_guard<std::mutex> Lock(SleepM);
    ++QueuedTasks;
  }
  WorkCv.notify_one();
}

bool ThreadPool::tryPop(unsigned Me, Task &Out) {
  // Own deque first, from the front (submission order)...
  {
    WorkerState &Mine = *Queues[Me];
    std::lock_guard<std::mutex> Lock(Mine.M);
    if (!Mine.Deque.empty()) {
      Out = std::move(Mine.Deque.front());
      Mine.Deque.pop_front();
      return true;
    }
  }
  // ...then steal from a sibling's back, scanning ring-order from our own
  // slot so contention spreads instead of piling onto worker 0.
  for (size_t Off = 1; Off != Queues.size(); ++Off) {
    WorkerState &Victim = *Queues[(Me + Off) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Victim.M);
    if (!Victim.Deque.empty()) {
      Out = std::move(Victim.Deque.back());
      Victim.Deque.pop_back();
      Steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Me) {
  TlsPool = this;
  TlsIndex = Me;
  while (true) {
    Task T;
    if (tryPop(Me, T)) {
      {
        std::lock_guard<std::mutex> Lock(SleepM);
        --QueuedTasks;
      }
      try {
        T();
      } catch (...) {
        // Last line of defense; the engine's containment boundaries are
        // supposed to catch everything before it reaches the pool.
      }
      std::lock_guard<std::mutex> Lock(SleepM);
      if (--InFlightTasks == 0)
        DoneCv.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepM);
    // QueuedTasks is only transiently out of sync with the deques (a task
    // is pushed before it is counted, popped before it is uncounted), so
    // a positive count here means a rescan will find work or another
    // worker got there first — either way, looping is safe and a zero
    // count with an uncounted push is fixed by submit()'s notify.
    if (QueuedTasks > 0)
      continue;
    if (Stopping)
      return;
    WorkCv.wait(Lock, [this] { return Stopping || QueuedTasks > 0; });
    if (Stopping && QueuedTasks == 0)
      return;
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(SleepM);
  DoneCv.wait(Lock, [this] { return InFlightTasks == 0; });
}

void parallelFor(ThreadPool &Pool, size_t N,
                 const std::function<void(size_t)> &Fn) {
  for (size_t I = 0; I != N; ++I)
    Pool.submit([&Fn, I] { Fn(I); });
  Pool.wait();
}

} // namespace rs::sched
