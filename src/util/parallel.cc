#include "util/parallel.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bgpolicy::util {

std::size_t resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::vector<IndexRange> split_ranges(std::size_t n, std::size_t parts) {
  std::vector<IndexRange> ranges;
  if (n == 0) return ranges;
  parts = std::max<std::size_t>(1, std::min(parts, n));
  ranges.reserve(parts);
  const std::size_t base = n / parts;
  const std::size_t remainder = n % parts;
  std::size_t begin = 0;
  for (std::size_t r = 0; r < parts; ++r) {
    const std::size_t size = base + (r < remainder ? 1 : 0);
    ranges.push_back({begin, begin + size});
    begin += size;
  }
  return ranges;
}

/// State for one parallel_for call, shared by every participating thread.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> cursor{0};
  /// Workers still inside run_chunks; the caller waits for 0.
  std::size_t active = 0;
  std::exception_ptr error;  // first failure wins, guarded by pool mutex_
};

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(Batch& batch) {
  while (true) {
    const std::size_t begin = batch.cursor.fetch_add(batch.grain);
    if (begin >= batch.n) return;
    const std::size_t end = std::min(begin + batch.grain, batch.n);
    for (std::size_t i = begin; i < end; ++i) (*batch.fn)(i);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return stop_ || (batch_ != nullptr && batch_epoch_ != seen_epoch);
      });
      if (stop_) return;
      seen_epoch = batch_epoch_;
      batch = batch_;
      ++batch->active;
    }
    std::exception_ptr error;
    try {
      run_chunks(*batch);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !batch->error) {
        batch->error = error;
        batch->cursor.store(batch->n);  // drain: skip remaining indices
      }
      --batch->active;
    }
    batch_done_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  Batch batch;
  batch.fn = &fn;
  batch.n = n;
  batch.grain = std::max<std::size_t>(1, grain);

  if (!workers_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      batch_ = &batch;
      ++batch_epoch_;
    }
    work_ready_.notify_all();
  }

  // The calling thread always participates; with zero workers this is a
  // plain in-order loop.
  std::exception_ptr error;
  try {
    run_chunks(batch);
  } catch (...) {
    error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (error && !batch.error) {
    batch.error = error;
    batch.cursor.store(batch.n);
  }
  if (!workers_.empty()) {
    batch_ = nullptr;  // workers that have not joined yet will see no work
    batch_done_.wait(lock, [&batch] { return batch.active == 0; });
  }
  if (batch.error) std::rethrow_exception(batch.error);
}

// -------------------------------------------------------------- task graph --

TaskGraph::NodeId TaskGraph::add_locked(std::function<void()>&& fn,
                                        std::span<const NodeId> deps) {
  const NodeId id = nodes_.size();
  // Validate every dependency before touching any dependents list: a
  // rejected dep must not leave the about-to-not-exist node id dangling
  // in an earlier dep's dependents (execute() would index past nodes_).
  for (const NodeId dep : deps) {
    if (dep >= id) {
      throw std::logic_error("TaskGraph: dependency on an unknown node");
    }
  }
  Node node;
  node.fn = std::move(fn);
  for (const NodeId dep : deps) {
    if (nodes_[dep].state == NodeState::kDone) continue;
    nodes_[dep].dependents.push_back(id);
    ++node.pending;
  }
  if (node.pending == 0) {
    node.state = NodeState::kReady;
    ready_.insert(id);
  }
  nodes_.push_back(std::move(node));
  return id;
}

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn,
                                 std::span<const NodeId> deps) {
  return add_locked(std::move(fn), deps);
}

TaskGraph::NodeId TaskGraph::add(std::function<void()> fn,
                                 std::initializer_list<NodeId> deps) {
  return add(std::move(fn), std::span<const NodeId>(deps.begin(), deps.size()));
}

TaskGraph::NodeId TaskGraph::submit(std::function<void()> fn,
                                    std::span<const NodeId> deps) {
  NodeId id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = add_locked(std::move(fn), deps);
  }
  cv_.notify_all();
  return id;
}

TaskGraph::NodeId TaskGraph::submit(std::function<void()> fn,
                                    std::initializer_list<NodeId> deps) {
  return submit(std::move(fn),
                std::span<const NodeId>(deps.begin(), deps.size()));
}

void TaskGraph::execute(NodeId id, std::unique_lock<std::mutex>& lock) {
  ready_.erase(id);
  nodes_[id].state = NodeState::kRunning;
  // Move the task body out: the unlocked fn may submit new nodes, growing
  // (and reallocating) nodes_, so no reference into it survives the call.
  std::function<void()> fn = std::move(nodes_[id].fn);
  nodes_[id].fn = nullptr;
  ++executing_;
  // Failure propagation: once any task failed (or a cycle bailed the run),
  // every not-yet-started node is skipped — its fn never runs.
  const bool skip = error_ != nullptr || bail_;
  if (!skip) {
    lock.unlock();
    std::exception_ptr failure;
    try {
      fn();
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    if (failure && !error_) error_ = failure;
  }
  fn = nullptr;  // release captures eagerly (still outside any caller state)
  Node& node = nodes_[id];  // re-resolve: nodes_ may have grown
  node.state = NodeState::kDone;
  --executing_;
  ++done_;
  for (const NodeId dependent : node.dependents) {
    Node& next = nodes_[dependent];
    if (--next.pending == 0 && next.state == NodeState::kWaiting) {
      next.state = NodeState::kReady;
      ready_.insert(dependent);
    }
  }
  // Completions, newly ready nodes, and the drain condition all matter to
  // schedulers and waiters alike.
  cv_.notify_all();
}

bool TaskGraph::satisfied_locked(const Waiter& waiter) const {
  for (std::size_t i = 0; i < waiter.count; ++i) {
    const NodeId id = waiter.ids[i];
    if (id >= nodes_.size() || nodes_[id].state != NodeState::kDone) {
      return false;
    }
  }
  return true;
}

bool TaskGraph::deadlocked_locked() const {
  if (!ready_.empty() || finished_locked() || bail_ || error_) return false;
  // Progress is possible while some thread's *innermost* frame is running
  // task code.  executing_ counts every frame on a stack; frames blocked
  // in wait() (stalled_) and wait() frames currently running a loaned
  // node (loaning_ — ancestors of a counted inner frame) are not
  // independent progress.
  if (executing_ != stalled_ + loaning_) return false;
  for (const Waiter* waiter : waiters_) {
    if (satisfied_locked(*waiter)) return false;  // pending its wakeup
  }
  return true;
}

void TaskGraph::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (finished_locked() || bail_) return;
    if (!ready_.empty()) {
      execute(*ready_.begin(), lock);
      continue;
    }
    // Nothing ready and nothing able to make progress: the remaining
    // nodes can never become ready — a dependency cycle.
    if (deadlocked_locked()) {
      if (!error_) {
        error_ = std::make_exception_ptr(
            std::logic_error("TaskGraph: dependency cycle"));
      }
      bail_ = true;
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] {
      return finished_locked() || bail_ || !ready_.empty() ||
             deadlocked_locked();
    });
  }
}

void TaskGraph::run(const Executor& executor) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (nodes_.empty()) return;
  }
  ThreadPool* pool = executor.pool();
  if (pool == nullptr) {
    scheduler_loop();
  } else {
    // One scheduler instance per thread; parallel_for's caller thread
    // participates, and every instance returns once the graph drains.
    pool->parallel_for(pool->size(), [this](std::size_t) { scheduler_loop(); });
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
}

void TaskGraph::wait(std::span<const NodeId> ids) {
  std::unique_lock<std::mutex> lock(mutex_);
  const Waiter me{ids.data(), ids.size()};
  while (true) {
    if (error_ || bail_) {
      // The graph is unwinding; awaited results either never ran or are
      // about to be discarded — cancellation outranks satisfaction.
      throw std::runtime_error("TaskGraph: cancelled by a failed task");
    }
    if (satisfied_locked(me)) return;
    if (!ready_.empty()) {
      // Worker loan: run another ready node instead of blocking the
      // thread (this is what makes nested submission deadlock-free).
      // Prefer a node we are actually waiting on — it unblocks this task
      // soonest and keeps the loan stack shallow (a waiter that loans
      // itself to unrelated long chains would nest one frame per loan).
      NodeId pick = *ready_.begin();
      for (std::size_t i = 0; i < me.count; ++i) {
        const NodeId id = me.ids[i];
        if (id < nodes_.size() && nodes_[id].state == NodeState::kReady) {
          pick = id;
          break;
        }
      }
      ++loaning_;  // this frame becomes an ancestor of the loaned one
      execute(pick, lock);
      --loaning_;
      continue;
    }
    waiters_.push_back(&me);
    ++stalled_;
    cv_.wait(lock, [&] {
      return satisfied_locked(me) || error_ || bail_ || !ready_.empty() ||
             deadlocked_locked();
    });
    const bool dead = deadlocked_locked();
    --stalled_;
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &me));
    if (dead) {
      // Every in-flight task (including this one) is blocked on nodes
      // that can never run.
      throw std::logic_error("TaskGraph: wait() can never be satisfied");
    }
  }
}

void TaskGraph::wait(std::initializer_list<NodeId> ids) {
  wait(std::span<const NodeId>(ids.begin(), ids.size()));
}

}  // namespace bgpolicy::util
