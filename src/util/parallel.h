// Minimal parallel executor for embarrassingly parallel index loops.
//
// The simulation stack's unit of work is one prefix (one origination): every
// fixpoint is independent, so the only primitive needed is a parallel
// index-for with deterministic completion.  `ThreadPool` keeps a fixed set
// of workers alive across many `parallel_for` calls (run_simulation issues
// one call per batch); work is handed out in chunks through an atomic
// cursor, so scheduling is dynamic but which-index-runs-where never affects
// results — callers write into index-addressed slots and merge in index
// order.
//
// Thread-count semantics (shared by every `threads` knob in the codebase):
//   threads == 0  ->  hardware concurrency (resolve_threads)
//   threads == 1  ->  no workers are spawned; the caller runs every index
//                     in order on its own thread — exact seed behavior
//   threads >= 2  ->  threads-1 workers plus the calling thread
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <thread>
#include <vector>

namespace bgpolicy::util {

/// Maps a user-facing thread-count knob to an executor size: 0 means "all
/// hardware threads" (at least 1), anything else is taken literally.
[[nodiscard]] std::size_t resolve_threads(std::size_t requested);

/// A contiguous [begin, end) slice of an index space.
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const { return end - begin; }
};

/// Splits [0, n) into at most `parts` contiguous, non-empty, near-equal
/// ranges (the remainder is spread one index each across the leading
/// ranges).  The decomposition depends only on (n, parts) — never on
/// scheduling — so shard-and-merge callers that reduce per-range results in
/// range order stay deterministic at any thread count.  Used by the
/// inference stages (Gao voting, path indexing) to shard loops whose
/// per-index work is too small to schedule individually.
[[nodiscard]] std::vector<IndexRange> split_ranges(std::size_t n,
                                                   std::size_t parts);

/// Fixed pool of `threads - 1` workers; the thread calling parallel_for is
/// always the final executor, so `threads` is the total concurrency.
class ThreadPool {
 public:
  /// `threads` is used as given (call resolve_threads first for the 0 knob).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n) and blocks until all complete.  Work
  /// is claimed in chunks of `grain` indices through an atomic cursor.  If
  /// any invocation throws, the first exception is rethrown here after the
  /// loop drains (remaining indices may be skipped).  Not reentrant: one
  /// parallel_for at a time per pool.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  struct Batch;

  void worker_loop();
  static void run_chunks(Batch& batch);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  Batch* batch_ = nullptr;        // guarded by mutex_
  std::uint64_t batch_epoch_ = 0; // guarded by mutex_; bumped per batch so a
                                  // worker joins each batch at most once
                                  // (no busy re-grab at the batch tail)
  bool stop_ = false;             // guarded by mutex_
};

/// A long-lived execution context for the shared `threads` knob: resolves
/// the knob once (0 = hardware concurrency) and — when that leaves more
/// than one thread — owns a ThreadPool that stays alive across every stage
/// that shards on it.  This is how one `Experiment` (or one `sweep`)
/// creates its workers exactly once instead of every `shard_and_merge`
/// call site spinning a private pool.
///
/// `threads() == 1` means strictly sequential: `pool()` is nullptr and the
/// Executor overload of shard_and_merge runs inline, byte-for-byte the
/// seed program.
/// The underlying ThreadPool is not reentrant, so never hand an Executor
/// to work that itself runs *on* that Executor's pool (sweep therefore
/// forces variant-internal stages to a sequential Executor).
class Executor {
 public:
  /// Sequential executor: no workers, every loop runs inline.
  Executor() = default;
  /// Resolves the shared knob (0 = hardware concurrency) and spawns the
  /// worker pool once when the result exceeds 1.
  explicit Executor(std::size_t threads) : threads_(resolve_threads(threads)) {
    if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Total concurrency this executor provides (>= 1).
  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// The shared pool, or nullptr when sequential.
  [[nodiscard]] ThreadPool* pool() const { return pool_.get(); }

 private:
  std::size_t threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;
};

/// Batched shard-and-merge, the canonical deterministic-parallel pattern of
/// the simulation stack: computes `compute(index)` into index-addressed
/// slots (on `pool` when given and the batch has work for more than one
/// thread, inline otherwise), then calls `merge(index, slot)` sequentially
/// in index order.  Merge order never depends on thread count or
/// scheduling, so output built by `merge` is byte-identical to the
/// sequential program; batching bounds peak memory to one batch of results.
/// `pool` may be nullptr for fully sequential execution.
template <typename Compute, typename Merge>
void shard_and_merge(ThreadPool* pool, std::size_t n, Compute&& compute,
                     Merge&& merge) {
  if (n == 0) return;
  const std::size_t threads = pool == nullptr ? 1 : pool->size();
  // Sequential execution merges each result immediately (one live slot,
  // exactly the pre-sharding loop); parallel batches trade bounded memory
  // for worker utilization.
  const std::size_t batch_size =
      pool == nullptr
          ? std::size_t{1}
          : (threads * 8 > std::size_t{32} ? threads * 8 : std::size_t{32});
  using Result = decltype(compute(std::size_t{0}));
  std::vector<Result> slots(batch_size < n ? batch_size : n);
  for (std::size_t base = 0; base < n; base += batch_size) {
    const std::size_t count =
        batch_size < n - base ? batch_size : n - base;
    const auto fill = [&](std::size_t i) { slots[i] = compute(base + i); };
    if (pool != nullptr && count > 1) {
      pool->parallel_for(count, fill);
    } else {
      for (std::size_t i = 0; i < count; ++i) fill(i);
    }
    for (std::size_t i = 0; i < count; ++i) merge(base + i, slots[i]);
  }
}

/// Shard-and-merge on a long-lived Executor: uses the executor's shared
/// pool (sequential inline when the executor is sequential or the batch is
/// single-item — see the pointer overload).  Identical determinism
/// contract; only pool ownership differs.
template <typename Compute, typename Merge>
void shard_and_merge(const Executor& executor, std::size_t n,
                     Compute&& compute, Merge&& merge) {
  shard_and_merge(n > 1 ? executor.pool() : nullptr, n, compute, merge);
}

// -------------------------------------------------------------- task graph --

/// A small deterministic-task dependency graph scheduled on an Executor —
/// the future/continuation layer the staged experiment pipeline runs on
/// (core::Experiment recasts its stages as nodes; core::sweep submits every
/// variant's nodes into one graph so cross-variant work interleaves).
///
/// Nodes are `void()` tasks; edges say "this node runs only after those".
/// Tasks must be deterministic pure-ish functions writing results into
/// their own slots: edges establish happens-before (all state transitions
/// go through one mutex), so a dependent reads its inputs race-free, and
/// which thread ran which node can never influence any output.
///
/// Execution model:
///   * `run(executor)` drives the graph to completion on the executor's
///     pool (the calling thread participates).  A sequential executor runs
///     every node inline on the calling thread in deterministic order —
///     ready nodes execute lowest-id first, so `threads == 1` is the exact
///     program order of the `add` calls (topologically).
///   * **Worker-loan nested submission:** a running task may `submit` new
///     nodes and `wait` on them.  The waiting worker loans itself back to
///     the scheduler and executes other ready nodes instead of blocking,
///     so nested fan-out (e.g. Simulate's per-prefix-shard chunk tasks)
///     can never deadlock the pool, even at `threads == 1`.
///   * **Failure propagation:** the first exception wins; every node not
///     yet started is skipped (its fn never runs), `wait` calls inside
///     running tasks throw, and `run` rethrows the first exception after
///     the graph drains.  A cycle (or a `wait` that can never be
///     satisfied) is detected — when no node is ready and every in-flight
///     task is itself blocked waiting — and reported as std::logic_error.
///
/// A TaskGraph instance is single-run: build with `add`, call `run` once.
/// `add` is not thread-safe; `submit`/`wait` may only be called from
/// inside a running task (they are thread-safe).
class TaskGraph {
 public:
  using NodeId = std::size_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node that runs after every node in `deps` (ids from earlier
  /// add/submit calls).  Build-time only (before run).
  NodeId add(std::function<void()> fn, std::span<const NodeId> deps = {});
  NodeId add(std::function<void()> fn, std::initializer_list<NodeId> deps);

  /// Runs every node and blocks until the graph drains.  Rethrows the
  /// first task exception.  Uses the executor's shared pool; a sequential
  /// executor runs everything inline in deterministic lowest-id order.
  void run(const Executor& executor);

  /// Thread-safe add for use from *inside* a running task (nested
  /// submission).  Dependencies may include already-finished nodes.
  NodeId submit(std::function<void()> fn, std::span<const NodeId> deps = {});
  NodeId submit(std::function<void()> fn, std::initializer_list<NodeId> deps);

  /// Blocks the calling *task* until every node in `ids` finished, loaning
  /// the worker to other ready nodes meanwhile (see class comment).
  /// Throws std::runtime_error when the graph was cancelled by another
  /// task's failure and std::logic_error on a wait that can never be
  /// satisfied.  Only valid from inside a running task.
  void wait(std::span<const NodeId> ids);
  void wait(std::initializer_list<NodeId> ids);

  /// Number of nodes added so far (diagnostics/tests).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

 private:
  enum class NodeState : std::uint8_t { kWaiting, kReady, kRunning, kDone };

  struct Node {
    std::function<void()> fn;
    NodeState state = NodeState::kWaiting;
    std::size_t pending = 0;  // unfinished dependencies
    std::vector<NodeId> dependents;
  };

  /// A task blocked inside wait(), registered so the deadlock check can
  /// tell "stalled but about to be woken" from "can never progress".
  struct Waiter {
    const NodeId* ids;
    std::size_t count;
  };

  NodeId add_locked(std::function<void()>&& fn, std::span<const NodeId> deps);
  /// Pops and executes `id` (must be ready); called with `lock` held,
  /// releases it around the task body, reacquires to finish.
  void execute(NodeId id, std::unique_lock<std::mutex>& lock);
  /// One scheduler instance: executes ready nodes until the graph drains.
  void scheduler_loop();
  [[nodiscard]] bool finished_locked() const {
    return done_ == nodes_.size();
  }
  [[nodiscard]] bool satisfied_locked(const Waiter& waiter) const;
  /// True when the graph can never progress again: nothing ready, every
  /// in-flight task blocked in wait(), and no blocked waiter's targets are
  /// all done (a satisfied waiter is merely pending its wakeup).
  [[nodiscard]] bool deadlocked_locked() const;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Node> nodes_;   // guarded by mutex_ once run() starts
  std::set<NodeId> ready_;    // lowest id first: the deterministic pop order
  std::vector<const Waiter*> waiters_;  // guarded by mutex_
  std::size_t done_ = 0;      // nodes finished (run or skipped)
  std::size_t executing_ = 0; // task frames on a thread (incl. waiters)
  std::size_t stalled_ = 0;   // tasks blocked inside wait()
  std::size_t loaning_ = 0;   // wait() frames currently running a loaned
                              // node: ancestors of another counted frame,
                              // not independently progressing
  bool bail_ = false;         // cycle detected: schedulers must exit
  std::exception_ptr error_;  // first failure wins
};

/// The canonical "optional shared executor" resolution used by every stage
/// entry point that still exposes a bare `threads` knob: when the caller
/// supplied a long-lived executor it wins, otherwise `make_owned` is filled
/// with a one-shot executor sized from `threads` (clamped to the `work`
/// item count so tiny runs never spawn idle workers) and returned.  Keeps
/// the compatibility knob and the shared-pool path on one code route.
inline const Executor& executor_or(const Executor* executor,
                                   std::size_t threads, std::size_t work,
                                   std::unique_ptr<Executor>& make_owned) {
  if (executor != nullptr) return *executor;
  const std::size_t resolved = std::min(resolve_threads(threads), work);
  make_owned = std::make_unique<Executor>(resolved > 1 ? resolved : 1);
  return *make_owned;
}

}  // namespace bgpolicy::util
