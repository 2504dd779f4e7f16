#include "util/parallel.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace bgpolicy::util {
namespace {

TEST(ResolveThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ThreadPool, SizeOneRunsSequentiallyInOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, GrainBatchesStillCoverEverything) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);  // not a multiple of the grain
  pool.parallel_for(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Executor, SequentialExecutorHasNoPool) {
  const Executor sequential;
  EXPECT_EQ(sequential.threads(), 1u);
  EXPECT_EQ(sequential.pool(), nullptr);

  const Executor explicit_one(1);
  EXPECT_EQ(explicit_one.threads(), 1u);
  EXPECT_EQ(explicit_one.pool(), nullptr);

  // The zero knob resolves to hardware concurrency (>= 1).
  const Executor resolved(0);
  EXPECT_GE(resolved.threads(), 1u);
}

TEST(Executor, SharedPoolRunsManyShardAndMergeCalls) {
  const Executor executor(4);
  ASSERT_NE(executor.pool(), nullptr);
  EXPECT_EQ(executor.pool()->size(), 4u);

  // The same executor serves many batches back to back — the long-lived
  // usage pattern Experiment and sweep rely on — with index-ordered merges.
  for (int round = 0; round < 3; ++round) {
    std::vector<std::size_t> merged;
    shard_and_merge(
        executor, 37, [](std::size_t i) { return i * 2; },
        [&](std::size_t i, std::size_t& value) {
          EXPECT_EQ(value, i * 2);
          merged.push_back(i);
        });
    ASSERT_EQ(merged.size(), 37u);
    for (std::size_t i = 0; i < merged.size(); ++i) EXPECT_EQ(merged[i], i);
  }
}

TEST(Executor, ExecutorOrPrefersCallerExecutor) {
  const Executor shared(3);
  std::unique_ptr<Executor> owned;
  const Executor& chosen = executor_or(&shared, 8, 100, owned);
  EXPECT_EQ(&chosen, &shared);
  EXPECT_EQ(owned, nullptr);

  // Without a caller executor, a one-shot is built from the knob, clamped
  // to the available work so tiny loops never spawn idle workers.
  std::unique_ptr<Executor> built;
  const Executor& fallback = executor_or(nullptr, 8, 2, built);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(&fallback, built.get());
  EXPECT_EQ(fallback.threads(), 2u);

  std::unique_ptr<Executor> tiny;
  EXPECT_EQ(executor_or(nullptr, 8, 1, tiny).pool(), nullptr);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a failed batch.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

}  // namespace
}  // namespace bgpolicy::util
