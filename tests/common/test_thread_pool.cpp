#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace remo {
namespace {

TEST(ThreadPool, RunsEachIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> counts(kN);
  pool.parallel_for(kN, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::size_t sum = 0;
  // No synchronization needed: with no workers the loop runs on the caller.
  pool.parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ReusableAcrossInvocations) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(64, [&](std::size_t i) { sum.fetch_add(i); });
    ASSERT_EQ(sum.load(), 64u * 63u / 2);
  }
}

TEST(ThreadPool, EmptyLoopIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionInBodyPropagatesToCaller) {
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  auto loop = [&] {
    pool.parallel_for(100, [&](std::size_t i) {
      executed.fetch_add(1);
      if (i == 37) throw std::runtime_error("boom");
    });
  };
  EXPECT_THROW(loop(), std::runtime_error);
  // The loop drains before rethrowing; the pool stays usable.
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

// Multi-caller contract (thread_pool.h): the federation plans shards as
// tasks of one loop while each shard dispatches its own loops into the
// same pool, so both concurrent and nested callers must see exactly their
// own indices and their own exceptions, and always finish.

TEST(ThreadPool, ConcurrentCallersRunTheirOwnIndicesOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kN = 500;
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> counts;
  for (std::size_t c = 0; c < kCallers; ++c) counts.emplace_back(kN);
  std::vector<std::string> caught(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round)
        pool.parallel_for(kN, [&](std::size_t i) { counts[c][i].fetch_add(1); });
      try {
        pool.parallel_for(kN, [c](std::size_t i) {
          if (i == 7 * c + 3) throw std::runtime_error("caller " + std::to_string(c));
        });
      } catch (const std::runtime_error& e) {
        caught[c] = e.what();
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kN; ++i)
      ASSERT_EQ(counts[c][i].load(), kRounds) << "caller " << c << " index " << i;
    EXPECT_EQ(caught[c], "caller " + std::to_string(c));
  }
}

TEST(ThreadPool, NestedParallelForFromPoolTask) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 200;
  std::vector<std::vector<std::atomic<int>>> counts;
  for (std::size_t o = 0; o < kOuter; ++o) counts.emplace_back(kInner);
  std::vector<std::string> caught(kOuter);  // slot o written by task o only
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner, [&](std::size_t i) { counts[o][i].fetch_add(1); });
    try {
      pool.parallel_for(kInner, [o](std::size_t i) {
        if (i == o * 11) throw std::runtime_error("outer " + std::to_string(o));
      });
    } catch (const std::runtime_error& e) {
      caught[o] = e.what();
    }
  });
  for (std::size_t o = 0; o < kOuter; ++o) {
    for (std::size_t i = 0; i < kInner; ++i)
      ASSERT_EQ(counts[o][i].load(), 1) << "outer " << o << " inner " << i;
    EXPECT_EQ(caught[o], "outer " + std::to_string(o));
  }

  // An exception escaping a nested loop's task reaches the outer caller
  // once both loops drained; the pool stays usable.
  auto loop = [&] {
    pool.parallel_for(kOuter, [&](std::size_t o) {
      pool.parallel_for(kInner, [o](std::size_t i) {
        if (o == 5 && i == 42) throw std::logic_error("nested");
      });
    });
  };
  EXPECT_THROW(loop(), std::logic_error);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPool, DefaultConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_concurrency(), 1u);
}

}  // namespace
}  // namespace remo
