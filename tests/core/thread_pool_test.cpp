#include "snipr/core/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

/// `ThreadPool::ordered_for`: concurrent bodies, index-ordered commits, a
/// bounded window of uncommitted items, and sequential-equivalent
/// failure; and `parallel_for`, the same loop without a commit. Labelled
/// `unit`, so the ThreadSanitizer leg runs it.

namespace snipr::core {
namespace {

/// Uneven per-item work, so items finish out of index order.
void jitter(std::size_t i) {
  std::this_thread::sleep_for(std::chrono::microseconds((i * 7919) % 300));
}

TEST(ThreadPoolOrderedFor, CommitsArriveInIndexOrder) {
  for (const std::size_t threads : {1U, 2U, 4U}) {
    for (const std::size_t window : {1U, 2U, 3U, 8U}) {
      const ThreadPool pool{threads};
      constexpr std::size_t kCount = 97;
      std::vector<std::size_t> results(kCount, 0);
      std::vector<std::size_t> committed;
      pool.ordered_for(
          kCount, window,
          [&](std::size_t i) {
            jitter(i);
            results[i] = i * i;
          },
          [&](std::size_t i) {
            EXPECT_EQ(results[i], i * i) << "commit ran before its body";
            committed.push_back(i);
          });
      ASSERT_EQ(committed.size(), kCount)
          << threads << " threads, window " << window;
      for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(committed[i], i);
    }
  }
}

TEST(ThreadPoolOrderedFor, UncommittedItemsNeverExceedTheWindow) {
  for (const std::size_t window : {1U, 2U, 3U, 5U}) {
    const ThreadPool pool{4};
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> peak{0};
    std::size_t commits = 0;
    pool.ordered_for(
        64, window,
        [&](std::size_t i) {
          const std::size_t now = in_flight.fetch_add(1) + 1;
          std::size_t seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          // Every eighth item is slow, so later items pile up behind it.
          std::this_thread::sleep_for(
              std::chrono::microseconds(i % 8 == 0 ? 2000 : 50));
        },
        [&](std::size_t) {
          in_flight.fetch_sub(1);
          ++commits;
        });
    EXPECT_EQ(commits, 64U);
    EXPECT_LE(peak.load(), window);
    EXPECT_GE(peak.load(), 1U);
  }
}

TEST(ThreadPoolOrderedFor, ThrowingBodyCommitsExactlyThePrefix) {
  for (const std::size_t threads : {1U, 2U, 4U}) {
    for (const std::size_t window : {1U, 3U, 8U}) {
      const ThreadPool pool{threads};
      constexpr std::size_t kFailAt = 13;
      std::vector<std::size_t> committed;
      try {
        pool.ordered_for(
            40, window,
            [&](std::size_t i) {
              jitter(i);
              if (i == kFailAt) throw std::runtime_error("item 13");
            },
            [&](std::size_t i) { committed.push_back(i); });
        FAIL() << "the failing item's exception was swallowed";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string{e.what()}, "item 13");
      }
      ASSERT_EQ(committed.size(), kFailAt)
          << threads << " threads, window " << window;
      for (std::size_t i = 0; i < kFailAt; ++i) EXPECT_EQ(committed[i], i);
    }
  }
}

TEST(ThreadPoolOrderedFor, LowestFailedIndexWinsWhenSeveralThrow) {
  // Item 9 fails first in time; item 4 fails later but is earlier in
  // index order, so a sequential loop would have stopped there.
  const ThreadPool pool{4};
  std::vector<std::size_t> committed;
  try {
    pool.ordered_for(
        20, 16,
        [&](std::size_t i) {
          if (i == 9) throw std::runtime_error("item 9");
          if (i == 4) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            throw std::runtime_error("item 4");
          }
        },
        [&](std::size_t i) { committed.push_back(i); });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string{e.what()}, "item 4");
  }
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ThreadPoolOrderedFor, ThrowingCommitStopsTheRun) {
  const ThreadPool pool{4};
  std::vector<std::size_t> committed;
  EXPECT_THROW(pool.ordered_for(
                   50, 4, [](std::size_t i) { jitter(i); },
                   [&](std::size_t i) {
                     if (i == 7) throw std::logic_error("commit 7");
                     committed.push_back(i);
                   }),
               std::logic_error);
  EXPECT_EQ(committed, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ThreadPoolOrderedFor, ThrowingCommitRunsOnce) {
  // A commit that throws must not be retried by the next worker to take
  // the committer role: count every call, successful or not.
  constexpr std::size_t kCount = 24;
  constexpr std::size_t kFailAt = 3;
  const ThreadPool pool{4};
  for (int run = 0; run < 200; ++run) {
    std::vector<std::size_t> calls(kCount, 0);
    std::vector<std::size_t> succeeded;
    EXPECT_THROW(pool.ordered_for(
                     kCount, 4,
                     [](std::size_t i) {
                       std::this_thread::sleep_for(
                           std::chrono::microseconds((i * 7919) % 40));
                     },
                     [&](std::size_t i) {
                       ++calls[i];
                       if (i == kFailAt) throw std::logic_error("commit 3");
                       succeeded.push_back(i);
                     }),
                 std::logic_error);
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_LE(calls[i], 1U) << "commit " << i << " ran twice, run " << run;
    }
    ASSERT_EQ(succeeded, (std::vector<std::size_t>{0, 1, 2})) << "run " << run;
  }
}

TEST(ThreadPoolOrderedFor, BodiesRunWhileACommitIsInFlight) {
  // Bodies 1..3 hold their workers until commit(0) has begun, so before
  // it no worker can have been handed an index of 4 or more. commit(0)
  // then waits for such a body to start. It can only start if hand-out
  // goes on while a commit is in flight; a pool that commits under its
  // hand-out lock fails here on the timeout.
  constexpr std::size_t kThreads = 4;
  constexpr auto kTimeout = std::chrono::seconds(3);
  std::mutex mutex;
  std::condition_variable changed;
  bool commit_started = false;
  bool later_body_started = false;
  bool seen = false;
  const ThreadPool pool{kThreads};
  pool.ordered_for(
      16, 2 * kThreads,
      [&](std::size_t i) {
        std::unique_lock lock{mutex};
        if (i >= kThreads) {
          later_body_started = true;
          changed.notify_all();
        } else if (i > 0) {
          changed.wait_for(lock, kTimeout, [&] { return commit_started; });
        }
      },
      [&](std::size_t i) {
        if (i != 0) return;
        std::unique_lock lock{mutex};
        commit_started = true;
        changed.notify_all();
        seen = changed.wait_for(lock, kTimeout,
                                [&] { return later_body_started; });
      });
  EXPECT_TRUE(seen) << "no body started while commit(0) was in flight";
}

TEST(ThreadPoolOrderedFor, EmptyRangeAndZeroWindow) {
  const ThreadPool pool{4};
  std::size_t calls = 0;
  const auto count = [&](std::size_t) { ++calls; };
  pool.ordered_for(0, 2, count, count);
  EXPECT_EQ(calls, 0U);
  EXPECT_THROW(pool.ordered_for(3, 0, count, count), std::invalid_argument);
  EXPECT_EQ(calls, 0U);
}

TEST(ThreadPoolParallelFor, EveryIndexRunsExactlyOnce) {
  for (const std::size_t threads : {1U, 2U, 8U}) {
    const ThreadPool pool{threads};
    for (const std::size_t count : {0U, 1U, 5U, 7U, 97U}) {
      std::vector<std::size_t> runs(count, 0);
      pool.parallel_for(count, [&](std::size_t i) {
        jitter(i);
        ++runs[i];
      });
      EXPECT_EQ(runs, std::vector<std::size_t>(count, 1))
          << threads << " threads, count " << count;
    }
  }
}

TEST(ThreadPoolParallelFor, LowestFailedIndexWinsAtEveryThreadCount) {
  // Item 11 fails at once; item 5 fails later but is earlier in index
  // order, so its exception is the one rethrown.
  for (const std::size_t threads : {1U, 2U, 8U}) {
    const ThreadPool pool{threads};
    try {
      pool.parallel_for(40, [](std::size_t i) {
        if (i == 5) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("item 5");
        }
        if (i == 11) throw std::runtime_error("item 11");
      });
      FAIL() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string{e.what()}, "item 5") << threads << " threads";
    }
  }
}

TEST(ThreadPoolParallelFor, OneThreadRunsNoBodyAfterTheFailure) {
  const ThreadPool pool{1};
  std::vector<std::size_t> ran;
  EXPECT_THROW(pool.parallel_for(10,
                                 [&](std::size_t i) {
                                   ran.push_back(i);
                                   if (i == 4) throw std::logic_error("4");
                                 }),
               std::logic_error);
  EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace snipr::core
