#include "snipr/core/thread_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace snipr::core {

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  if (threads_ == 0) threads_ = hardware_threads();
}

std::size_t ThreadPool::hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ThreadPool::parallel_for(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (count == 0) return;
  ordered_for(count, count, body, [](std::size_t) {});
}

void ThreadPool::ordered_for(
    std::size_t count, std::size_t window,
    const std::function<void(std::size_t)>& body,
    const std::function<void(std::size_t)>& commit) const {
  if (window == 0) {
    throw std::invalid_argument("ThreadPool::ordered_for: window must be >= 1");
  }
  if (count == 0) return;

  const std::size_t workers = std::min({threads_, count, window});
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      body(i);
      commit(i);
    }
    return;
  }

  // Hand-out, completion and commit bookkeeping live under one mutex;
  // bodies and commits run outside it. A worker that finishes an item
  // while no commit is in flight becomes the committer and commits every
  // finished item from the committed prefix onwards, releasing the mutex
  // for each commit, so the other workers keep taking and finishing items
  // meanwhile. Their finished items wait for the committer, which checks
  // for them under the mutex before it gives the role up.
  std::mutex mutex;
  std::condition_variable window_open;
  std::size_t next = 0;       // next index to hand out
  std::size_t committed = 0;  // commit(committed) is the next commit
  bool committing = false;    // a worker holds the committer role
  // finished[i % window]: body(i) returned and commit(i) has not started.
  // Started-but-uncommitted items span fewer than `window` consecutive
  // indices, so slots never collide.
  std::vector<char> finished(window, 0);
  std::size_t failed = count;  // lowest failed index; count = none
  std::exception_ptr error;
  bool stop = false;
  const auto record = [&](std::size_t i, std::exception_ptr e) {
    if (i < failed) {
      failed = i;
      error = std::move(e);
    }
    stop = true;
    window_open.notify_all();
  };

  auto worker = [&] {
    std::unique_lock lock{mutex};
    for (;;) {
      window_open.wait(lock, [&] {
        return stop || next >= count || next - committed < window;
      });
      if (stop || next >= count) return;
      const std::size_t i = next++;
      lock.unlock();
      std::exception_ptr body_error;
      try {
        body(i);
      } catch (...) {
        body_error = std::current_exception();
      }
      lock.lock();
      if (body_error) {
        record(i, std::move(body_error));
        continue;
      }
      finished[i % window] = 1;
      if (committing) continue;
      // Items below a failure still commit; a failed item is never marked
      // finished, so the committed prefix ends right before it. A mark is
      // cleared before its commit starts, so a commit that throws is never
      // run again.
      committing = true;
      while (committed < count && finished[committed % window] != 0) {
        const std::size_t c = committed;
        finished[c % window] = 0;
        lock.unlock();
        std::exception_ptr commit_error;
        try {
          commit(c);
        } catch (...) {
          commit_error = std::current_exception();
        }
        lock.lock();
        if (commit_error) {
          record(c, std::move(commit_error));
          break;
        }
        // Only now may slot c % window go to item c + window.
        ++committed;
        window_open.notify_all();
      }
      committing = false;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace snipr::core
