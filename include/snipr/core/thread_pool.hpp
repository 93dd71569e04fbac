#pragma once

#include <cstddef>
#include <functional>

/// \file thread_pool.hpp
/// Fork-join work distribution: each call spawns its workers and joins
/// them before returning, so a pool object holds nothing but a worker
/// count. Engines amortise the spawn by making one call per run.
///
/// Extracted from `core::BatchRunner` so every parallel engine (the batch
/// grid, the deployment `FleetEngine`, the streaming fleet) shares one
/// work-distribution strategy instead of hand-rolling its own: a shared
/// index hands item `i` to whichever worker gets there first, so
/// assignment order can never influence output order — each item owns its
/// own result slot and its own deterministic state.
///
/// One hand-out loop serves both primitives:
///  - `ordered_for` runs items concurrently and *commits* them one at a
///    time in index order, as a sequential loop would, with a bounded
///    number of items in flight. It is how a run folds results into one
///    order-sensitive accumulator (and checkpoints it) without a
///    spawn-join barrier between folds.
///  - `parallel_for` is `ordered_for` with no commit and a window of the
///    whole range.
/// Both fail the same way: hand-out stops at the first failure, and the
/// exception of the lowest failed index is rethrown after the join.

namespace snipr::core {

class ThreadPool {
 public:
  /// \param threads worker count; 0 means hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);

  /// Workers this pool will spawn (never 0).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// Invoke `body(i)` for every i in [0, count): ordered_for(count,
  /// count, body, no commit). Bodies run concurrently (at most
  /// min(threads(), count) at a time) and must not share mutable state
  /// except through their own index. Blocks until every started body
  /// returned; on failure rethrows the exception of the lowest failed
  /// index, and no index above it that was not yet handed out runs.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body) const;

  /// Invoke `body(i)` for every i in [0, count) concurrently, and
  /// `commit(i)` once body(i) has returned, in index order: commit(i)
  /// starts only after commit(i − 1) returned, on whichever worker
  /// completed the prefix up to i. Commits run one at a time but outside
  /// the mutex that hands out work, so other workers keep starting and
  /// finishing bodies while a commit is in flight. At most `window` items
  /// are started but not yet committed, and item i + window is not handed
  /// out until commit(i) has returned, so a body may write a slot indexed
  /// by i % window that commit(i) reads. Bodies must not share mutable
  /// state except through their own index; commits may share anything,
  /// since each one happens-before the next.
  ///
  /// Failure is sequential-equivalent: the first exception (from a body
  /// or a commit) stops hand-out and wakes every waiting worker; items
  /// already running finish. Each commit runs at most once, also when it
  /// throws. After the join, the exception of the lowest failed index f
  /// is rethrown, and commit has run for exactly [0, f). Throws
  /// std::invalid_argument when `window` is 0.
  void ordered_for(std::size_t count, std::size_t window,
                   const std::function<void(std::size_t)>& body,
                   const std::function<void(std::size_t)>& commit) const;

  /// std::thread::hardware_concurrency(), never 0.
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  std::size_t threads_;
};

}  // namespace snipr::core
