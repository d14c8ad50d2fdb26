// WorkerPool: a persistent pool of worker threads shared by every
// concurrent consumer of a cluster's compute.
//
// Extracted out of PooledTransport so that one pool can serve many
// concurrent query evaluations (and any future consumer: batching,
// background compaction) instead of every transport spawning its own
// threads. The unit of submission is a *batch* — RunAll() enqueues a group
// of tasks and blocks until all of them have finished. Each batch carries
// its own completion latch, so RunAll is fully reentrant: any number of
// threads may run batches concurrently without sharing completion state
// (the old PooledTransport kept one inflight_ counter and one done_cv_ for
// the whole pool, which deadlocked two concurrent rounds against each
// other's tasks).
//
// Fairness: workers serve the active batches round-robin, one task at a
// time — after a worker takes a task from a batch, that batch goes to the
// back of the service order. With one batch per query round in flight,
// pool time is shared evenly across concurrent queries and a wide round
// cannot starve the others (the multi-query scheduler relies on this; see
// runtime/query_scheduler.h and DESIGN.md §6).

#ifndef PAXML_RUNTIME_WORKER_POOL_H_
#define PAXML_RUNTIME_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paxml {

class WorkerPool {
 public:
  /// `workers` = 0 picks min(max(hardware concurrency, 2), 8).
  explicit WorkerPool(size_t workers = 0);

  /// Drains every queued task, then joins the workers. Destroying the pool
  /// while a RunAll is blocked in another thread is a caller bug.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t worker_count() const { return threads_.size(); }

  /// True when the calling thread is one of *this* pool's workers. A task
  /// running on pool A may legally RunAll on pool B (the site-parallel
  /// delivery path nests the cluster's site pool under the transport pool
  /// this way); only same-pool nesting deadlocks.
  bool OnWorkerThread() const;

  /// Runs `tasks` on the pool and blocks until every one of them has
  /// finished. Reentrant: concurrent callers wait on private latches.
  /// Tasks must not call RunAll on the same pool (a worker blocking on a
  /// nested batch could leave no worker to run it); that misuse is caught
  /// by a PAXML_CHECK instead of a silent deadlock.
  void RunAll(std::vector<std::function<void()>> tasks);

  /// Fire-and-forget: enqueues `task` as a single-task batch and returns
  /// immediately. Completion is the caller's protocol, not the pool's —
  /// the peer plane posts whole rounds this way and relies on its own
  /// kRoundDone barrier (runtime/socket_server.cc). Legal from a worker
  /// thread of the same pool (posting cannot block, so it cannot deadlock).
  void Post(std::function<void()> task);

  /// Batches that still have queued (unstarted) tasks. Test introspection.
  size_t queued_batch_count();

  /// Saturation gauges since construction (DESIGN.md §14): the maximum
  /// number of simultaneously executing tasks and the maximum queued
  /// (unstarted) task depth ever observed. Pool-global — under concurrent
  /// runs they show combined pressure, which is what the bench tables want
  /// next to speedup. Monotone; readers dedupe with max-merging
  /// (SiteTelemetry::operator+=).
  uint64_t busy_peak();
  uint64_t queue_peak();

 private:
  /// One RunAll call: its queued tasks plus a completion latch.
  /// `remaining` counts queued *and* executing tasks; the batch leaves
  /// batches_ once its queue empties, while the caller's shared_ptr keeps
  /// the latch alive until the last task signals done_cv.
  struct Batch {
    std::deque<std::function<void()>> tasks;
    size_t remaining = 0;
    std::condition_variable done_cv;
  };

  void WorkerLoop();
  bool HasRunnableTaskLocked() const;

  void EnqueueBatch(std::shared_ptr<Batch> batch);

  std::mutex mu_;
  std::condition_variable work_cv_;
  /// Active batches in round-robin service order; only batches with at
  /// least one queued task appear here.
  std::list<std::shared_ptr<Batch>> batches_;
  bool stopping_ = false;
  /// Saturation accounting, all under mu_: current executing tasks,
  /// current queued (unstarted) tasks, and their historical peaks.
  size_t busy_ = 0;
  size_t queued_ = 0;
  uint64_t busy_peak_ = 0;
  uint64_t queue_peak_ = 0;
  std::vector<std::thread> threads_;
};

}  // namespace paxml

#endif  // PAXML_RUNTIME_WORKER_POOL_H_
