// One host's worker pool: a fixed set of threads, each running one
// Submission at a time through its Host (Host::run_task), in one of two
// transports:
//
//   * PUSH — submit() commits each task to one worker's private queue,
//     worker `host.platform().shard_of(function) % workers`. Every
//     invocation of a function flows through one worker, so per-function
//     work serialises before its shard mutex, and distinct shards ride
//     distinct workers.
//   * PULL — no local queues: every worker blocks on the cluster's shared
//     queue and takes the next task the moment it goes idle. Work is
//     committed to a worker — and hence a host — only when that worker is
//     free, which is the Hiku-style late binding the cluster's pull mode
//     is built on.
//
// Both transports run the same epilogue: measure queueing, expire the
// task at dequeue if its deadline passed or it outstayed the sojourn cap,
// otherwise run it, then record the outcome and count the completion.
//
// Cluster hooks: pause() parks workers after their current task (a
// modelled host stall — pending work stays put), steal_pending() removes
// queued-but-unstarted tasks so a quarantined host's backlog can be
// re-dispatched exactly once, and completed() rises only after the
// outcome is recorded, so the scheduler's drain can poll it and then take
// every outcome.
//
// Thread-safety: submit() from any thread; take_outcomes() from one
// drainer at a time. Pull-mode owners must close() the shared queue
// before destroying the Dispatcher, or its workers never unblock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "faas/submission.hpp"

namespace horse::cluster {

class Host;

class Dispatcher {
 public:
  /// `pull_queue` non-null selects pull mode; it must outlive the
  /// Dispatcher. `max_sojourn` is a CoDel-style cap: a task that waited
  /// longer than this between enqueue and dequeue is expired at dequeue
  /// (typed outcome, never run) — under overload the queue would
  /// otherwise serve only stale work. 0 disables; per-task deadlines are
  /// always honoured regardless.
  Dispatcher(Host& host, std::size_t workers,
             faas::SharedTaskQueue* pull_queue, util::Nanos max_sojourn);
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Push-mode enqueue (throws std::logic_error in pull mode — pull
  /// frontends feed the shared queue instead).
  void submit(faas::Submission task);

  /// Take every recorded outcome (one drainer at a time).
  [[nodiscard]] std::vector<faas::SubmissionOutcome> take_outcomes();

  // --- cluster health hooks ------------------------------------------------

  /// Park every worker after its current task; queued tasks stay queued.
  void pause();
  void resume();

  /// Remove and return every queued-but-unstarted task (push mode; empty
  /// in pull mode, where the backlog lives in the shared queue).
  [[nodiscard]] std::vector<faas::Submission> steal_pending();

  // --- occupancy ----------------------------------------------------------

  [[nodiscard]] std::size_t capacity() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_acquire);
  }
  /// Tasks expired at dequeue (deadline passed or sojourn cap exceeded)
  /// without running. Every expiry still records an outcome and counts
  /// toward completed(), so frontend accounting stays lossless.
  [[nodiscard]] std::uint64_t expired() const noexcept {
    return expired_.load(std::memory_order_acquire);
  }
  /// Workers with neither queued nor running work.
  [[nodiscard]] std::size_t free_slots() const noexcept;

 private:
  struct Worker {
    std::mutex mutex;
    std::condition_variable work_available;
    std::deque<faas::Submission> tasks;
    std::vector<faas::SubmissionOutcome> outcomes;
    bool shutting_down = false;
    std::jthread thread;  // last: joins before the queue state dies
  };

  void push_worker_loop(Worker& worker);
  void pull_worker_loop(Worker& worker);
  /// Shared epilogue: measure queueing, expire or run, record.
  void execute_and_record(Worker& worker, faas::Submission task);

  Host& host_;
  faas::SharedTaskQueue* const pull_queue_;
  const util::Nanos max_sojourn_;
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> paused_{false};
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace horse::cluster
