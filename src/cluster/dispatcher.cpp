#include "cluster/dispatcher.hpp"

#include <stdexcept>
#include <utility>

#include "cluster/host.hpp"

namespace horse::cluster {

Dispatcher::Dispatcher(Host& host, std::size_t workers,
                       faas::SharedTaskQueue* pull_queue,
                       util::Nanos max_sojourn)
    : host_(host), pull_queue_(pull_queue), max_sojourn_(max_sojourn) {
  const std::size_t count = workers == 0 ? 1 : workers;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    worker->thread = std::jthread([this, raw] {
      if (pull_queue_ != nullptr) {
        pull_worker_loop(*raw);
      } else {
        push_worker_loop(*raw);
      }
    });
    workers_.push_back(std::move(worker));
  }
}

Dispatcher::~Dispatcher() {
  shutdown_.store(true, std::memory_order_release);
  resume();  // a paused worker must wake to observe the shutdown
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
      worker->shutting_down = true;
    }
    worker->work_available.notify_all();
  }
  // jthread members join on destruction of each Worker. Pull-mode owners
  // must have close()d the shared queue by now (see header contract).
}

void Dispatcher::submit(faas::Submission task) {
  if (pull_queue_ != nullptr) {
    throw std::logic_error(
        "Dispatcher: submit() is push-mode only; feed the shared queue");
  }
  if (task.enqueued_at == 0) {
    task.enqueued_at = util::monotonic_now();
  }
  Worker& worker = *workers_[host_.platform().shard_of(task.function) %
                             workers_.size()];
  pending_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard lock(worker.mutex);
    worker.tasks.push_back(std::move(task));
  }
  worker.work_available.notify_one();
}

void Dispatcher::push_worker_loop(Worker& worker) {
  std::unique_lock lock(worker.mutex);
  while (true) {
    worker.work_available.wait(lock, [this, &worker] {
      return worker.shutting_down ||
             (!worker.tasks.empty() &&
              !paused_.load(std::memory_order_acquire));
    });
    if (worker.tasks.empty()) {
      return;  // shutting down with nothing queued
    }
    faas::Submission task = std::move(worker.tasks.front());
    worker.tasks.pop_front();
    // in_flight rises before pending falls so occupancy sums never dip.
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    lock.unlock();
    execute_and_record(worker, std::move(task));
    lock.lock();
  }
}

void Dispatcher::pull_worker_loop(Worker& worker) {
  while (true) {
    if (paused_.load(std::memory_order_acquire)) {
      std::unique_lock lock(pause_mutex_);
      pause_cv_.wait(lock, [this] {
        return !paused_.load(std::memory_order_acquire) ||
               shutdown_.load(std::memory_order_acquire);
      });
    }
    // Late binding: the pop only happens on an idle worker, so a pull
    // host by construction never accepts work without a free slot.
    faas::Submission task;
    if (!pull_queue_->wait_pop(task)) {
      return;  // queue closed and drained
    }
    in_flight_.fetch_add(1, std::memory_order_acq_rel);
    execute_and_record(worker, std::move(task));
  }
}

void Dispatcher::execute_and_record(Worker& worker, faas::Submission task) {
  faas::SubmissionOutcome outcome;
  outcome.function = task.function;
  outcome.mode = task.mode;
  outcome.seq = task.seq;
  outcome.key = task.key;
  // Chain identity rides along so even an expire-at-dequeue refusal below
  // reports which workflow (and frontier hop) it refused.
  outcome.workflow = task.workflow;
  outcome.chain_first_hop = task.hop;
  // One clock read covers the queueing measurement, the deadline check,
  // and the sojourn check; the run's own timing is the record's business.
  const util::Nanos now = util::monotonic_now();
  outcome.queueing = now - task.enqueued_at;
  // Expire-at-dequeue (CoDel-style): a task whose deadline passed — or
  // that sat queued past the sojourn cap — is refused HERE, before a
  // worker is wasted executing work nobody is waiting for. The typed
  // outcome is still recorded and counts toward completed(), so the
  // frontend's lossless submitted-vs-completed accounting holds.
  const bool deadline_passed = task.deadline != 0 && now >= task.deadline;
  const bool sojourn_exceeded =
      max_sojourn_ != 0 && outcome.queueing > max_sojourn_;
  if (deadline_passed || sojourn_exceeded) {
    outcome.status =
        util::Status{util::StatusCode::kDeadlineExceeded,
                     deadline_passed ? "dispatcher: deadline expired in queue"
                                     : "dispatcher: sojourn cap exceeded"};
    outcome.reject = faas::SubmissionReject::kDeadlineExpired;
    expired_.fetch_add(1, std::memory_order_acq_rel);
  } else {
    host_.run_task(std::move(task), outcome);
  }
  std::lock_guard lock(worker.mutex);
  worker.outcomes.push_back(std::move(outcome));
  // Ordered under the outcome lock: by the time a frontend's accounting
  // observes the completion, the outcome is drainable.
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  completed_.fetch_add(1, std::memory_order_acq_rel);
}

std::vector<faas::SubmissionOutcome> Dispatcher::take_outcomes() {
  std::vector<faas::SubmissionOutcome> out;
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    for (auto& outcome : worker->outcomes) {
      out.push_back(std::move(outcome));
    }
    worker->outcomes.clear();
  }
  return out;
}

void Dispatcher::pause() {
  paused_.store(true, std::memory_order_release);
  // No notification needed: workers already waiting re-check on their
  // next wakeup, and running workers observe the flag before dequeuing.
}

void Dispatcher::resume() {
  paused_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(pause_mutex_);
  }
  pause_cv_.notify_all();
  for (auto& worker : workers_) {
    {
      std::lock_guard lock(worker->mutex);
    }
    worker->work_available.notify_all();
  }
}

std::vector<faas::Submission> Dispatcher::steal_pending() {
  std::vector<faas::Submission> stolen;
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    for (auto& task : worker->tasks) {
      stolen.push_back(std::move(task));
    }
    if (!worker->tasks.empty()) {
      pending_.fetch_sub(worker->tasks.size(), std::memory_order_acq_rel);
      worker->tasks.clear();
    }
  }
  return stolen;
}

std::size_t Dispatcher::free_slots() const noexcept {
  const std::size_t busy = in_flight_.load(std::memory_order_acquire) +
                           pending_.load(std::memory_order_acquire);
  const std::size_t cap = workers_.size();
  return busy >= cap ? 0 : cap - busy;
}

}  // namespace horse::cluster
