// Interleaving-explorer scenarios for the concurrency-sensitive pieces of
// the resume path. The positive scenarios assert that what HORSE claims
// is safe stays safe under adversarial preemption; the negative control
// proves the harness has teeth by feeding it the exact bug class the
// 𝒫²𝒮ℳ disjointness argument exists to rule out — two splice tasks
// sharing an anchor — and demanding it is caught and replayable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/merge_crew.hpp"
#include "core/p2sm.hpp"
#include "faas/warm_pool.hpp"
#include "harness/schedule_explorer.hpp"
#include "sched/run_queue.hpp"
#include "sched/vcpu.hpp"
#include "util/epoch.hpp"
#include "util/spinlock.hpp"
#include "util/status.hpp"
#include "util/time.hpp"
#include "util/yield_point.hpp"
#include "vmm/sandbox.hpp"

namespace horse::harness {
namespace {

std::unique_ptr<sched::Vcpu> make_vcpu(sched::Credit credit) {
  auto vcpu = std::make_unique<sched::Vcpu>();
  vcpu->credit = credit;
  return vcpu;
}

util::Status violation(std::string message) {
  return {util::StatusCode::kInternal, std::move(message)};
}

// ---------------------------------------------------------------------------
// Scenario 1 — parallel 𝒫²𝒮ℳ splices vs. a concurrent run-queue reader.
//
// Three splicer threads execute a real P2smIndex's splice set through the
// instrumented execute_splice while a reader thread concurrently polls the
// operations the design does declare safe during a merge: the atomic
// version counter, the lock-protected load, and the out-of-band size. Any
// interleaving must leave B a sorted, closed ring equal to std::merge of
// the credit sequences.
// ---------------------------------------------------------------------------

util::Status run_splice_vs_reader(const ExplorerOptions& options) {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::RunQueue b(0);
  sched::VcpuList a;

  const std::vector<sched::Credit> b_credits{10, 20, 30, 40, 50, 60};
  const std::vector<sched::Credit> a_credits{5, 15, 15, 35, 55, 65};
  for (const sched::Credit credit : b_credits) {
    storage.push_back(make_vcpu(credit));
    util::LockGuard guard(b.lock());
    b.insert_sorted(*storage.back());
  }
  for (const sched::Credit credit : a_credits) {
    storage.push_back(make_vcpu(credit));
    a.push_back(*storage.back());
  }

  std::vector<sched::Credit> expected;
  std::merge(b_credits.begin(), b_credits.end(), a_credits.begin(),
             a_credits.end(), std::back_inserter(expected));

  core::P2smIndex index;
  index.rebuild(a, b);

  // Materialise the splice set exactly as P2smIndex::merge does, but keep
  // the tasks in hand so distinct threads can execute distinct subsets —
  // Algorithm 1's one-thread-per-posA-key model.
  std::vector<util::ListHook*> b_hooks;
  for (sched::Vcpu& vcpu : b.list()) {
    b_hooks.push_back(&vcpu.hook);
  }
  std::vector<core::SpliceTask> tasks;
  std::size_t total = 0;
  for (const auto& [anchor, run] : index.runs()) {
    util::ListHook* anchor_hook =
        anchor == core::P2smIndex::kBeforeHead
            ? b.list().sentinel()
            : b_hooks[static_cast<std::size_t>(anchor)];
    tasks.push_back(core::SpliceTask{anchor_hook, run.head, run.tail});
    total += run.count;
  }
  (void)a.take_all();

  constexpr std::size_t kSplicers = 3;
  std::atomic<std::size_t> splicers_done{0};
  std::atomic<std::uint64_t> reader_observations{0};

  InterleavingSchedule schedule(options);
  for (std::size_t t = 0; t < kSplicers; ++t) {
    schedule.spawn("splicer", [&tasks, &splicers_done, t] {
      for (std::size_t i = t; i < tasks.size(); i += kSplicers) {
        core::execute_splice(tasks[i]);
      }
      splicers_done.fetch_add(1);
    });
  }
  schedule.spawn("reader", [&b, &splicers_done, &reader_observations] {
    // Observe-first: some schedules legitimately run every splicer to
    // completion before the reader's first pick, so the loop must not
    // gate its initial observation on splicers still being live.
    std::uint64_t last_version = 0;
    do {
      const std::uint64_t version = b.version();  // atomic
      if (version < last_version) {
        return;  // version must be monotone; flagged by count below
      }
      last_version = version;
      (void)b.load();  // spinlock-protected
      (void)b.size();  // untouched during splices
      reader_observations.fetch_add(1);
      util::yield_point("scenario.reader");
    } while (splicers_done.load() < kSplicers);
  });

  const auto report = schedule.run();
  if (!report.completed) {
    return violation("splice-vs-reader: schedule hit the step cap");
  }
  if (reader_observations.load() == 0) {
    return violation("splice-vs-reader: reader never observed the queue");
  }

  b.list().add_size(total);
  b.bump_version();
  if (auto status = b.check_invariants(/*require_sorted=*/true);
      !status.is_ok()) {
    return status;
  }
  std::vector<sched::Credit> actual;
  for (const sched::Vcpu& vcpu : b.list()) {
    actual.push_back(vcpu.credit);
  }
  if (actual != expected) {
    return violation("splice-vs-reader: merged credits differ from std::merge");
  }
  b.list().abandon_all();  // storage owns the nodes
  return util::Status::ok();
}

TEST(ExplorerScenarioTest, ParallelSplicesSafeAgainstConcurrentReader) {
  ExplorerOptions base;
  base.seed = 100;
  base.change_point_horizon = 256;
  const auto result = ScheduleExplorer::explore(base, 60, run_splice_vs_reader);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
  EXPECT_EQ(result.schedules_explored, 60u);
}

// ---------------------------------------------------------------------------
// Scenario 2 — pause-time index rebuild racing an invalidating enqueue.
//
// One thread runs the pause-time precompute (rebuild under B's lock) and
// then the resume-time merge; another enqueues a vCPU into B in between,
// bumping the version. Every interleaving must either merge a fresh index
// successfully or be refused with kFailedPrecondition — never corrupt B.
// The refused path then retries rebuild+merge under one critical section,
// which must always succeed.
// ---------------------------------------------------------------------------

util::Status run_rebuild_vs_enqueue(const ExplorerOptions& options) {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::RunQueue b(0);
  sched::VcpuList a;

  for (const sched::Credit credit : {10, 20, 30, 40}) {
    storage.push_back(make_vcpu(credit));
    util::LockGuard guard(b.lock());
    b.insert_sorted(*storage.back());
  }
  for (const sched::Credit credit : {5, 25, 45}) {
    storage.push_back(make_vcpu(credit));
    a.push_back(*storage.back());
  }
  storage.push_back(make_vcpu(22));
  sched::Vcpu& invalidator = *storage.back();

  core::P2smIndex index;
  core::SequentialMergeExecutor sequential;
  std::atomic<bool> merge_ok{false};

  InterleavingSchedule schedule(options);
  schedule.spawn("resume", [&] {
    {
      util::LockGuard guard(b.lock());
      index.rebuild(a, b);
    }
    // Deliberate window: lock released between precompute and merge so
    // the enqueue can invalidate the snapshot.
    util::yield_point("scenario.precompute_window");
    {
      util::LockGuard guard(b.lock());
      util::Status status = index.merge(a, b, sequential);
      if (status.is_ok()) {
        merge_ok.store(true);
        return;
      }
      if (status.code() != util::StatusCode::kFailedPrecondition) {
        return;  // unexpected failure; flagged below via merge_ok
      }
      // Recovery path: precompute + merge inside one critical section
      // cannot be invalidated.
      index.rebuild(a, b);
      status = index.merge(a, b, sequential);
      merge_ok.store(status.is_ok());
    }
  });
  schedule.spawn("enqueue", [&] {
    util::LockGuard guard(b.lock());
    b.insert_sorted(invalidator);
  });

  const auto report = schedule.run();
  if (!report.completed) {
    return violation("rebuild-vs-enqueue: schedule hit the step cap");
  }
  if (!merge_ok.load()) {
    return violation("rebuild-vs-enqueue: merge failed even after rebuild");
  }
  if (auto status = b.check_invariants(/*require_sorted=*/true);
      !status.is_ok()) {
    return status;
  }
  const std::vector<sched::Credit> expected{5, 10, 20, 22, 25, 30, 40, 45};
  std::vector<sched::Credit> actual;
  for (const sched::Vcpu& vcpu : b.list()) {
    actual.push_back(vcpu.credit);
  }
  if (actual != expected) {
    return violation("rebuild-vs-enqueue: final queue contents wrong");
  }
  if (a.size() != 0) {
    return violation("rebuild-vs-enqueue: A not drained");
  }
  b.list().abandon_all();
  return util::Status::ok();
}

TEST(ExplorerScenarioTest, IndexRebuildRacingInvalidatingEnqueue) {
  ExplorerOptions base;
  base.seed = 200;
  base.change_point_horizon = 256;
  const auto result =
      ScheduleExplorer::explore(base, 60, run_rebuild_vs_enqueue);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
}

// ---------------------------------------------------------------------------
// Scenario 3 — SpinLock / thread-pool handoff.
//
// Cooperative half: three threads hand a Spinlock around with a yield
// point inside the critical section — mutual exclusion must hold at every
// explored preemption. Free-running half (exercised by the TSan preset):
// a fixed pool of std::jthreads hammers a lock-protected RunQueue.
// ---------------------------------------------------------------------------

util::Status run_spinlock_handoff(const ExplorerOptions& options) {
  util::Spinlock lock;
  int in_critical = 0;
  int counter = 0;
  std::atomic<bool> exclusion_violated{false};
  constexpr int kThreads = 3;
  constexpr int kIterations = 8;

  InterleavingSchedule schedule(options);
  for (int t = 0; t < kThreads; ++t) {
    schedule.spawn("locker", [&] {
      for (int i = 0; i < kIterations; ++i) {
        util::LockGuard guard(lock);
        ++in_critical;
        util::yield_point("scenario.critical_section");
        if (in_critical != 1) {
          exclusion_violated.store(true);
        }
        ++counter;
        --in_critical;
      }
    });
  }
  const auto report = schedule.run();
  if (!report.completed) {
    return violation("spinlock-handoff: schedule hit the step cap "
                     "(lock handoff livelocked)");
  }
  if (exclusion_violated.load()) {
    return violation("spinlock-handoff: two threads inside the lock");
  }
  if (counter != kThreads * kIterations) {
    return violation("spinlock-handoff: lost increments under the lock");
  }
  return util::Status::ok();
}

TEST(ExplorerScenarioTest, SpinlockHandoffKeepsMutualExclusion) {
  ExplorerOptions base;
  base.seed = 300;
  base.change_point_horizon = 256;
  const auto result = ScheduleExplorer::explore(base, 60, run_spinlock_handoff);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
}

TEST(ExplorerScenarioTest, ThreadPoolSpinlockHandoffFreeRunning) {
  // Free-running companion to the cooperative half: real preemption, real
  // contention; the TSan preset turns any missing happens-before into a
  // hard failure.
  constexpr std::size_t kTasks = 200;
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  storage.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    storage.push_back(make_vcpu(static_cast<sched::Credit>(i % 17)));
  }
  constexpr std::size_t kWorkers = 4;
  sched::RunQueue b(0);
  std::atomic<std::size_t> executed{0};
  {
    // Worker w takes tasks w, w + kWorkers, ...; the jthreads join here.
    std::vector<std::jthread> pool;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t i = w; i < kTasks; i += kWorkers) {
          sched::Vcpu& vcpu = *storage[i];
          {
            util::LockGuard guard(b.lock());
            b.insert_sorted(vcpu);
          }
          b.update_load_enqueue();
          {
            util::LockGuard guard(b.lock());
            b.remove(vcpu);
          }
          executed.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_GT(b.load(), 0.0);
  EXPECT_TRUE(b.check_invariants().is_ok());
}

// ---------------------------------------------------------------------------
// Scenario 3b — merge-crew spawn vs. first dispatch.
//
// A freshly spawned crew worker must execute a dispatch published before
// its first generation check. This scenario enters that window on every
// run instead of sampling for it: a yield hook parks the worker at
// crew.worker_start until the dispatcher reaches crew.wait_complete, which
// it only does after the generation bump. A worker that snapshotted its
// "already seen" generation on its own thread would count the dispatch as
// seen, and the dispatcher would wait for it forever.
// ---------------------------------------------------------------------------

std::atomic<bool> g_first_dispatch_published{false};

void park_worker_until_published(const char* site) noexcept {
  if (std::strcmp(site, "crew.wait_complete") == 0) {
    g_first_dispatch_published.store(true, std::memory_order_release);
  } else if (std::strcmp(site, "crew.worker_start") == 0) {
    // Bounded, so a dispatcher that never publishes cannot wedge the
    // crew's destructor.
    const util::Nanos give_up = util::monotonic_now() + 10 * util::kSecond;
    while (!g_first_dispatch_published.load(std::memory_order_acquire) &&
           util::monotonic_now() < give_up) {
      std::this_thread::yield();
    }
  }
}

TEST(ExplorerScenarioTest, CrewWorkerRunsDispatchPublishedBeforeFirstCheck) {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::RunQueue b(0);
  storage.push_back(make_vcpu(0));
  {
    util::LockGuard guard(b.lock());
    b.insert_sorted(*storage.front());
  }
  storage.push_back(make_vcpu(5));
  const core::SpliceTask task{&storage[0]->hook, &storage[1]->hook,
                              &storage[1]->hook};

  g_first_dispatch_published.store(false);
  const util::YieldHookFn previous = util::yield_hook();
  util::set_yield_hook(&park_worker_until_published);
  {
    core::ParallelMergeCrew crew(1);
    // A worker that sees the dispatch answers in microseconds; one that
    // missed it leaves execute() waiting forever.
    std::future<void> dispatched = std::async(std::launch::async, [&] {
      crew.execute(std::span<const core::SpliceTask>(&task, 1));
    });
    if (dispatched.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      // The wedged dispatcher and worker can never be joined, and a
      // leaked spinning thread would run later scenarios' yield hooks.
      ADD_FAILURE()
          << "the worker missed a dispatch published before its first check";
      std::fflush(stdout);
      std::_Exit(EXIT_FAILURE);
    }
  }
  util::set_yield_hook(previous);

  b.list().add_size(1);
  EXPECT_TRUE(b.check_invariants(/*require_sorted=*/true).is_ok());
  b.list().abandon_all();
}

// ---------------------------------------------------------------------------
// Scenario 4 — warm-pool concurrent acquire/release.
//
// Two producers park paused sandboxes while two consumers take them, all
// through a Spinlock (WarmPool itself is single-threaded by design; the
// platform serialises it exactly like this). Every explored interleaving
// must hand each sandbox to exactly one consumer and leave the accounting
// balanced.
// ---------------------------------------------------------------------------

util::Status run_warm_pool_acquire_release(const ExplorerOptions& options) {
  constexpr faas::FunctionId kFunction = 1;
  constexpr std::size_t kPerProducer = 2;
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kConsumers = 2;
  constexpr std::size_t kTotal = kPerProducer * kProducers;

  faas::WarmPool pool;
  util::Spinlock pool_lock;
  std::vector<std::vector<sched::SandboxId>> taken(kConsumers);
  std::vector<std::unique_ptr<vmm::Sandbox>> returned(kTotal);

  InterleavingSchedule schedule(options);
  for (std::size_t p = 0; p < kProducers; ++p) {
    schedule.spawn("producer", [&pool, &pool_lock, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto id =
            static_cast<sched::SandboxId>(p * kPerProducer + i + 1);
        auto sandbox = std::make_unique<vmm::Sandbox>(
            id, vmm::SandboxConfig{.name = "warm", .num_vcpus = 1});
        sandbox->set_state(vmm::SandboxState::kPaused);
        util::LockGuard guard(pool_lock);
        if (!pool.put(kFunction, std::move(sandbox), 0).is_ok()) {
          return;  // flagged by the post-run accounting
        }
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    schedule.spawn("consumer", [&pool, &pool_lock, &taken, &returned, c] {
      while (taken[c].size() < kTotal / kConsumers) {
        std::unique_ptr<vmm::Sandbox> sandbox;
        {
          util::LockGuard guard(pool_lock);
          sandbox = pool.take(kFunction);
        }
        if (sandbox == nullptr) {
          util::yield_point("scenario.warm_retry");
          continue;
        }
        taken[c].push_back(sandbox->id());
        returned[sandbox->id() - 1] = std::move(sandbox);
      }
    });
  }

  const auto report = schedule.run();
  if (!report.completed) {
    return violation("warm-pool: schedule hit the step cap");
  }
  std::set<sched::SandboxId> distinct;
  for (const auto& ids : taken) {
    distinct.insert(ids.begin(), ids.end());
  }
  if (distinct.size() != kTotal) {
    return violation("warm-pool: a sandbox was lost or taken twice");
  }
  if (pool.total() != 0 || pool.available(kFunction) != 0) {
    return violation("warm-pool: accounting did not return to zero");
  }
  for (const auto& sandbox : returned) {
    if (sandbox == nullptr) {
      return violation("warm-pool: taken sandbox pointer missing");
    }
  }
  return util::Status::ok();
}

TEST(ExplorerScenarioTest, WarmPoolConcurrentAcquireRelease) {
  ExplorerOptions base;
  base.seed = 400;
  base.change_point_horizon = 256;
  const auto result =
      ScheduleExplorer::explore(base, 60, run_warm_pool_acquire_release);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
}

// ---------------------------------------------------------------------------
// Scenario 5 — epoch-based reclamation: pinned reader vs retire+reclaim.
//
// A reader pins the queue's reclaimer and dereferences a shared node while
// an owner thread unpublishes it, retires it, and hammers try_reclaim; a
// third thread contends on the reclaim lock. The EBR claim under test:
// no interleaving — including preemptions inside pin's publish-then-verify
// window and reclaim's slot scan (the epoch.* yield points) — may destroy
// the node while the reader still holds its pin. Destruction is modelled
// as a flag flip, not a free, so a violation is detected, not UB.
// ---------------------------------------------------------------------------

util::Status run_epoch_pin_vs_reclaim(const ExplorerOptions& options) {
  struct Node {
    std::atomic<bool> alive{true};
    util::EpochRetireNode retire;
  };
  auto node = std::make_unique<Node>();
  node->retire.owner = node.get();
  node->retire.destroy = [](void* owner) {
    static_cast<Node*>(owner)->alive.store(false);
  };

  util::EpochReclaimer reclaimer;
  std::atomic<Node*> published{node.get()};
  std::atomic<bool> read_after_free{false};

  InterleavingSchedule schedule(options);
  schedule.spawn("reader", [&reclaimer, &published, &read_after_free] {
    util::EpochReclaimer::ReadGuard guard(reclaimer);
    // Pin BEFORE the lookup extracts the pointer — the ordering resume()
    // gets from UllRunQueueManager::lookup(), which pins under the
    // manager mutex while the node is still reachable. A pointer
    // obtained after pinning must stay dereferenceable until unpin.
    Node* node = published.load();
    if (node == nullptr) {
      return;  // unpublished before our lookup; nothing to protect
    }
    for (int i = 0; i < 3; ++i) {
      if (!node->alive.load()) {
        read_after_free.store(true);
      }
      util::yield_point("scenario.epoch_read");
    }
  });
  schedule.spawn("owner", [&reclaimer, &published, &node] {
    // Unpublish first (the map erase), then retire — the protocol's
    // precondition that epochs only cover already-looked-up readers.
    published.store(nullptr);
    util::yield_point("scenario.epoch_unpublish");
    reclaimer.retire(&node->retire);
    for (int i = 0; i < 6; ++i) {
      (void)reclaimer.try_reclaim();
      util::yield_point("scenario.epoch_owner_reclaim");
    }
  });
  schedule.spawn("reclaimer", [&reclaimer] {
    for (int i = 0; i < 2; ++i) {
      (void)reclaimer.try_reclaim();  // contends on the reclaim lock
      util::yield_point("scenario.epoch_contender");
    }
  });

  const auto report = schedule.run();
  if (!report.completed) {
    return violation("epoch-pin: schedule hit the step cap");
  }
  if (read_after_free.load()) {
    return violation("epoch-pin: node destroyed under a live pin");
  }
  // No reader pinned anymore: a bounded number of advances must free it.
  for (int i = 0; i < 3 && node->alive.load(); ++i) {
    (void)reclaimer.try_reclaim();
  }
  if (node->alive.load()) {
    return violation("epoch-pin: node never reclaimed after quiescence");
  }
  if (reclaimer.pending() != 0) {
    return violation("epoch-pin: reclaimer accounting did not reach zero");
  }
  return util::Status::ok();
}

TEST(ExplorerScenarioTest, EpochPinProtectsReadersFromReclaim) {
  ExplorerOptions base;
  base.seed = 500;
  base.change_point_horizon = 256;
  const auto result =
      ScheduleExplorer::explore(base, 60, run_epoch_pin_vs_reclaim);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
}

// ---------------------------------------------------------------------------
// Negative control — a deliberately broken splice set.
//
// Two tasks share one anchor, violating the pairwise-disjointness that
// Algorithm 1's lock-freedom rests on. Executed strictly one-after-another
// the result happens to stay consistent (each splice is locally complete),
// so a harness that never truly interleaves would pass it; a genuine
// preemption between the anchor read and the anchor write drops a node on
// the floor. The explorer must flag that within 500 schedules and the
// failing seed must replay to the identical verdict.
// ---------------------------------------------------------------------------

util::Status run_overlapping_anchor_schedule(const ExplorerOptions& options) {
  std::vector<std::unique_ptr<sched::Vcpu>> storage;
  sched::RunQueue b(0);
  storage.push_back(make_vcpu(0));
  {
    util::LockGuard guard(b.lock());
    b.insert_sorted(*storage.front());
  }
  util::ListHook* shared_anchor = &storage.front()->hook;

  storage.push_back(make_vcpu(5));
  storage.push_back(make_vcpu(5));
  sched::Vcpu& x = *storage[1];
  sched::Vcpu& y = *storage[2];

  const core::SpliceTask task1{shared_anchor, &x.hook, &x.hook};
  const core::SpliceTask task2{shared_anchor, &y.hook, &y.hook};

  InterleavingSchedule schedule(options);
  schedule.spawn("broken-worker-1",
                 [&task1] { core::execute_splice(task1); });
  schedule.spawn("broken-worker-2",
                 [&task2] { core::execute_splice(task2); });
  const auto report = schedule.run();

  b.list().add_size(2);
  util::Status status = b.check_invariants(/*require_sorted=*/true);
  b.list().abandon_all();  // never walk a possibly-corrupt ring again
  if (!report.completed) {
    return violation("overlapping-anchor: schedule hit the step cap");
  }
  return status;
}

TEST(ExplorerScenarioTest, NegativeControlOverlappingAnchorsAreCaught) {
  ExplorerOptions base;
  base.seed = 1;
  // Each broken worker is ~6 yield points; concentrate the change points
  // inside that window so seeds differ meaningfully.
  base.change_point_horizon = 16;
  const auto result = ScheduleExplorer::explore(
      base, 500, run_overlapping_anchor_schedule);
  ASSERT_TRUE(result.violation_found)
      << "harness failed to catch an overlapping-anchor splice set in "
      << result.schedules_explored << " schedules";
  EXPECT_LE(result.schedules_explored, 500u);

  // Deterministic replay: the failing seed reproduces the identical
  // violation, twice.
  ExplorerOptions replay = base;
  replay.seed = result.failing_seed;
  const util::Status first = run_overlapping_anchor_schedule(replay);
  const util::Status second = run_overlapping_anchor_schedule(replay);
  ASSERT_FALSE(first.is_ok());
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(first.to_report(), second.to_report());
  EXPECT_EQ(first.to_report(), result.message);
}

TEST(ExplorerScenarioTest, PositiveControlDisjointAnchorsNeverFlagged) {
  // Same shape as the negative control but with the disjoint anchors
  // 𝒫²𝒮ℳ actually produces — no schedule may report a violation.
  const auto run_disjoint = [](const ExplorerOptions& options) {
    std::vector<std::unique_ptr<sched::Vcpu>> storage;
    sched::RunQueue b(0);
    storage.push_back(make_vcpu(0));
    storage.push_back(make_vcpu(10));
    for (int i = 0; i < 2; ++i) {
      util::LockGuard guard(b.lock());
      b.insert_sorted(*storage[i]);
    }
    storage.push_back(make_vcpu(5));
    storage.push_back(make_vcpu(15));
    sched::Vcpu& x = *storage[2];
    sched::Vcpu& y = *storage[3];
    const core::SpliceTask task1{&storage[0]->hook, &x.hook, &x.hook};
    const core::SpliceTask task2{&storage[1]->hook, &y.hook, &y.hook};

    InterleavingSchedule schedule(options);
    schedule.spawn("worker-1", [&task1] { core::execute_splice(task1); });
    schedule.spawn("worker-2", [&task2] { core::execute_splice(task2); });
    const auto report = schedule.run();

    b.list().add_size(2);
    util::Status status = b.check_invariants(/*require_sorted=*/true);
    if (status.is_ok()) {
      std::vector<sched::Credit> actual;
      for (const sched::Vcpu& vcpu : b.list()) {
        actual.push_back(vcpu.credit);
      }
      if (actual != std::vector<sched::Credit>{0, 5, 10, 15}) {
        status = violation("disjoint-control: wrong final order");
      }
    }
    b.list().abandon_all();
    if (!report.completed) {
      return violation("disjoint-control: schedule hit the step cap");
    }
    return status;
  };

  ExplorerOptions base;
  base.seed = 1;
  base.change_point_horizon = 16;
  const auto result = ScheduleExplorer::explore(base, 200, run_disjoint);
  EXPECT_FALSE(result.violation_found)
      << "seed " << result.failing_seed << ": " << result.message;
  EXPECT_EQ(result.schedules_explored, 200u);
}

}  // namespace
}  // namespace horse::harness
