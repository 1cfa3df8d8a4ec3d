#include "core/ull_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/spinlock.hpp"

namespace horse::core {

namespace {
/// Registry and reserved-set mutation happens under this metered guard.
using ManagerLock = metrics::MeteredLock<std::mutex>;
constexpr std::uint32_t kUnassigned = vmm::UllSlot::kUnassigned;
constexpr sched::CpuId kUntracked = TrackedNode::kUntracked;
}  // namespace

UllRunQueueManager::UllRunQueueManager(sched::CpuTopology& topology,
                                       const HorseConfig& config)
    : topology_(topology),
      epoch_reclaim_(config.epoch_reclaim),
      branchless_walk_(config.branchless_walk) {
  config.validate();
  if (config.num_ull_runqueues >= topology.num_cpus() ||
      config.num_ull_runqueues > kMaxQueues) {
    throw std::invalid_argument(
        "UllRunQueueManager: cannot reserve every CPU (or > kMaxQueues)");
  }
  const auto n = static_cast<sched::CpuId>(topology.num_cpus());
  for (sched::CpuId i = 0; i < config.num_ull_runqueues; ++i) {
    const sched::CpuId cpu = n - 1 - i;
    topology.reserve_for_ull(cpu);
    reserved_[i].store(cpu, std::memory_order_relaxed);
    ull_cpus_.push_back(cpu);
  }
  num_reserved_.store(ull_cpus_.size());
}

UllRunQueueManager::~UllRunQueueManager() {
  // Live nodes are owned by the registry; retired ones by the queue
  // reclaimers. Drain the latter too — by the time the manager dies the
  // platform guarantees no resume is in flight, so no reader can be
  // pinned, and leaving garbage for the topology's (later) destruction
  // would just hide leaks from the sanitizer runs.
  while (!nodes_.empty()) {
    delete &nodes_.pop_front();
  }
  for (const sched::CpuId cpu : ull_cpus_) {
    topology_.queue(cpu).epoch().drain();
  }
}

void UllRunQueueManager::release_slot(vmm::UllSlot& slot) noexcept {
  if (slot.queue != kUnassigned) {
    occupancy_[slot.queue].value.fetch_sub(1, std::memory_order_release);
    slot.queue = kUnassigned;
  }
}

sched::CpuId UllRunQueueManager::assign(vmm::Sandbox& sandbox) {
  vmm::UllSlot& slot = sandbox.ull_slot();
  // Re-assign without an intervening untrack releases the old slot first,
  // so the counters always sum to the number of assigned sandboxes.
  release_slot(slot);
  while (true) {
    const std::size_t n = num_reserved_.load();
    std::size_t best = 0;
    std::size_t best_count = occupancy_[0].load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t count = occupancy_[i].load(std::memory_order_relaxed);
      if (count < best_count) {
        best = i;
        best_count = count;
      }
    }
    occupancy_[best].value.fetch_add(1);
    // shrink() hides its victim before it re-checks the victim's counter
    // (both sides sequentially consistent): either it sees this increment
    // and keeps the queue, or this re-check sees the shorter set and the
    // choice is made again.
    if (best < num_reserved_.load()) {
      slot.queue = static_cast<std::uint32_t>(best);
      return reserved_[best].load(std::memory_order_relaxed);
    }
    occupancy_[best].value.fetch_sub(1);
  }
}

util::Expected<sched::CpuId> UllRunQueueManager::assignment(
    const vmm::Sandbox& sandbox) const {
  const std::uint32_t queue = sandbox.ull_slot().queue;
  if (queue == kUnassigned) {
    return util::Status{util::StatusCode::kNotFound,
                        "ull: sandbox has no queue assignment"};
  }
  return reserved_[queue].load(std::memory_order_relaxed);
}

util::Status UllRunQueueManager::track(vmm::Sandbox& sandbox) {
  vmm::UllSlot& slot = sandbox.ull_slot();
  if (slot.queue == kUnassigned) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: assign() before track()"};
  }
  if (sandbox.merge_vcpus().size() == 0) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: sandbox has no parked vCPUs (not paused?)"};
  }
  const sched::CpuId cpu = reserved_[slot.queue].load(std::memory_order_relaxed);
  TrackedNode* node = slot.node;
  if (node == nullptr) {
    // Node birth: the sandbox's one allocation, made visible to the
    // reporting walks under the manager mutex.
    node = new TrackedNode;
    node->sandbox = &sandbox;
    node->index.set_branchless(branchless_walk_);
    {
      ManagerLock lock(mutex_, meter_);
      nodes_.push_back(*node);
    }
    slot.node = node;
  } else if (const sched::CpuId old = node->tracked_on.load(
                 std::memory_order_relaxed);
             old != kUntracked) {
    // Re-track without an intervening resume: leave the old queue first.
    util::LockGuard guard(topology_.queue(old).lock());
    node->tracked_on.store(kUntracked, std::memory_order_relaxed);
  }
  node->home = cpu;
  {
    // The build reads the target queue's structure; hold its lock so a
    // concurrent resume splicing into the same queue cannot interleave.
    sched::RunQueue& queue = topology_.queue(cpu);
    util::LockGuard guard(queue.lock());
    node->index.rebuild(sandbox.merge_vcpus(), queue);
    node->tracked_on.store(cpu, std::memory_order_relaxed);
  }
  // Pause-time maintenance is where retired garbage gets freed — off the
  // resume path, holding neither the manager mutex nor any queue lock.
  // With nothing pending it leaves the epoch alone, so the resumes' pins
  // keep reading an unchanged counter.
  util::EpochReclaimer& epoch = topology_.queue(cpu).epoch();
  if (epoch.pending() != 0) {
    (void)epoch.try_reclaim();
  }
  return util::Status::ok();
}

void UllRunQueueManager::untrack_locked(vmm::Sandbox& sandbox) noexcept {
  vmm::UllSlot& slot = sandbox.ull_slot();
  if (slot.node != nullptr) {
    slot.node->tracked_on.store(kUntracked, std::memory_order_relaxed);
  }
  release_slot(slot);
}

void UllRunQueueManager::untrack(vmm::Sandbox& sandbox) {
  const TrackedNode* node = sandbox.ull_slot().node;
  const sched::CpuId cpu =
      node != nullptr ? node->tracked_on.load(std::memory_order_relaxed)
                      : kUntracked;
  if (cpu == kUntracked) {
    release_slot(sandbox.ull_slot());
    return;
  }
  util::LockGuard guard(topology_.queue(cpu).lock());
  untrack_locked(sandbox);
}

void UllRunQueueManager::release(vmm::Sandbox& sandbox) {
  vmm::UllSlot& slot = sandbox.ull_slot();
  release_slot(slot);
  TrackedNode* node = std::exchange(slot.node, nullptr);
  if (node == nullptr) {
    return;
  }
  {
    // Reporting reads nodes only while holding this mutex, so unlinking
    // under it hides the node from them without a queue lock.
    ManagerLock lock(mutex_, meter_);
    nodes_.erase(*node);
  }
  // A resume that pinned this queue's epoch in lookup() before this
  // retirement keeps the node alive until it unpins.
  if (epoch_reclaim_) {
    topology_.queue(node->home).epoch().retire(&node->retire);
  } else {
    delete node;
  }
}

template <typename Visit>
void UllRunQueueManager::for_each_tracked_locked(Visit&& visit) const {
  for (TrackedNode& node : nodes_) {
    const sched::CpuId cpu = node.tracked_on.load(std::memory_order_relaxed);
    if (cpu == kUntracked) {
      continue;
    }
    sched::RunQueue& queue = topology_.queue(cpu);
    util::LockGuard guard(queue.lock());
    // A resume or re-pause may have moved the node since the load above.
    if (node.tracked_on.load(std::memory_order_relaxed) == cpu) {
      visit(node, queue);
    }
  }
}

std::size_t UllRunQueueManager::refresh() {
  std::size_t refreshed = 0;
  {
    ManagerLock lock(mutex_, meter_);
    for_each_tracked_locked([&](TrackedNode& node, sched::RunQueue& queue) {
      P2smIndex& index = node.index;
      if (index.fresh(queue) && !index.poisoned()) {
        return;
      }
      ++refreshed;
      // Incremental first: replay the queue's mutation journal in
      // O(runs + delta). This is what kills the rebuild storm — N
      // co-resident indexes used to pay O(N·(|A|+|B|)) per queue mutation.
      if (index.built() && !index.poisoned() &&
          index.repair(node.sandbox->merge_vcpus(), queue).is_ok()) {
        return;
      }
      // Journal gap, poisoning, or a failed audit: the O(|A|+|B|) fallback
      // cures every repair failure mode.
      index.rebuild(node.sandbox->merge_vcpus(), queue);
    });
  }
  // The refresh sweep doubles as the reclaim pump for every reserved
  // queue (refresh runs from ticks/deferred-refresh, never from the
  // timed resume window).
  const std::size_t n = num_reserved_.load();
  for (std::size_t i = 0; i < n; ++i) {
    (void)topology_.queue(reserved_[i].load(std::memory_order_relaxed))
        .epoch()
        .try_reclaim();
  }
  return refreshed;
}

P2smIndex* UllRunQueueManager::index_of(
    const vmm::Sandbox& sandbox) const noexcept {
  TrackedNode* node = sandbox.ull_slot().node;
  return node != nullptr &&
                 node->tracked_on.load(std::memory_order_relaxed) != kUntracked
             ? &node->index
             : nullptr;
}

util::Expected<UllRunQueueManager::LookupResult> UllRunQueueManager::lookup(
    vmm::Sandbox& sandbox,
    std::optional<util::EpochReclaimer::ReadGuard>* epoch_pin) {
  const auto cpu = assignment(sandbox);
  if (!cpu) {
    return cpu.status();
  }
  // Pin before the node is dereferenced. Nodes are retired only by
  // release(), to the queue they were last built against — the assigned
  // queue pinned here. Pin/unpin are two lock-free atomics.
  if (epoch_pin != nullptr && epoch_reclaim_ &&
      sandbox.ull_slot().node != nullptr) {
    epoch_pin->emplace(topology_.queue(*cpu).epoch());
  }
  return LookupResult{*cpu, index_of(sandbox)};
}

std::size_t UllRunQueueManager::tracked_count() const {
  return snapshot().tracked;
}

UllRunQueueManager::ManagerSnapshot UllRunQueueManager::snapshot() const {
  ManagerLock lock(mutex_, meter_);
  ManagerSnapshot out;
  out.occupancy.reserve(ull_cpus_.size());
  for (std::size_t i = 0; i < ull_cpus_.size(); ++i) {
    out.occupancy.push_back({ull_cpus_[i], occupancy_[i].load()});
  }
  out.contention = meter_.snapshot();
  for (const TrackedNode& node : nodes_) {
    out.tracked += node.tracked_on.load(std::memory_order_relaxed) !=
                   kUntracked;
  }
  return out;
}

void UllRunQueueManager::bind_engine(sched::CpuId cpu,
                                     HorseResumeEngine* engine) {
  ManagerLock lock(mutex_, meter_);
  const auto it = std::find(ull_cpus_.begin(), ull_cpus_.end(), cpu);
  if (it == ull_cpus_.end()) {
    throw std::invalid_argument("ull: bind_engine on a non-reserved cpu");
  }
  engines_[it - ull_cpus_.begin()].store(engine, std::memory_order_release);
}

void UllRunQueueManager::unbind_engine(const HorseResumeEngine* engine) {
  ManagerLock lock(mutex_, meter_);
  for (auto& bound : engines_) {
    if (bound.load(std::memory_order_relaxed) == engine) {
      bound.store(nullptr, std::memory_order_release);
    }
  }
}

HorseResumeEngine* UllRunQueueManager::engine_for_sandbox(
    const vmm::Sandbox& sandbox) const noexcept {
  const std::uint32_t queue = sandbox.ull_slot().queue;
  HorseResumeEngine* engine =
      queue != kUnassigned ? engines_[queue].load(std::memory_order_acquire)
                           : nullptr;
  // Unassigned sandbox, or a queue grown after engine construction: any
  // bound engine is correct — its step-② lock is wider than necessary,
  // never narrower.
  for (std::size_t i = 0; engine == nullptr && i < num_reserved_.load(); ++i) {
    engine = engines_[i].load(std::memory_order_acquire);
  }
  return engine;
}

util::Status UllRunQueueManager::grow() {
  ManagerLock lock(mutex_, meter_);
  // Reserved queues are allocated downward from the top CPU; the next
  // candidate is just below the last one we hold.
  const sched::CpuId candidate = ull_cpus_.back() - 1;
  if (ull_cpus_.size() + 1 >= topology_.num_cpus() ||
      ull_cpus_.size() == kMaxQueues || candidate == 0 ||
      topology_.is_reserved(candidate)) {
    return {util::StatusCode::kResourceExhausted,
            "ull: cannot reserve another queue"};
  }
  topology_.reserve_for_ull(candidate);
  reserved_[ull_cpus_.size()].store(candidate, std::memory_order_relaxed);
  ull_cpus_.push_back(candidate);
  num_reserved_.store(ull_cpus_.size());  // publishes the entry above
  return util::Status::ok();
}

util::Status UllRunQueueManager::shrink() {
  ManagerLock lock(mutex_, meter_);
  if (ull_cpus_.size() <= 1) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: at least one ull_runqueue must remain"};
  }
  const std::size_t victim = ull_cpus_.size() - 1;
  const util::Status busy{
      util::StatusCode::kFailedPrecondition,
      "ull: paused sandboxes still assigned to the victim queue"};
  if (occupancy_[victim].load() != 0) {
    return busy;
  }
  if (!topology_.queue(ull_cpus_.back()).empty()) {
    return {util::StatusCode::kFailedPrecondition,
            "ull: victim queue still has runnable uLL vCPUs"};
  }
  // Hide the victim from assign(), then re-check: an assign that chose it
  // before the hide shows up in its counter now.
  num_reserved_.store(victim);
  if (occupancy_[victim].load() != 0) {
    num_reserved_.store(victim + 1);
    return busy;
  }
  topology_.unreserve(ull_cpus_.back());
  ull_cpus_.pop_back();
  return util::Status::ok();
}

std::size_t UllRunQueueManager::total_index_bytes() const {
  ManagerLock lock(mutex_, meter_);
  std::size_t total = 0;
  for_each_tracked_locked([&](const TrackedNode& node, sched::RunQueue&) {
    total += node.index.memory_bytes() + sizeof(TrackedNode);
  });
  return total;
}

}  // namespace horse::core
