#include "core/ull_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/spinlock.hpp"

namespace horse::core {

namespace {
/// Registry mutation and engine binding happen under this metered guard.
using ManagerLock = metrics::MeteredLock<std::mutex>;
constexpr std::uint32_t kUnassigned = vmm::UllSlot::kUnassigned;
constexpr sched::CpuId kUntracked = TrackedNode::kUntracked;

std::vector<sched::CpuId> reserve_top_cpus(sched::CpuTopology& topology,
                                           const HorseConfig& config) {
  config.validate();
  if (config.num_ull_runqueues >= topology.num_cpus()) {
    throw std::invalid_argument("UllRunQueueManager: cannot reserve every CPU");
  }
  std::vector<sched::CpuId> cpus;
  const auto n = static_cast<sched::CpuId>(topology.num_cpus());
  for (sched::CpuId i = 0; i < config.num_ull_runqueues; ++i) {
    const sched::CpuId cpu = n - 1 - i;
    topology.reserve_for_ull(cpu);
    cpus.push_back(cpu);
  }
  return cpus;
}
}  // namespace

UllRunQueueManager::UllRunQueueManager(sched::CpuTopology& topology,
                                       const HorseConfig& config)
    : topology_(topology),
      branchless_walk_(config.branchless_walk),
      ull_cpus_(reserve_top_cpus(topology, config)),
      occupancy_(ull_cpus_.size()),
      engines_(ull_cpus_.size()) {}

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
  std::size_t best = 0;
  std::size_t best_count = occupancy_[0].load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < occupancy_.size(); ++i) {
    const std::size_t count = occupancy_[i].load(std::memory_order_relaxed);
    if (count < best_count) {
      best = i;
      best_count = count;
    }
  }
  occupancy_[best].value.fetch_add(1);
  slot.queue = static_cast<std::uint32_t>(best);
  return ull_cpus_[best];
}

util::Expected<sched::CpuId> UllRunQueueManager::assignment(
    const vmm::Sandbox& sandbox) const {
  const std::uint32_t queue = sandbox.ull_slot().queue;
  if (queue == kUnassigned) {
    return util::Status{util::StatusCode::kNotFound,
                        "ull: sandbox has no queue assignment"};
  }
  return ull_cpus_[queue];
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
  const sched::CpuId cpu = ull_cpus_[slot.queue];
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
  topology_.queue(node->home).epoch().retire(&node->retire);
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
  if (epoch_pin != nullptr && sandbox.ull_slot().node != nullptr) {
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
  if (queue != kUnassigned) {
    return engines_[queue].load(std::memory_order_acquire);
  }
  // Unassigned sandbox: any bound engine is correct — its step-② lock is
  // wider than necessary, never narrower.
  for (const auto& bound : engines_) {
    if (HorseResumeEngine* engine = bound.load(std::memory_order_acquire)) {
      return engine;
    }
  }
  return nullptr;
}

std::size_t UllRunQueueManager::total_index_bytes() const {
  ManagerLock lock(mutex_, meter_);
  std::size_t total = 0;
  for (const TrackedNode& node : nodes_) {
    const sched::CpuId cpu = node.tracked_on.load(std::memory_order_relaxed);
    if (cpu == kUntracked) {
      continue;
    }
    util::LockGuard guard(topology_.queue(cpu).lock());
    // A resume or re-pause may have moved the node since the load above.
    if (node.tracked_on.load(std::memory_order_relaxed) == cpu) {
      total += node.index.memory_bytes() + sizeof(TrackedNode);
    }
  }
  return total;
}

}  // namespace horse::core
