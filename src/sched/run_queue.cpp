#include "sched/run_queue.hpp"

#include <string>

#include "sched/credit_scan.hpp"
#include "util/dcheck.hpp"
#include "util/yield_point.hpp"

namespace horse::sched {

void RunQueue::insert_sorted(Vcpu& vcpu) noexcept {
  auto it = queue_.begin();
  const auto end = queue_.end();
  while (it != end && it->credit <= vcpu.credit) {
    HORSE_YIELD_POINT("runq.insert_scan");
    ++it;
  }
  HORSE_YIELD_POINT("runq.insert_link");
  queue_.insert(it, vcpu);
  vcpu.state = VcpuState::kRunnable;
  vcpu.last_cpu = cpu_;
  HORSE_YIELD_POINT("runq.bump_version");
  bump_version();
  HORSE_DCHECK_OK(check_invariants(/*require_sorted=*/false));
}

std::size_t RunQueue::merge_sorted(VcpuList& incoming) noexcept {
  auto it = queue_.begin();
  const auto end = queue_.end();
  Credit prev_key = 0;
  bool first = true;
  std::size_t merged = 0;

  while (!incoming.empty()) {
    Vcpu& vcpu = incoming.pop_front();
    const Credit key = vcpu.credit;
    if (!first && key < prev_key) {
      // Out-of-order element: restart from the head so the placement (and
      // tie order) matches what insert_sorted() would have produced.
      it = queue_.begin();
    }
    while (it != end && it->credit <= key) {
      HORSE_YIELD_POINT("runq.merge_scan");
      // Pull the node after next into cache while we compare this one;
      // harmless when it resolves past the sentinel (prefetch never
      // faults).
      credit_scan::prefetch(VcpuList::from_hook(it->hook.next));
      ++it;
    }
    HORSE_YIELD_POINT("runq.merge_link");
    queue_.insert(it, vcpu);
    vcpu.state = VcpuState::kRunnable;
    vcpu.last_cpu = cpu_;
    prev_key = key;
    first = false;
    ++merged;
  }

  if (merged > 0) {
    HORSE_YIELD_POINT("runq.bump_version");
    bump_version(merged);
  }
  HORSE_DCHECK_OK(check_invariants(/*require_sorted=*/false));
  return merged;
}

void RunQueue::push_back(Vcpu& vcpu) noexcept {
  HORSE_YIELD_POINT("runq.push_back");
  queue_.push_back(vcpu);
  vcpu.state = VcpuState::kRunnable;
  vcpu.last_cpu = cpu_;
  bump_version();
  HORSE_DCHECK_OK(check_invariants(/*require_sorted=*/false));
}

void RunQueue::remove(Vcpu& vcpu) noexcept {
  HORSE_YIELD_POINT("runq.remove");
  queue_.erase(vcpu);
  bump_version();
  HORSE_DCHECK_OK(check_invariants(/*require_sorted=*/false));
}

Vcpu* RunQueue::pop_front() noexcept {
  if (queue_.empty()) {
    return nullptr;
  }
  HORSE_YIELD_POINT("runq.pop_front");
  Vcpu& vcpu = queue_.pop_front();
  bump_version();
  HORSE_DCHECK_OK(check_invariants(/*require_sorted=*/false));
  return &vcpu;
}

bool RunQueue::is_sorted() const noexcept {
  // const_cast is confined to iteration; the list is logically const here.
  auto& list = const_cast<VcpuList&>(queue_);
  Credit prev = 0;
  bool first = true;
  for (const Vcpu& vcpu : list) {
    if (!first && vcpu.credit < prev) {
      return false;
    }
    prev = vcpu.credit;
    first = false;
  }
  return true;
}

util::Status RunQueue::check_invariants(bool require_sorted) const noexcept {
  // const_cast confined to hook traversal, as in is_sorted().
  auto& list = const_cast<VcpuList&>(queue_);
  const util::ListHook* sentinel = list.sentinel();
  const std::size_t declared = queue_.size();

  const util::ListHook* node = sentinel->next;
  const util::ListHook* prev = sentinel;
  std::size_t walked = 0;
  Credit last_credit = 0;
  bool first = true;
  // Allow exactly `declared` hops before we must be back at the sentinel;
  // anything longer is a cycle or a foreign chain spliced in twice.
  while (node != sentinel) {
    if (node == nullptr) {
      return {util::StatusCode::kInternal,
              "runq invariant: null hook reached after " +
                  std::to_string(walked) + " hops (chain escaped the ring)"};
    }
    if (node->prev != prev) {
      return {util::StatusCode::kInternal,
              "runq invariant: prev/next asymmetry at hop " +
                  std::to_string(walked)};
    }
    if (walked >= declared) {
      return {util::StatusCode::kInternal,
              "runq invariant: walk exceeds declared size " +
                  std::to_string(declared) + " (cycle or lost add_size)"};
    }
    const Vcpu* vcpu = VcpuList::from_hook(const_cast<util::ListHook*>(node));
    if (require_sorted && !first && vcpu->credit < last_credit) {
      return {util::StatusCode::kInternal,
              "runq invariant: credit order violated at hop " +
                  std::to_string(walked)};
    }
    last_credit = vcpu->credit;
    first = false;
    ++walked;
    prev = node;
    node = node->next;
  }
  if (sentinel->prev != prev) {
    return {util::StatusCode::kInternal,
            "runq invariant: sentinel->prev does not close the ring"};
  }
  if (walked != declared) {
    return {util::StatusCode::kInternal,
            "runq invariant: walked " + std::to_string(walked) +
                " nodes but size() is " + std::to_string(declared) +
                " (lost or duplicated nodes)"};
  }
  if (declared > 0 && version() == 0) {
    return {util::StatusCode::kInternal,
            "runq invariant: non-empty queue with version 0 (mutation "
            "did not bump the version counter)"};
  }
  return util::Status::ok();
}

double RunQueue::update_load_enqueue() noexcept {
  util::LockGuard guard(load_lock_);
  HORSE_YIELD_POINT("runq.load_enqueue");
  load_ = pelt_.apply_once(load_);
  return load_;
}

double RunQueue::update_load_coalesced(std::uint32_t n) noexcept {
  util::LockGuard guard(load_lock_);
  HORSE_YIELD_POINT("runq.load_coalesced");
  load_ = pelt_.apply_closed_form(load_, n);
  return load_;
}

double RunQueue::apply_precomputed_load(double alpha_n,
                                        double beta_geo_sum) noexcept {
  util::LockGuard guard(load_lock_);
  HORSE_YIELD_POINT("runq.load_fma");
  load_ = alpha_n * load_ + beta_geo_sum;
  return load_;
}

void RunQueue::decay_load(std::uint32_t periods) noexcept {
  util::LockGuard guard(load_lock_);
  load_ = pelt_.decay(load_, periods);
}

double RunQueue::load() const noexcept {
  util::LockGuard guard(load_lock_);
  return load_;
}

void RunQueue::set_load_for_test(double load) noexcept {
  util::LockGuard guard(load_lock_);
  load_ = load;
}

}  // namespace horse::sched
