// A function body that blocks until the test releases it, so a task stays
// in flight (inside its shard's mutex) across whatever the test does next,
// without a bet on how long the body takes to run.
#pragma once

#include <atomic>
#include <chrono>
#include <string_view>
#include <thread>

#include "workloads/function.hpp"

namespace horse::cluster::test_harness {

class HeldFunction final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "held";
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return workloads::Category::kBackground;
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return util::kMillisecond;
  }
  workloads::Response invoke(const workloads::Request&) override {
    entered_.fetch_add(1, std::memory_order_acq_rel);
    released_.wait(false, std::memory_order_acquire);
    workloads::Response response;
    response.allowed = true;
    return response;
  }

  /// Wait (bounded) until `count` bodies have started.
  [[nodiscard]] bool wait_entered(int count) const {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (entered_.load(std::memory_order_acquire) < count) {
      if (std::chrono::steady_clock::now() > give_up) {
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }
  void release() {
    released_.store(true, std::memory_order_release);
    released_.notify_all();
  }

 private:
  std::atomic<int> entered_{0};
  std::atomic<bool> released_{false};
};

}  // namespace horse::cluster::test_harness
