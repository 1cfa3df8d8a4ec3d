// The paper's headline on the product path: a kHorse start is no slower
// than a vanilla warm start when the two compete on equal footing. Two
// client threads each own one kHorse and one kWarm uLL function, all with
// the same vCPU count and all pausing onto the same two reserved queues
// (so both modes see the same queue occupancy). Each thread alternates
// between its two functions, so both modes also see the same thread
// placement; with one mode per thread, which thread shared a core with
// what decided the comparison in some runs. The start is measured from
// outside: wall time from the invoke call to the instant the function
// body begins, so modelled constants (dispatch overhead, per-vCPU tax)
// play no part. Four vCPUs, the top of the range the repository
// benchmark's uLL functions use, keeps the expected margin (~30%) well
// clear of run-to-run noise; at two vCPUs it is ~10%.
//
// Wall-clock comparison: runs serially (RUN_SERIAL) and skips under
// sanitizers, which distort the relative cost of the two paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "faas/platform.hpp"
#include "support/sanitizers.hpp"
#include "workloads/array_filter.hpp"

namespace horse::faas {
namespace {

/// Array filter that stamps the instant its body starts.
class StampedFilter final : public workloads::Function {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_.name();
  }
  [[nodiscard]] workloads::Category category() const noexcept override {
    return inner_.category();
  }
  workloads::Response invoke(const workloads::Request& request) override {
    started = util::monotonic_now();
    return inner_.invoke(request);
  }
  [[nodiscard]] util::Nanos nominal_duration() const noexcept override {
    return inner_.nominal_duration();
  }

  util::Nanos started = 0;

 private:
  workloads::ArrayFilterFunction inner_;
};

util::Nanos p50(std::vector<util::Nanos>& samples) {
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

TEST(HorseVsWarmTimingTest, HorseStartP50NoSlowerThanWarmAtEqualFooting) {
  HORSE_SKIP_TIMING_UNDER_SANITIZERS();
  constexpr std::uint32_t kVcpus = 4;
  constexpr int kWarmup = 200;
  constexpr int kInvokes = 2000;

  PlatformConfig config;
  config.num_cpus = 8;
  config.horse.num_ull_runqueues = 2;
  Platform platform(config);
  // One kHorse and one kWarm function per client thread. Each thread
  // alternates between its two, so both modes see the same thread
  // placement and the same neighbours at the same time.
  struct Arm {
    StartMode mode = StartMode::kHorse;
    std::shared_ptr<StampedFilter> body = std::make_shared<StampedFilter>();
    FunctionId id = 0;
    std::vector<util::Nanos> starts;
  };
  Arm arms[2][2];
  for (auto& client : arms) {
    client[1].mode = StartMode::kWarm;
    for (Arm& arm : client) {
      FunctionSpec spec;
      spec.name = "arm-" + std::to_string(platform.registry().size());
      spec.implementation = arm.body;
      spec.sandbox.name = spec.name;
      spec.sandbox.num_vcpus = kVcpus;
      spec.sandbox.memory_mb = 1;
      spec.sandbox.ull = true;
      arm.id = *platform.registry().add(std::move(spec));
      ASSERT_TRUE(platform.provision(arm.id, 4).is_ok());
    }
  }

  workloads::Request request;
  request.payload = {1, 5, 10};
  request.threshold = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (auto& client : arms) {
    clients.emplace_back([&platform, &request, &failures, &client] {
      for (int i = 0; i < kWarmup + kInvokes; ++i) {
        for (Arm& arm : client) {
          const util::Nanos sent = util::monotonic_now();
          const auto record = platform.invoke(arm.id, request, arm.mode);
          if (!record.has_value() || record->mode != arm.mode) {
            failures.fetch_add(1);
          } else if (i >= kWarmup) {
            arm.starts.push_back(arm.body->started - sent);
          }
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  ASSERT_EQ(failures.load(), 0);

  std::vector<util::Nanos> by_mode[2];
  for (auto& client : arms) {
    for (int m = 0; m < 2; ++m) {
      by_mode[m].insert(by_mode[m].end(), client[m].starts.begin(),
                        client[m].starts.end());
    }
  }
  const util::Nanos horse = p50(by_mode[0]);
  const util::Nanos warm = p50(by_mode[1]);
  EXPECT_LE(horse, warm) << "kHorse start p50 " << horse
                         << " ns vs kWarm start p50 " << warm << " ns";
  std::cout << "start p50: kHorse " << horse << " ns, kWarm " << warm
            << " ns (" << kVcpus << " vCPUs)\n";
}

}  // namespace
}  // namespace horse::faas
