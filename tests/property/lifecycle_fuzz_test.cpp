// Lifecycle fuzzing: random operation sequences against the HORSE engine,
// checked against a trivial reference state machine. Any divergence —
// an op succeeding that should fail, failing that should succeed, or a
// broken queue invariant afterwards — is a bug in the engine's state
// handling that directed tests are unlikely to reach.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/horse_resume.hpp"
#include "util/rng.hpp"

namespace horse {
namespace {

enum class Op : std::uint8_t {
  kStart,
  kPause,
  kResume,
  kHotplug,
  kUnplug,
  kDestroy,
  kCount,
};

/// Reference model: what state each sandbox should be in.
struct Model {
  vmm::SandboxState state = vmm::SandboxState::kCreated;
  std::uint32_t vcpus = 0;
};

class LifecycleFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LifecycleFuzzTest, RandomOpSequencesMatchModel) {
  util::Xoshiro256 rng(GetParam());
  sched::CpuTopology topology(6);
  core::HorseResumeEngine engine(topology, vmm::VmmProfile::firecracker());

  constexpr int kSandboxes = 4;
  std::vector<std::unique_ptr<vmm::Sandbox>> sandboxes;
  std::vector<Model> models(kSandboxes);
  for (int i = 0; i < kSandboxes; ++i) {
    vmm::SandboxConfig config;
    config.name = "fuzz";
    config.num_vcpus = 1 + static_cast<std::uint32_t>(rng.bounded(4));
    config.memory_mb = 1;
    config.ull = rng.bounded(2) == 0;
    models[static_cast<std::size_t>(i)].vcpus = config.num_vcpus;
    sandboxes.push_back(std::make_unique<vmm::Sandbox>(
        static_cast<sched::SandboxId>(i + 1), config));
  }

  auto expected_ok = [](const Model& model, Op op) {
    switch (op) {
      case Op::kStart:
        return model.state == vmm::SandboxState::kCreated;
      case Op::kPause:
        return model.state == vmm::SandboxState::kRunning;
      case Op::kResume:
        return model.state == vmm::SandboxState::kPaused;
      case Op::kHotplug:
        return model.state == vmm::SandboxState::kPaused;
      case Op::kUnplug:
        return model.state == vmm::SandboxState::kPaused && model.vcpus > 1;
      case Op::kDestroy:
        return model.state != vmm::SandboxState::kDestroyed;
      default:
        return true;
    }
  };

  for (int step = 0; step < 400; ++step) {
    const auto victim = rng.bounded(kSandboxes);
    const auto op = static_cast<Op>(rng.bounded(static_cast<std::uint64_t>(Op::kCount)));
    vmm::Sandbox& sandbox = *sandboxes[victim];
    Model& model = models[victim];

    util::Status status;
    switch (op) {
      case Op::kStart: status = engine.start(sandbox); break;
      case Op::kPause: status = engine.pause(sandbox); break;
      case Op::kResume: status = engine.resume(sandbox); break;
      case Op::kHotplug: status = engine.hotplug_vcpu(sandbox); break;
      case Op::kUnplug: status = engine.unplug_vcpu(sandbox); break;
      case Op::kDestroy: status = engine.destroy(sandbox); break;
      case Op::kCount: continue;
    }

    ASSERT_EQ(status.is_ok(), expected_ok(model, op))
        << "seed " << GetParam() << " step " << step << " op "
        << static_cast<int>(op) << " sandbox " << victim << " in state "
        << to_string(model.state) << ": " << status.to_report();

    if (status.is_ok()) {
      switch (op) {
        case Op::kStart: model.state = vmm::SandboxState::kRunning; break;
        case Op::kPause: model.state = vmm::SandboxState::kPaused; break;
        case Op::kResume: model.state = vmm::SandboxState::kRunning; break;
        case Op::kHotplug: ++model.vcpus; break;
        case Op::kUnplug: --model.vcpus; break;
        case Op::kDestroy: model.state = vmm::SandboxState::kDestroyed; break;
        default: break;
      }
    }

    // Engine/model agreement and structural invariants.
    ASSERT_EQ(sandbox.state(), model.state);
    ASSERT_EQ(sandbox.num_vcpus(), model.vcpus);
    for (sched::CpuId cpu = 0; cpu < topology.num_cpus(); ++cpu) {
      ASSERT_TRUE(topology.queue(cpu).is_sorted()) << "cpu " << cpu;
    }
    // Global vCPU conservation: every non-destroyed sandbox's vCPUs are
    // either queued (running) or parked (paused).
    std::size_t queued = 0;
    for (sched::CpuId cpu = 0; cpu < topology.num_cpus(); ++cpu) {
      queued += topology.queue(cpu).size();
    }
    std::size_t expected_queued = 0;
    for (int i = 0; i < kSandboxes; ++i) {
      const Model& m = models[static_cast<std::size_t>(i)];
      if (m.state == vmm::SandboxState::kRunning) {
        expected_queued += m.vcpus;
      }
      if (m.state == vmm::SandboxState::kPaused) {
        ASSERT_EQ(sandboxes[static_cast<std::size_t>(i)]->merge_vcpus().size(),
                  m.vcpus);
      }
    }
    ASSERT_EQ(queued, expected_queued) << "seed " << GetParam() << " step "
                                       << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LifecycleFuzzTest,
                         ::testing::Values(1u, 7u, 42u, 99u, 1234u, 77777u,
                                           31337u, 2024u));

}  // namespace
}  // namespace horse
