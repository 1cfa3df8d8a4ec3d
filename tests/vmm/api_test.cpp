#include "vmm/api.hpp"

#include <gtest/gtest.h>

#include "core/horse_resume.hpp"

namespace horse::vmm {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : topology_(4),
        engine_(topology_, VmmProfile::firecracker()),
        api_(engine_) {}

  sched::CpuTopology topology_;
  core::HorseResumeEngine engine_;
  ApiServer api_;
};

TEST_F(ApiTest, FullLifecycleThroughCommands) {
  EXPECT_TRUE(api_.handle("create id=1 vcpus=2 memory_mb=4").ok());
  EXPECT_EQ(api_.sandbox_count(), 1u);
  EXPECT_TRUE(api_.handle("start id=1").ok());
  EXPECT_TRUE(api_.handle("pause id=1").ok());
  const auto resumed = api_.handle("resume id=1");
  EXPECT_TRUE(resumed.ok());
  EXPECT_NE(resumed.body.find("resumed in"), std::string::npos);
  const auto state = api_.handle("state id=1");
  EXPECT_EQ(state.body, "running vcpus=2");
  EXPECT_TRUE(api_.handle("destroy id=1").ok());
  EXPECT_EQ(api_.sandbox_count(), 0u);
}

TEST_F(ApiTest, UllFlagRoutesToFastPath) {
  ASSERT_TRUE(api_.handle("create id=5 vcpus=3 memory_mb=1 ull").ok());
  ASSERT_TRUE(api_.handle("start id=5").ok());
  ASSERT_TRUE(api_.handle("pause id=5").ok());
  // Fast-path state was installed by the HORSE engine's pause.
  EXPECT_NE(engine_.ull_manager().index_of(*api_.find(5)), nullptr);
  ASSERT_TRUE(api_.handle("resume id=5").ok());
  EXPECT_EQ(topology_.queue(3).size(), 3u);  // reserved queue
}

TEST_F(ApiTest, HotplugCommands) {
  ASSERT_TRUE(api_.handle("create id=2 vcpus=1 memory_mb=1 ull").ok());
  ASSERT_TRUE(api_.handle("start id=2").ok());
  ASSERT_TRUE(api_.handle("pause id=2").ok());
  EXPECT_TRUE(api_.handle("hotplug id=2").ok());
  EXPECT_TRUE(api_.handle("hotplug id=2").ok());
  EXPECT_EQ(api_.handle("state id=2").body, "paused vcpus=3");
  EXPECT_TRUE(api_.handle("unplug id=2").ok());
  EXPECT_EQ(api_.handle("state id=2").body, "paused vcpus=2");
}

TEST_F(ApiTest, ListShowsAllSandboxes) {
  EXPECT_EQ(api_.handle("list").body, "(none)");
  ASSERT_TRUE(api_.handle("create id=1 vcpus=1 memory_mb=1").ok());
  ASSERT_TRUE(api_.handle("create id=2 vcpus=1 memory_mb=1").ok());
  ASSERT_TRUE(api_.handle("start id=2").ok());
  const auto list = api_.handle("list");
  EXPECT_NE(list.body.find("1:created"), std::string::npos);
  EXPECT_NE(list.body.find("2:running"), std::string::npos);
}

TEST_F(ApiTest, MalformedCommandsRejected) {
  for (const char* bad : {
           "",                                   // empty
           "create vcpus=1 memory_mb=1",         // missing id
           "create id=1 vcpus=abc memory_mb=1",  // non-numeric
           "create id=1 vcpus=1",                // missing memory
           "frobnicate id=1",                    // unknown verb (needs id ok)
           "start id=99",                        // unknown sandbox
           "start",                              // missing id
           "create id=1 vcpus=1 memory_mb=1 =x", // malformed key=value
       }) {
    EXPECT_FALSE(api_.handle(bad).ok()) << "'" << bad << "'";
  }
}

TEST_F(ApiTest, DuplicateIdRejected) {
  ASSERT_TRUE(api_.handle("create id=1 vcpus=1 memory_mb=1").ok());
  const auto dup = api_.handle("create id=1 vcpus=1 memory_mb=1");
  EXPECT_EQ(dup.status.code(), util::StatusCode::kAlreadyExists);
}

TEST_F(ApiTest, InvalidConfigSurfacesAsStatus) {
  const auto zero = api_.handle("create id=1 vcpus=0 memory_mb=1");
  EXPECT_EQ(zero.status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(api_.sandbox_count(), 0u);
}

TEST_F(ApiTest, LifecycleErrorsPropagate) {
  ASSERT_TRUE(api_.handle("create id=1 vcpus=1 memory_mb=1").ok());
  // Resume before start: the engine's precondition failure flows through.
  EXPECT_EQ(api_.handle("resume id=1").status.code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(api_.handle("pause id=1").status.code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(ApiTest, DestructorCleansUpLiveSandboxes) {
  sched::CpuTopology topology(2);
  ResumeEngine engine(topology, VmmProfile::firecracker());
  {
    ApiServer api(engine);
    ASSERT_TRUE(api.handle("create id=1 vcpus=2 memory_mb=1").ok());
    ASSERT_TRUE(api.handle("start id=1").ok());
    EXPECT_EQ(topology.queue(0).size() + topology.queue(1).size(), 2u);
  }  // ApiServer destruction destroys the running sandbox
  EXPECT_EQ(topology.queue(0).size() + topology.queue(1).size(), 0u);
}

}  // namespace
}  // namespace horse::vmm
