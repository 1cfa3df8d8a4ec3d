// The cluster decision core, driven directly in virtual time: no threads,
// no sleeps, no hosts. The 1024-seed lease-detector sweep draws, per host,
// a schedule of progress, stalls, crashes and restarts, sweeps it at
// random instants exactly the way ClusterScheduler::check_health drives
// the detector, and checks every verdict against the lease rules. Ledger,
// router and admission cases pin the rest of the core.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/decision_core.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace horse::cluster {
namespace {

constexpr std::uint64_t kSeeds = 1024;
constexpr std::size_t kHosts = 4;
constexpr std::size_t kSweeps = 96;

/// One host as the detector's caller sees it.
struct ModelHost {
  bool in_rotation = true;
  bool crashed = false;
  bool stalled = false;
  std::uint64_t completed = 0;
  /// Consecutive kMiss verdicts since the last renewal or rejoin.
  std::size_t misses = 0;
};

struct Verdict {
  std::size_t sweep = 0;
  HostId host = 0;
  /// A LeaseVerdict, or kProbeOk / kProbeFailed for a half-open probe.
  int kind = 0;
  util::Nanos next_probe = 0;

  bool operator==(const Verdict&) const = default;
};

constexpr int kProbeOk = 100;
constexpr int kProbeFailed = 101;

struct SweepTally {
  std::uint64_t deaths = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t failed_probes = 0;
};

FailureDetectorConfig config_for(util::Xoshiro256& rng) {
  FailureDetectorConfig config;
  // lease 0 makes every no-progress sweep of a silent host a miss.
  config.lease_duration =
      static_cast<util::Nanos>(rng.bounded(4)) * util::kMillisecond;
  config.missed_to_death = 1 + rng.bounded(5);
  config.probe_backoff_base =
      static_cast<util::Nanos>(1 + rng.bounded(2000)) * util::kMicrosecond;
  config.probe_backoff_cap =
      config.probe_backoff_base +
      static_cast<util::Nanos>(rng.bounded(20)) * util::kMillisecond;
  return config;
}

/// One seed's run; every verdict is checked as it is produced, and the
/// verdict sequence is returned for the replay check.
std::vector<Verdict> run_seed(std::uint64_t seed, SweepTally& tally) {
  util::Xoshiro256 rng(seed * 0x9e37'79b9'7f4a'7c15ULL + 17);
  const FailureDetectorConfig config = config_for(rng);
  LeaseDetector detector(kHosts, config, seed);
  std::vector<ModelHost> hosts(kHosts);
  std::vector<Verdict> verdicts;
  util::Nanos now = 0;
  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    // Random sweep instants: sometimes the same instant twice, sometimes
    // well past a lease.
    now += static_cast<util::Nanos>(
        rng.bounded(static_cast<std::uint64_t>(2 * config.lease_duration +
                                               util::kMillisecond)));
    for (HostId id = 0; id < kHosts; ++id) {
      ModelHost& host = hosts[id];
      // The host's own schedule between sweeps.
      if (!host.crashed && rng.uniform01() < 0.06) {
        host.crashed = true;
      } else if (host.crashed && rng.uniform01() < 0.15) {
        host.crashed = false;  // restart(): answers probes again
      }
      if (!host.stalled && host.in_rotation && rng.uniform01() < 0.03) {
        host.stalled = true;
      }
      if (!host.crashed && !host.stalled) {
        host.completed += rng.bounded(3);
      } else if (host.crashed && rng.uniform01() < 0.1) {
        ++host.completed;  // a zombie completion still lands
      }
      const std::string where = "seed " + std::to_string(seed) + " sweep " +
                                std::to_string(sweep) + " host " +
                                std::to_string(id);

      if (!host.in_rotation) {
        if (!detector.probe_due(id, now)) {
          continue;
        }
        // Host::probe(): a live host clears its stall and answers.
        const bool answered = !host.crashed;
        if (answered) {
          host.stalled = false;
          host.in_rotation = true;
          host.misses = 0;
        }
        detector.probe_result(id, now, answered, host.completed);
        const HostLease& lease = detector.lease(id);
        if (answered) {
          ++tally.rejoins;
          EXPECT_EQ(lease.missed, 0u) << where;
          EXPECT_EQ(lease.probe_streak, 0u) << where;
          EXPECT_EQ(lease.last_completed, host.completed) << where;
        } else {
          ++tally.failed_probes;
          EXPECT_GE(lease.next_probe, now) << where;
          EXPECT_LE(lease.next_probe, now + config.probe_backoff_cap) << where;
        }
        verdicts.push_back({sweep, id, answered ? kProbeOk : kProbeFailed,
                            lease.next_probe});
        continue;
      }

      const std::uint64_t renewed_at = detector.lease(id).last_completed;
      const bool responsive = !host.crashed;
      const LeaseVerdict verdict = detector.observe(
          id, now, {host.completed, responsive, host.stalled});
      const HostLease& lease = detector.lease(id);
      verdicts.push_back(
          {sweep, id, static_cast<int>(verdict), lease.next_probe});
      const bool progress = host.completed != renewed_at;
      switch (verdict) {
        case LeaseVerdict::kRenew:
          EXPECT_TRUE(progress || responsive) << where;
          EXPECT_EQ(lease.missed, 0u) << where;
          host.misses = 0;
          break;
        case LeaseVerdict::kHold:
          EXPECT_FALSE(progress || responsive) << where;
          break;
        case LeaseVerdict::kMiss:
          EXPECT_FALSE(progress || responsive) << where;
          ++host.misses;
          EXPECT_LT(host.misses, config.missed_to_death)
              << where << ": a miss at the death threshold must kill";
          EXPECT_EQ(lease.missed, host.misses) << where;
          break;
        case LeaseVerdict::kDeclareDead:
          EXPECT_FALSE(responsive) << where << ": a responsive host died";
          EXPECT_FALSE(progress) << where << ": a progressing host died";
          EXPECT_EQ(host.misses + 1, config.missed_to_death)
              << where << ": death off the missed_to_death-th miss";
          EXPECT_EQ(lease.missed, config.missed_to_death) << where;
          break;
        case LeaseVerdict::kQuarantine:
          EXPECT_TRUE(host.stalled) << where;
          break;
      }
      // A stalled, responsive host is quarantined on the first sweep that
      // sees it (it leaves rotation, so there is no second one).
      if (host.stalled && responsive) {
        EXPECT_EQ(verdict, LeaseVerdict::kQuarantine) << where;
      }
      if (verdict == LeaseVerdict::kDeclareDead ||
          verdict == LeaseVerdict::kQuarantine) {
        ++(verdict == LeaseVerdict::kDeclareDead ? tally.deaths
                                                 : tally.quarantines);
        host.in_rotation = false;
        EXPECT_EQ(lease.probe_streak, 1u) << where;
        EXPECT_GE(lease.next_probe, now) << where;
        EXPECT_LE(lease.next_probe, now + config.probe_backoff_cap) << where;
      }
    }
  }
  return verdicts;
}

TEST(LeaseDetectorSweep, VerdictsFollowTheLeaseRules) {
  SweepTally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    (void)run_seed(seed, tally);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first failing seed: " << seed;
    }
  }
  // The schedules must actually reach every branch of the detector.
  EXPECT_GT(tally.deaths, kSeeds);
  EXPECT_GT(tally.quarantines, kSeeds / 4);
  EXPECT_GT(tally.rejoins, kSeeds);
  EXPECT_GT(tally.failed_probes, kSeeds);
}

TEST(LeaseDetectorSweep, SeedReplayIsIdentical) {
  SweepTally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ASSERT_EQ(run_seed(seed, tally), run_seed(seed, tally))
        << "seed " << seed << ": verdict sequence diverged on replay";
  }
}

TEST(LeaseDetectorTest, ProbeScheduleKeepsTheClusterSeed) {
  // Same cluster seed, same probe instants; another seed draws others.
  FailureDetectorConfig config;
  config.missed_to_death = 1;
  config.lease_duration = 0;
  const auto first_probe = [&](std::uint64_t seed) {
    LeaseDetector detector(1, config, seed);
    EXPECT_EQ(detector.observe(0, 10, {0, false, false}),
              LeaseVerdict::kDeclareDead);
    return detector.lease(0).next_probe;
  };
  EXPECT_EQ(first_probe(42), first_probe(42));
  bool differs = false;
  for (std::uint64_t seed = 43; seed < 53 && !differs; ++seed) {
    differs = first_probe(seed) != first_probe(42);
  }
  EXPECT_TRUE(differs);
}

// --- orphan ledger -----------------------------------------------------------

TEST(OrphanLedgerTest, SecondDeliveryOfAnAdoptedKeyIsSuppressed) {
  OrphanLedger ledger;
  EXPECT_TRUE(ledger.adopt(7, /*already_redispatched=*/false));
  EXPECT_EQ(ledger.adopted(), 1u);
  EXPECT_TRUE(ledger.deliver(7));
  EXPECT_FALSE(ledger.deliver(7));
  EXPECT_FALSE(ledger.deliver(7));
  EXPECT_EQ(ledger.suppressed(), 2u);
}

TEST(OrphanLedgerTest, ARedispatchedCopyIsNotAdoptedAgain) {
  OrphanLedger ledger;
  EXPECT_FALSE(ledger.adopt(9, /*already_redispatched=*/true));
  EXPECT_EQ(ledger.adopted(), 0u);
  // Not in the ledger: both sightings are delivered (its zombie is the one
  // surviving outcome of its key; the copy never existed).
  EXPECT_TRUE(ledger.deliver(9));
  EXPECT_TRUE(ledger.deliver(9));
  EXPECT_EQ(ledger.suppressed(), 0u);
}

TEST(OrphanLedgerTest, KeysNeverAdoptedAlwaysDeliver) {
  OrphanLedger ledger;
  EXPECT_TRUE(ledger.adopt(1, false));
  EXPECT_TRUE(ledger.deliver(2));
  EXPECT_TRUE(ledger.deliver(2));
  EXPECT_TRUE(ledger.deliver(1));
  EXPECT_EQ(ledger.suppressed(), 0u);
}

// --- router ------------------------------------------------------------------

HostSnapshot snapshot_of(HostId id, std::size_t load) {
  HostSnapshot snapshot;
  snapshot.host = id;
  snapshot.queued = load;
  return snapshot;
}

TEST(RouterTest, NoHealthyHostForcesHostZero) {
  Router router(3, PolicyKind::kRoundRobin);
  const RouteDecision route = router.route(
      0, [](HostId) { return false; },
      [](HostId id) { return snapshot_of(id, 0); });
  EXPECT_TRUE(route.forced);
  EXPECT_EQ(route.host, 0u);
  EXPECT_TRUE(route.candidates.empty());
  EXPECT_EQ(router.forced_routes(), 1u);
  EXPECT_EQ(router.decisions()[0], 1u);
}

TEST(RouterTest, PolicySeesOnlyHealthyHostsAndMapsBackToClusterIds) {
  Router router(4, PolicyKind::kLeastLoaded);
  const std::vector<std::size_t> load = {0, 5, 3, 1};
  // Host 0 (the least loaded) and host 3 are out of rotation.
  const auto healthy = [](HostId id) { return id == 1 || id == 2; };
  const auto snapshot = [&](HostId id) { return snapshot_of(id, load[id]); };
  const RouteDecision route = router.route(0, healthy, snapshot);
  EXPECT_FALSE(route.forced);
  EXPECT_EQ(route.host, 2u);
  ASSERT_EQ(route.candidates.size(), 2u);
  EXPECT_EQ(route.candidates[0].host, 1u);
  EXPECT_FALSE(router.degraded_single_host());
  // One healthy host left out of four: the sticky degraded flag.
  (void)router.route(0, [](HostId id) { return id == 1; }, snapshot);
  EXPECT_TRUE(router.degraded_single_host());
  (void)router.route(0, healthy, snapshot);
  EXPECT_TRUE(router.degraded_single_host());
  EXPECT_EQ(router.decisions()[1], 1u);
  EXPECT_EQ(router.decisions()[2], 2u);
}

// --- admission ---------------------------------------------------------------

TEST(AdmissionCoreTest, EwmaStepIsOneEighth) {
  EXPECT_EQ(ewma_step(0, 800), 100);
  EXPECT_EQ(ewma_step(800, 0), 700);
  EXPECT_EQ(ewma_step(100, 100), 100);
}

TEST(AdmissionCoreTest, EstimateIsMinimumOverHealthyHosts) {
  const std::vector<util::Nanos> ewma = {50, 400, 200};
  const auto value = [&](HostId id) { return ewma[id]; };
  EXPECT_EQ(queue_delay_estimate(3, [](HostId) { return true; }, value), 50);
  EXPECT_EQ(queue_delay_estimate(3, [](HostId id) { return id != 0; }, value),
            200);
  EXPECT_EQ(queue_delay_estimate(3, [](HostId) { return false; }, value), 0);
}

TEST(AdmissionCoreTest, ShedsWhenSlackIsGoneOrEaten) {
  EXPECT_TRUE(sheds_on_slack(100, 100, 0));   // no slack left
  EXPECT_TRUE(sheds_on_slack(100, 150, 0));   // deadline already past
  EXPECT_TRUE(sheds_on_slack(1000, 100, 901));
  EXPECT_FALSE(sheds_on_slack(1000, 100, 900));
  EXPECT_FALSE(sheds_on_slack(1000, 100, 0));
}

}  // namespace
}  // namespace horse::cluster
