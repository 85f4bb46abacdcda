// Crash/restart as a first-class injection: killed watchtowers and brokers
// lose their in-memory state and recover purely from on-chain evidence. A
// recovering tower still rescues the stranded deposit it guards; a tower
// that never restarts re-exposes the §5.3 stranded-deposit attack (the
// negative control). Recovering brokers rebuild their reservation books and
// keep their portfolios conformant. Every outcome replays bit-for-bit from
// its reported options.

#include <gtest/gtest.h>

#include <memory>

#include "core/traffic_engine.h"

namespace xdeal {
namespace {

TrafficOptions TowerWorkload() {
  TrafficOptions options;
  options.base_seed = 55;
  options.num_deals = 8;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kTimelock};
  options.offline_party_deals = {3};
  options.watchtower_every = 1;  // every timelock deal guarded
  return options;
}

TEST(RecoveryTest, CrashedTowerThatRecoversStillRescuesStrandedDeposit) {
  TrafficOptions options = TowerWorkload();
  options.tower_crash_every = 1;    // kill every tower...
  options.tower_crash_after = 5;    // ...right after arming
  options.tower_recover_after = 900;  // restart well past the refund time

  // The tower guarding deal 3 is down across the refund deadline, so the
  // scheduled watch fires into a dead process. Recovery re-derives
  // everything from public contract state: accepted votes are re-scanned,
  // and the missed refund watch runs immediately — the dark party's
  // deposit comes home late, but it comes home.
  TrafficReport report = RunTraffic(options);
  const TrafficDealRecord& rescued = report.deals[3];
  EXPECT_TRUE(rescued.tainted);
  EXPECT_TRUE(rescued.aborted) << report.Summary();
  EXPECT_TRUE(rescued.all_settled) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
  for (const TrafficDealRecord& rec : report.deals) {
    if (!rec.tainted) EXPECT_TRUE(rec.committed) << "deal " << rec.index;
  }

  // The reported options are a complete reproducer.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  EXPECT_EQ(replay.Summary(), report.Summary());
}

TEST(RecoveryTest, TowerThatNeverRecoversReExposesStrandedDeposit) {
  TrafficOptions options = TowerWorkload();
  options.tower_crash_every = 1;
  options.tower_crash_after = 5;
  options.tower_recover_after = 0;  // negative control: stays dead

  // Its clients relied on the tower to neutralize the stranded-deposit
  // attack; with the tower dead and the depositor dark, nobody claims the
  // refund and deal 3 never fully settles. Locked value, not a property
  // violation — the deal's own party deviated.
  TrafficReport report = RunTraffic(options);
  const TrafficDealRecord& stranded = report.deals[3];
  EXPECT_TRUE(stranded.tainted);
  EXPECT_FALSE(stranded.committed) << report.Summary();
  EXPECT_FALSE(stranded.all_settled) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  for (const TrafficDealRecord& rec : report.deals) {
    if (!rec.tainted) EXPECT_TRUE(rec.committed) << "deal " << rec.index;
  }

  // The stranded outcome replays bit-for-bit from the same seed.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  EXPECT_FALSE(replay.deals[3].all_settled);
}

TEST(RecoveryTest, TowerCrashesAreHarmlessToCompliantDeals) {
  // No offline parties: every deal's own parties drive it to commit, so
  // killing towers (pure acceleration) must not change any outcome.
  TrafficOptions options = TowerWorkload();
  options.offline_party_deals = {};
  options.tower_crash_every = 2;
  options.tower_crash_after = 10;
  options.tower_recover_after = 0;

  TrafficReport report = RunTraffic(options);
  EXPECT_EQ(report.committed, options.num_deals) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  for (const TrafficDealRecord& rec : report.deals) {
    EXPECT_TRUE(rec.all_settled) << "deal " << rec.index;
  }
}

TEST(RecoveryTest, CrashedBrokerRecoversHerBookFromOnChainEvidence) {
  TrafficOptions options;
  options.base_seed = 91;
  options.num_deals = 24;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kTimelock};
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 2;
  options.broker_crash_times = {120, 400};  // both brokers die mid-run
  options.broker_recover_after = 80;

  // A killed broker loses her reservation book (in-memory float/inventory
  // accounting) but none of her on-chain balances or escrows. Recovery
  // re-scans her escrow evidence; with the book rebuilt, her portfolio
  // stays conformant and every deal she hosts still settles atomically.
  TrafficReport report = RunTraffic(options);
  EXPECT_GT(report.broker_deals, 0u);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  ASSERT_EQ(report.brokers.size(), 2u);
  for (const BrokerRecord& broker : report.brokers) {
    EXPECT_TRUE(broker.portfolio_ok) << report.Summary();
    EXPECT_GT(broker.deals, 0u);
  }
  for (const TrafficDealRecord& rec : report.deals) {
    EXPECT_TRUE(rec.committed) << "deal " << rec.index;
  }

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

TEST(RecoveryTest, ServiceModeCrashScheduleKeepsCompliantActorsClean) {
  // The same injections as first-class service workload: durable crash and
  // recovery events fire across epochs, and compliant actors stay
  // violation-free for the whole service lifetime.
  TrafficOptions options;
  options.base_seed = 92;
  options.num_chains = 4;
  options.deals_per_epoch = 10;
  options.watchtower_every = 3;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 4;
  options.tower_crash_every = 2;
  options.tower_crash_after = 15;
  options.tower_recover_after = 300;
  options.broker_crash_times = {150, 900};
  options.broker_recover_after = 100;

  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (size_t e = 0; e < 3; ++e) {
    EpochReport epoch = service.value()->RunEpoch();
    EXPECT_EQ(epoch.violations, 0u);
  }
  ServiceReport report = service.value()->Finish();
  EXPECT_EQ(report.deals, 30u);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();
  EXPECT_GT(report.committed, 0u);

  // And the whole crash-laden service run replays bit-for-bit.
  ServiceReport replay = [&options] {
    Result<std::unique_ptr<TrafficService>> again =
        TrafficService::Create(options);
    EXPECT_TRUE(again.ok());
    for (size_t e = 0; e < 3; ++e) again.value()->RunEpoch();
    return again.value()->Finish();
  }();
  EXPECT_EQ(replay.final_fingerprint, report.final_fingerprint);
  EXPECT_EQ(replay.Summary(), report.Summary());
}

}  // namespace
}  // namespace xdeal
