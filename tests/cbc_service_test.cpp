// CbcService: deal→shard assignment is a deterministic, stable function of
// the deal id; shards are independent certified chains with independent
// validator sets (reconfiguring one does not disturb the others); and deals
// hashed to distinct shards of one service settle independently in one
// World.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cbc/cbc_service.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/env.h"
#include "core/deal_runtime.h"

namespace xdeal {
namespace {

TEST(CbcServiceTest, ShardAssignmentIsDeterministicAndStable) {
  EnvConfig config_a, config_b;
  config_a.seed = 1;
  config_b.seed = 99;  // a differently seeded world must not matter
  DealEnv env_a(std::move(config_a));
  DealEnv env_b(std::move(config_b));

  CbcService::Options options;
  options.num_shards = 4;
  CbcService a(&env_a.world(), options);
  CbcService b(&env_b.world(), options);

  std::set<size_t> used;
  for (uint64_t i = 0; i < 200; ++i) {
    DealId id = MakeDealId("stability-" + std::to_string(i), i);
    size_t shard = a.ShardOf(id);
    EXPECT_LT(shard, 4u);
    // Same id -> same shard, across calls and across service instances.
    EXPECT_EQ(shard, a.ShardOf(id));
    EXPECT_EQ(shard, b.ShardOf(id));
    used.insert(shard);
  }
  // 200 hashed ids spread over all 4 shards.
  EXPECT_EQ(used.size(), 4u);
}

TEST(CbcServiceTest, SingleShardMapsEverythingToShardZero) {
  DealEnv env(EnvConfig{});
  CbcService service(&env.world(), CbcService::Options{});
  ASSERT_EQ(service.num_shards(), 1u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(service.ShardOf(MakeDealId("one", i)), 0u);
  }
}

TEST(CbcServiceTest, ShardsAreDistinctChainsWithDistinctValidators) {
  DealEnv env(EnvConfig{});
  CbcService::Options options;
  options.num_shards = 3;
  CbcService service(&env.world(), options);

  std::set<uint32_t> chains;
  for (size_t s = 0; s < 3; ++s) {
    chains.insert(service.chain(s).v);
    EXPECT_NE(env.world().chain(service.chain(s)), nullptr);
  }
  EXPECT_EQ(chains.size(), 3u);
  // Each shard's validator keys are derived from its own seed suffix.
  EXPECT_NE(service.validators(0).CurrentPublicKeys(),
            service.validators(1).CurrentPublicKeys());
  EXPECT_NE(service.validators(1).CurrentPublicKeys(),
            service.validators(2).CurrentPublicKeys());
}

TEST(CbcServiceTest, ReconfiguringOneShardLeavesOthersUntouched) {
  DealEnv env(EnvConfig{});
  CbcService::Options options;
  options.num_shards = 4;
  CbcService service(&env.world(), options);

  std::vector<std::vector<PublicKey>> before;
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(service.validators(s).epoch(), 0u);
    before.push_back(service.validators(s).CurrentPublicKeys());
  }

  ReconfigCertificate cert = service.Reconfigure(2);
  EXPECT_EQ(cert.new_epoch, 1u);

  for (size_t s = 0; s < 4; ++s) {
    if (s == 2) {
      EXPECT_EQ(service.validators(s).epoch(), 1u);
      EXPECT_NE(service.validators(s).CurrentPublicKeys(), before[s]);
    } else {
      EXPECT_EQ(service.validators(s).epoch(), 0u);
      EXPECT_EQ(service.validators(s).CurrentPublicKeys(), before[s]);
    }
  }
}

TEST(CbcServiceTest, DealsOnDistinctShardsSettleIndependently) {
  EnvConfig env_config;
  env_config.seed = 7;
  DealEnv env(std::move(env_config));

  CbcService::Options options;
  options.num_shards = 2;
  CbcService service(&env.world(), options);

  // Generate deals until we have one on each shard.
  std::vector<std::unique_ptr<CbcRun>> runtimes;
  std::vector<std::unique_ptr<DealChecker>> checkers;
  std::set<size_t> shards_used;
  for (uint64_t d = 0; shards_used.size() < 2 && d < 16; ++d) {
    GenParams gen;
    gen.n_parties = 3;
    gen.m_assets = 2;
    gen.t_transfers = 5;
    gen.num_chains = 2;
    gen.seed = 1000 + d;
    gen.name_prefix = "svc" + std::to_string(d) + "-";
    DealSpec spec = GenerateRandomDeal(&env, gen);
    size_t shard = service.ShardOf(spec.deal_id);
    if (!shards_used.insert(shard).second) continue;

    CbcConfig config;
    config.deal_tag = runtimes.size() + 1;
    runtimes.push_back(
        std::make_unique<CbcRun>(&env.world(), spec, config, &service));
    ASSERT_TRUE(runtimes.back()->Deploy().ok());
    checkers.push_back(std::make_unique<DealChecker>(
        &env.world(), spec, runtimes.back()->escrow_contracts(),
        config.deal_tag));
    checkers.back()->CaptureInitial();
  }
  ASSERT_EQ(shards_used.size(), 2u);

  // A reconfiguration storm on shards nobody uses must not disturb either
  // deal: grow the service's world... there are only 2 shards, both in use,
  // so instead verify the runs' logs landed on different chains and both
  // deals commit with full settlement.
  EXPECT_NE(runtimes[0]->deployment().cbc_chain,
            runtimes[1]->deployment().cbc_chain);

  env.world().scheduler().Run();
  for (size_t i = 0; i < runtimes.size(); ++i) {
    DealResult result = runtimes[i]->Collect();
    EXPECT_TRUE(result.committed) << "deal " << i;
    EXPECT_TRUE(result.all_settled) << "deal " << i;
    EXPECT_TRUE(result.atomic) << "deal " << i;
    EXPECT_TRUE(checkers[i]->StrongLivenessHolds()) << "deal " << i;
  }
}

TEST(CbcServiceTest, ReconfigOfUnusedShardDoesNotDisturbALiveDeal) {
  EnvConfig env_config;
  env_config.seed = 11;
  DealEnv env(std::move(env_config));

  CbcService::Options options;
  options.num_shards = 4;
  CbcService service(&env.world(), options);

  GenParams gen;
  gen.n_parties = 3;
  gen.m_assets = 2;
  gen.t_transfers = 5;
  gen.num_chains = 2;
  gen.seed = 42;
  DealSpec spec = GenerateRandomDeal(&env, gen);
  size_t my_shard = service.ShardOf(spec.deal_id);

  CbcRun run(&env.world(), spec, CbcConfig{}, &service);
  ASSERT_TRUE(run.Deploy().ok());

  // Mid-deal, rotate every OTHER shard's validator set (twice). The live
  // deal's escrows pinned its own shard's epoch-0 keys; foreign rotations
  // must not invalidate its proofs.
  env.world().scheduler().ScheduleAt(200, [&service, my_shard] {
    for (size_t s = 0; s < service.num_shards(); ++s) {
      if (s != my_shard) {
        service.Reconfigure(s);
        service.Reconfigure(s);
      }
    }
  });

  env.world().scheduler().Run();
  DealResult result = run.Collect();
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(result.all_settled);
  EXPECT_EQ(service.validators(my_shard).epoch(), 0u);
}

}  // namespace
}  // namespace xdeal
