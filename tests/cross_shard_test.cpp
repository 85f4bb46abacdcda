// Cross-shard deals: assets — not deals — map to shards. PlaceAssets
// resolves a deal's home shard (hosting its CBC log) plus per-asset shards;
// escrows on foreign shards settle via portable DecideProofs (the home
// shard's 2f+1 status certificate wrapped with its shard index). Covers the
// placement/wire unit contracts, a seeded traffic run with a cross-shard
// quorum, mid-run per-shard validator reconfiguration under traffic, the
// stale-proof replay adversary (rejected + tainted, with reproducer seed),
// and the combined cross-shard + depth-3 hop-chain workload.

#include <gtest/gtest.h>

#include <vector>

#include "cbc/cbc_service.h"
#include "cbc/types.h"
#include "contracts/deal_info.h"
#include "core/env.h"
#include "core/traffic_engine.h"

namespace xdeal {
namespace {

TEST(CrossShardTest, PlacementResolvesAssetShardsHomeAndSpan) {
  DealEnv env(EnvConfig{});
  CbcService::Options options;
  options.num_shards = 4;
  CbcService service(&env.world(), options);

  DealId id = MakeDealId("placement", 1);
  const size_t home = service.ShardOf(id);

  // Assets on every shard chain plus one non-shard chain (which rides on
  // the home shard, like every pre-redesign deal did).
  std::vector<ChainId> chains;
  for (size_t s = 0; s < 4; ++s) chains.push_back(service.chain(s));
  chains.push_back(ChainId{9999});

  CbcService::Placement placement = service.PlaceAssets(id, chains);
  EXPECT_EQ(placement.home_shard, home);
  ASSERT_EQ(placement.asset_shards.size(), 5u);
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(placement.asset_shards[s], s);
  }
  EXPECT_EQ(placement.asset_shards[4], home);
  EXPECT_TRUE(placement.cross_shard());
  EXPECT_EQ(placement.SpanCount(), 4u);

  // Home-shard-only assets are not cross-shard — the S=1 degenerate case
  // and every single-shard deal behave exactly as before.
  CbcService::Placement local =
      service.PlaceAssets(id, {service.chain(home), ChainId{777}});
  EXPECT_FALSE(local.cross_shard());
  EXPECT_EQ(local.SpanCount(), 1u);
}

TEST(CrossShardTest, DecideProofWireRoundTripsAndStaysUnambiguous) {
  DecideProof dp;
  dp.shard = 3;
  dp.proof.status.deal_id = MakeDealId("wire", 7);
  dp.proof.status.outcome = kDealCommitted;
  dp.proof.status.epoch = 2;

  Bytes wrapped = dp.Serialize();
  auto parsed = DecideProof::Deserialize(wrapped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().shard, 3u);
  EXPECT_EQ(parsed.value().proof.status.deal_id, dp.proof.status.deal_id);
  EXPECT_EQ(parsed.value().proof.status.outcome, kDealCommitted);
  EXPECT_EQ(parsed.value().proof.status.epoch, 2u);

  // The magic keeps the two encodings unambiguous: a bare CbcProof blob is
  // never mistaken for a decide proof.
  Bytes bare = dp.proof.Serialize();
  EXPECT_FALSE(DecideProof::Deserialize(bare).ok());
}

TEST(CrossShardTest, TrafficWithCrossShardQuorumConforms) {
  // Every other CBC deal places its assets on a window of SHARD chains, so
  // at least one asset settles away from the deal's home shard. Well over
  // the 25% cross-shard quorum, and the whole workload stays conformant.
  TrafficOptions options;
  options.base_seed = 71;
  options.num_deals = 32;
  options.num_chains = 4;
  options.cbc_shards = 3;
  options.cbc_xshard_every = 2;
  options.min_assets = 2;  // span >= 2 shards, so cross-shard is certain
  options.protocol_mix = {Protocol::kCbc};
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.cbc_deals, 32u);
  EXPECT_EQ(report.committed, 32u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
  // >= 25% of CBC deals span >= 2 shards (here: every xshard deal does).
  EXPECT_GE(report.cross_shard_deals * 4, report.cbc_deals)
      << report.Summary();
  EXPECT_EQ(report.cross_shard_deals, 16u) << report.Summary();
  size_t flagged = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.cross_shard) ++flagged;
  }
  EXPECT_EQ(flagged, report.cross_shard_deals);

  // Replays bit-for-bit, and validation thread counts cannot change it.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  options.num_threads = 8;
  TrafficReport threaded = RunTraffic(options);
  EXPECT_EQ(threaded.fingerprint, report.fingerprint);
}

TEST(CrossShardTest, ReconfigureUnderTrafficCommitsAcrossEpochBoundary) {
  // Mid-run, every shard's validator set rotates. Deals that escrowed
  // before the rotation pinned epoch-0 keys, so their decide proofs must
  // carry the reconfiguration certificate chain — and they still commit.
  TrafficOptions options;
  options.base_seed = 73;
  options.num_deals = 24;
  options.num_chains = 4;
  options.cbc_shards = 2;
  options.cbc_xshard_every = 2;
  options.min_assets = 2;
  options.protocol_mix = {Protocol::kCbc};
  options.cbc_reconfig_times = {300};
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.committed, 24u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_GT(report.cross_shard_deals, 0u);

  // The epoch boundary really fell mid-traffic: some deals arrived before
  // the rotation and settled after it.
  size_t straddlers = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.arrival_at < 300 && rec.settle_time > 300) ++straddlers;
  }
  EXPECT_GT(straddlers, 0u) << report.Summary();

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

TEST(CrossShardTest, StaleShardProofReplayRejectedAndTainted) {
  // The cross-shard replay attack: deal 2's first escrower presents the
  // home shard's genuine decide evidence re-declared for the wrong shard.
  // Every escrow rejects it on the cheap shard-binding check ("decide:
  // shard mismatch") before burning signature-verification gas; the engine
  // reports the rejections from receipts alone and taints the deal with
  // the replayer as its deviating party. The deal still settles through
  // the genuine path — nobody is harmed.
  TrafficOptions options;
  options.base_seed = 77;
  options.num_deals = 12;
  options.num_chains = 4;
  options.cbc_shards = 2;
  options.protocol_mix = {Protocol::kCbc};
  options.stale_proof_deals = {2};
  TrafficReport report = RunTraffic(options);

  EXPECT_GT(report.stale_decide_rejections, 0u) << report.Summary();
  const TrafficDealRecord& rec = report.deals[2];
  EXPECT_TRUE(rec.tainted);
  EXPECT_TRUE(rec.committed) << report.Summary();
  EXPECT_TRUE(rec.all_settled) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // Untouched deals are oblivious to the replay attempt.
  for (const TrafficDealRecord& other : report.deals) {
    if (!other.tainted) EXPECT_TRUE(other.committed) << other.index;
  }

  // The reproducer: the record carries the deal's derived seed, and the
  // same options replay the incident bit-for-bit.
  EXPECT_EQ(rec.seed, TrafficDealSeed(options.base_seed, 2));
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  EXPECT_EQ(replay.stale_decide_rejections, report.stale_decide_rejections);
}

TEST(CrossShardTest, CrossShardAndHopChainWorkloadCommitsClean) {
  // The issue's acceptance run: >= 25% of CBC deals span >= 2 shards AND
  // broker chains reach hop depth 3, in one seeded workload — everything
  // commits with zero conformance or portfolio violations.
  TrafficOptions options;
  options.base_seed = 79;
  options.num_deals = 24;
  options.num_chains = 6;
  options.cbc_shards = 3;
  options.cbc_xshard_every = 2;
  options.min_assets = 2;
  options.protocol_mix = {Protocol::kCbc};
  options.brokers.num_brokers = 3;
  options.brokers.broker_every = 3;
  options.brokers.working_capital = 8000;
  options.brokers.inventory = 200;
  options.brokers.hop_depth = 3;
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.committed, 24u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_TRUE(report.double_spends.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
  EXPECT_EQ(report.broker_hop_depth, 3u);
  EXPECT_EQ(report.broker_deals, 8u);
  EXPECT_GE(report.cross_shard_deals * 4, report.cbc_deals)
      << report.Summary();

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

}  // namespace
}  // namespace xdeal
