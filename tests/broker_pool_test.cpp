// BrokerPool: Figure-1-style brokers as shared parties across many
// concurrent deals. Covers: a benign brokered workload conforms and every
// broker ends better off (portfolio check passes), the zero-broker config
// is inert, a seeded portfolio
// violation under congestion is caught and replays, the capital-limit
// admission signal delays/sheds deals instead of letting brokers
// over-commit, an ungated over-commit is caught from on-chain evidence and
// aborts cleanly (at any hop of a chain deal), reports are bit-identical
// across validation thread counts, and broker deals run unchanged over a
// sharded CbcService.

#include <gtest/gtest.h>

#include "core/traffic_engine.h"
#include "golden_fps.h"

namespace xdeal {
namespace {

/// Ample capital/inventory: brokers are never the bottleneck.
BrokerOptions AmpleBrokers(size_t num_brokers) {
  BrokerOptions brokers;
  brokers.num_brokers = num_brokers;
  brokers.working_capital = 8000;
  brokers.inventory = 200;
  return brokers;
}

TEST(BrokerPoolTest, BrokeredWorkloadConformsAndEarnsMargin) {
  TrafficOptions options;
  options.base_seed = 7;
  options.num_deals = 24;
  options.num_chains = 6;
  options.brokers = AmpleBrokers(2);
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.broker_deals, 24u);
  EXPECT_EQ(report.committed, 24u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_TRUE(report.double_spends.empty()) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();

  ASSERT_EQ(report.brokers.size(), 2u);
  uint64_t broker_gas = 0;
  for (const BrokerRecord& broker : report.brokers) {
    EXPECT_EQ(broker.deals, 12u);
    EXPECT_EQ(broker.committed, 12u);
    EXPECT_EQ(broker.shed, 0u);
    EXPECT_TRUE(broker.portfolio_ok) << report.Summary();
    // Every committed deal pays the broker her margin in coins; her
    // commodity inventory is exactly restocked.
    EXPECT_GT(broker.coin_delta, 0) << report.Summary();
    EXPECT_EQ(broker.inventory_delta, 0) << report.Summary();
    // Per-broker gas/latency attribution is populated.
    EXPECT_GT(broker.gas, 0u);
    EXPECT_GT(broker.latency_p50, 0u);
    EXPECT_GE(broker.latency_max, broker.latency_p50);
    broker_gas += broker.gas;
    // The occupancy timeline has two events per deal (reserve + release),
    // is time-ordered, and returns to zero once everything settled.
    ASSERT_EQ(broker.timeline.size(), 24u);
    for (size_t i = 1; i < broker.timeline.size(); ++i) {
      EXPECT_GE(broker.timeline[i].at, broker.timeline[i - 1].at);
    }
    EXPECT_EQ(broker.timeline.back().capital_in_use, 0u);
    EXPECT_EQ(broker.timeline.back().inventory_in_use, 0u);
    EXPECT_LE(broker.peak_capital_in_use, broker.capital_limit);
    EXPECT_LE(broker.peak_inventory_in_use, broker.inventory_limit);
    EXPECT_GT(broker.peak_capital_in_use + broker.peak_inventory_in_use, 0u);
  }
  // Broker deals' gas is exactly the per-deal attribution, summed.
  uint64_t deal_gas = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    EXPECT_GT(rec.broker, 0u);
    EXPECT_LE(rec.broker, 2u);
    deal_gas += rec.gas;
  }
  EXPECT_EQ(broker_gas, deal_gas);
}

TEST(BrokerPoolTest, ZeroBrokerConfigIsInert) {
  // With num_brokers = 0 (the stock options) the subsystem adds no broker
  // deals and no broker records.
  TrafficReport report = RunTraffic(GoldenMixedOptions());
  EXPECT_TRUE(report.brokers.empty());
  EXPECT_EQ(report.broker_deals, 0u);
  EXPECT_EQ(report.broker_hop_depth, 1u);
}

TEST(BrokerPoolTest, BrokerEveryInterleavesBrokerAndRandomDeals) {
  TrafficOptions options;
  options.base_seed = 9;
  options.num_deals = 20;
  options.num_chains = 4;
  options.brokers = AmpleBrokers(2);
  options.brokers.broker_every = 4;  // deals 0, 4, 8, ... are brokered
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.broker_deals, 5u);
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.index % 4 == 0) {
      EXPECT_GT(rec.broker, 0u) << "deal " << rec.index;
      EXPECT_EQ(rec.parties, 3u);
    } else {
      EXPECT_EQ(rec.broker, 0u) << "deal " << rec.index;
    }
  }
  EXPECT_EQ(report.committed, 20u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u);
}

TEST(BrokerPoolTest, PortfolioViolationSeededAndReplayed) {
  // A compliant broker is never worse off — congestion only delays her
  // refunds (that is Property 1 doing its job). To seed a real portfolio
  // violation, a *sell-side* broker deal's first escrower — the broker
  // herself — goes dark right after escrowing her inventory: the deposit
  // strands forever, her commodity balance ends short, and the portfolio
  // check (Property 1 lifted to the whole deal set) catches her ending
  // worse off. The violation replays bit-for-bit from the same options.
  TrafficOptions options;
  options.base_seed = 11;
  options.num_deals = 16;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kTimelock};
  options.brokers = AmpleBrokers(2);

  // Find a sell-side broker deal (the side is a function of the deal seed,
  // so a clean dry run locates a stable target index).
  TrafficReport dry = RunTraffic(options);
  EXPECT_EQ(dry.broker_portfolio_violations, 0u) << dry.Summary();
  size_t target = options.num_deals;
  for (const TrafficDealRecord& rec : dry.deals) {
    if (rec.broker_inventory_need > 0) {
      target = rec.index;
      break;
    }
  }
  ASSERT_LT(target, options.num_deals) << "no sell-side deal in workload";

  options.offline_party_deals = {target};
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.broker_portfolio_violations, 1u) << report.Summary();
  EXPECT_TRUE(report.deals[target].tainted);
  EXPECT_FALSE(report.deals[target].all_settled);
  size_t violating = report.deals[target].broker - 1;
  ASSERT_LT(violating, report.brokers.size());
  EXPECT_FALSE(report.brokers[violating].portfolio_ok) << report.Summary();
  EXPECT_LT(report.brokers[violating].inventory_delta, 0);
  // The dark broker deviated in one deal only; the rest of the workload is
  // clean (no property violations anywhere — the stranded value is hers).
  EXPECT_TRUE(report.violations.empty()) << report.Summary();

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  EXPECT_EQ(replay.broker_portfolio_violations, 1u);
  EXPECT_FALSE(replay.brokers[violating].portfolio_ok);
}

/// A tight-capital broker workload under open-loop arrivals, admission
/// controller on with ONLY the broker signal armed (no backlog or chain
/// occupancy thresholds): contention comes from working capital alone.
TrafficOptions TightCapitalOptions() {
  TrafficOptions options;
  options.base_seed = 5;
  options.num_deals = 60;
  options.num_chains = 4;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 10.0;  // λ = 100 deals per kilotick
  options.brokers.num_brokers = 1;
  options.brokers.working_capital = 150;
  options.brokers.inventory = 64;
  options.brokers.min_units = 1;
  options.brokers.max_units = 1;  // every buy-side deal needs 100 coins
  options.admission.enabled = true;
  options.admission.retry_delay = 30;
  options.admission.max_retries = 6;
  return options;
}

TEST(BrokerPoolTest, CapitalLimitDelaysAndShedsInsteadOfOverCommitting) {
  TrafficOptions options = TightCapitalOptions();
  TrafficReport tight = RunTraffic(options);

  // The signal fired and the controller acted on it: deals waited for
  // capital, and some were shed when it never freed in time.
  EXPECT_GT(tight.broker_blocked, 0u) << tight.Summary();
  EXPECT_GT(tight.delayed_deals, 0u) << tight.Summary();
  EXPECT_GT(tight.shed, 0u) << tight.Summary();
  // Because the gate held, no broker escrow ever bounced: no evidence
  // taint, no double-spend incidents, no property violations — and every
  // admitted deal settled with the broker whole.
  EXPECT_TRUE(tight.violations.empty()) << tight.Summary();
  EXPECT_TRUE(tight.double_spends.empty()) << tight.Summary();
  EXPECT_EQ(tight.broker_portfolio_violations, 0u) << tight.Summary();
  ASSERT_EQ(tight.brokers.size(), 1u);
  // The timeline holds a deal's reservation from admission to its *final*
  // settlement across all chains, while the live gate frees capital the
  // moment the coin escrow pays it back — so peak-in-use may exceed the
  // limit by at most one deal's worth of settle lag, never more.
  EXPECT_GT(tight.brokers[0].peak_capital_in_use, 0u);
  EXPECT_LE(tight.brokers[0].peak_capital_in_use, 150u + 100u);
  EXPECT_EQ(tight.brokers[0].shed, tight.shed);
  EXPECT_GT(tight.brokers[0].delayed, 0u);
  for (const TrafficDealRecord& rec : tight.deals) {
    if (rec.shed) EXPECT_FALSE(rec.started);
  }

  // Ample capital, same workload: the broker signal never blocks, nothing
  // is delayed or shed, every deal commits.
  options.brokers.working_capital = 100000;
  TrafficReport ample = RunTraffic(options);
  EXPECT_EQ(ample.shed, 0u) << ample.Summary();
  EXPECT_EQ(ample.delayed_deals, 0u) << ample.Summary();
  EXPECT_EQ(ample.broker_blocked, 0u);
  EXPECT_EQ(ample.committed, options.num_deals) << ample.Summary();
  // Capital contention was the only thing standing between the two runs.
  EXPECT_GT(ample.committed, tight.committed);
}

TEST(BrokerPoolTest, UngatedOverCommitCaughtFromEvidenceAndAbortsCleanly) {
  // Same scarcity, but nothing gates admission: the broker's concurrent
  // buy-side escrows over-commit her 100-coin capital, the late pulls
  // bounce on chain, and the engine (a) taints those deals with the broker
  // as the deviating party, (b) reports the over-commitment as cross-deal
  // double-spend incidents from receipts alone, and (c) the bounced deals
  // abort cleanly — no compliant counterparty is harmed.
  TrafficOptions options = GoldenBrokerOverCommitOptions();
  TrafficReport report = RunTraffic(options);

  EXPECT_FALSE(report.double_spends.empty()) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  size_t tainted = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (!rec.tainted) continue;
    ++tainted;
    EXPECT_FALSE(rec.committed) << "deal " << rec.index;
  }
  EXPECT_GT(tainted, 0u) << report.Summary();
  // Refunds make even the over-committed broker whole on the bounced
  // deals; her committed deals still earn margin.
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  EXPECT_EQ(replay.double_spends.size(), report.double_spends.size());
}

TEST(BrokerPoolTest, SecondHopBounceTaintsTheChainDeal) {
  // Two-hop chains over scarce capital, nothing gating admission: at these
  // seeds a SECOND-hop broker's escrow pull bounces. Whichever hop
  // over-committed is that chain deal's deviating party, so its abort is
  // the defense, not a Property 3 failure.
  for (uint64_t seed : {2u, 3u, 6u}) {
    TrafficOptions options;
    options.base_seed = seed;
    options.num_deals = 24;
    options.num_chains = 4;
    options.mean_interarrival = 20;
    options.protocol_mix = {Protocol::kTimelock};
    options.brokers.num_brokers = 3;
    options.brokers.hop_depth = 2;
    options.brokers.working_capital = 150;
    options.brokers.min_units = 1;
    options.brokers.max_units = 1;
    TrafficReport report = RunTraffic(options);

    EXPECT_FALSE(report.double_spends.empty()) << "seed " << seed;
    EXPECT_TRUE(report.violations.empty())
        << "seed " << seed << ": " << report.Summary();
    for (const TrafficDealRecord& rec : report.deals) {
      if (rec.tainted) {
        EXPECT_FALSE(rec.committed) << "seed " << seed << " deal "
                                    << rec.index;
      }
    }
  }
}

TEST(BrokerPoolTest, ReportBitIdenticalAcrossThreadCounts) {
  TrafficOptions options = TightCapitalOptions();
  options.num_threads = 1;
  TrafficReport baseline = RunTraffic(options);

  options.num_threads = 8;
  TrafficReport threaded = RunTraffic(options);
  EXPECT_EQ(threaded.fingerprint, baseline.fingerprint);
  EXPECT_EQ(threaded.Summary(), baseline.Summary());
  ASSERT_EQ(threaded.brokers.size(), baseline.brokers.size());
  for (size_t b = 0; b < baseline.brokers.size(); ++b) {
    EXPECT_EQ(threaded.brokers[b].gas, baseline.brokers[b].gas);
    EXPECT_EQ(threaded.brokers[b].coin_delta, baseline.brokers[b].coin_delta);
    ASSERT_EQ(threaded.brokers[b].timeline.size(),
              baseline.brokers[b].timeline.size());
    for (size_t i = 0; i < baseline.brokers[b].timeline.size(); ++i) {
      EXPECT_EQ(threaded.brokers[b].timeline[i].capital_in_use,
                baseline.brokers[b].timeline[i].capital_in_use);
    }
  }
}

TEST(BrokerPoolTest, BrokerRunFingerprintsArePinned) {
  // The broker paths the golden mixed and CBC runs never reach: the
  // reservation book under crash and recovery, occupancy-priced hop chains
  // behind the gate, and the ungated over-commit.
  TrafficReport crash = RunTraffic(GoldenBrokerCrashOptions());
  EXPECT_EQ(crash.fingerprint, kGoldenFpBrokerCrashSeed9) << crash.Summary();
  EXPECT_GT(crash.delayed_deals, 0u) << crash.Summary();

  TrafficReport priced = RunTraffic(GoldenBrokerHopPricedOptions());
  EXPECT_EQ(priced.fingerprint, kGoldenFpBrokerHopPricedSeed13)
      << priced.Summary();
  EXPECT_EQ(priced.broker_hop_depth, 3u);
  EXPECT_GT(priced.delayed_deals, 0u) << priced.Summary();

  TrafficReport over = RunTraffic(GoldenBrokerOverCommitOptions());
  EXPECT_EQ(over.fingerprint, kGoldenFpBrokerOverCommitSeed5)
      << over.Summary();
}

// --- multi-hop broker chains + priced capital ---

TEST(BrokerPoolTest, HopChainDepthThreeConformsAndEveryHopEarnsMargin) {
  // Depth-3 resale chains: every broker deal routes goods seller -> B0 ->
  // B1 -> B2 -> buyer in ONE atomic deal, each hop fronting the capital to
  // pay its upstream. All chains commit, no portfolio violation anywhere,
  // and every hop broker nets her margin.
  TrafficOptions options;
  options.base_seed = 17;
  options.num_deals = 18;
  options.num_chains = 6;
  options.brokers = AmpleBrokers(3);
  options.brokers.hop_depth = 3;
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.broker_hop_depth, 3u);
  EXPECT_EQ(report.broker_deals, 18u);
  EXPECT_EQ(report.committed, 18u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_TRUE(report.double_spends.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);

  // Every deal stakes all three brokers (hop rotation covers the pool), so
  // per-broker deal counts see the whole workload.
  ASSERT_EQ(report.brokers.size(), 3u);
  for (const BrokerRecord& broker : report.brokers) {
    EXPECT_EQ(broker.deals, 18u);
    EXPECT_EQ(broker.committed, 18u);
    EXPECT_TRUE(broker.portfolio_ok) << report.Summary();
    EXPECT_GT(broker.coin_delta, 0) << report.Summary();
    EXPECT_EQ(broker.inventory_delta, 0) << report.Summary();
    EXPECT_GT(broker.peak_capital_in_use, 0u);
  }
  // Chain deals carry one price point per hop; with margin_slope = 0 every
  // hop charges the flat unit margin.
  for (const TrafficDealRecord& rec : report.deals) {
    ASSERT_EQ(rec.price_points.size(), 3u) << "deal " << rec.index;
    for (const BrokerPool::PricePoint& point : rec.price_points) {
      EXPECT_EQ(point.margin, options.brokers.unit_margin);
      EXPECT_EQ(point.occupancy, 0u);
    }
    // seller + buyer + 3 hop brokers.
    EXPECT_EQ(rec.parties, 5u);
  }

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

TEST(BrokerPoolTest, HopDepthOneIsTheLegacyBrokerPathBitForBit) {
  // hop_depth <= 1 must be byte-identical to the legacy single-broker pool:
  // 0 (normalized to 1) and 1 produce the same fingerprint, and the legacy
  // single-stake price chart is one flat point per deal.
  TrafficOptions options;
  options.base_seed = 7;
  options.num_deals = 24;
  options.num_chains = 6;
  options.brokers = AmpleBrokers(2);
  options.brokers.hop_depth = 1;
  TrafficReport depth_one = RunTraffic(options);
  EXPECT_EQ(depth_one.broker_hop_depth, 1u);

  options.brokers.hop_depth = 0;  // normalized to 1 by the pool
  TrafficReport depth_zero = RunTraffic(options);
  EXPECT_EQ(depth_zero.fingerprint, depth_one.fingerprint);

  for (const TrafficDealRecord& rec : depth_one.deals) {
    ASSERT_EQ(rec.price_points.size(), 1u);
    EXPECT_EQ(rec.price_points[0].margin, options.brokers.unit_margin);
  }
}

TEST(BrokerPoolTest, PricedCapitalMarginRisesWithOccupancy) {
  // margin_slope > 0 turns capital into a priced resource: spec generation
  // defers to admission time, and each hop's margin is priced off the
  // broker's LIVE capital occupancy — margin = unit_margin + slope *
  // in_use / working_capital. Under overlapping open-loop arrivals the
  // occupancy is nonzero for later deals, so the workload traces a rising
  // margin-vs-occupancy curve (the market-clearing price chart).
  TrafficOptions options;
  options.base_seed = 5;
  options.num_deals = 40;
  options.num_chains = 4;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 10.0;
  options.brokers.num_brokers = 2;
  options.brokers.working_capital = 2000;
  options.brokers.inventory = 200;
  options.brokers.hop_depth = 2;
  options.brokers.margin_slope = 200;
  options.admission.enabled = true;
  options.admission.retry_delay = 20;
  options.admission.max_retries = 6;
  TrafficReport report = RunTraffic(options);

  EXPECT_GT(report.committed, 0u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();

  size_t priced_above_flat = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.shed || rec.price_points.empty()) continue;
    for (const BrokerPool::PricePoint& point : rec.price_points) {
      // The pricing formula holds exactly for every point.
      EXPECT_EQ(point.margin,
                options.brokers.unit_margin +
                    options.brokers.margin_slope * point.occupancy /
                        options.brokers.working_capital);
      EXPECT_GE(point.margin, options.brokers.unit_margin);
      if (point.occupancy > 0) ++priced_above_flat;
    }
  }
  // The curve is not flat: overlapping chains really were priced against
  // nonzero occupancy.
  EXPECT_GT(priced_above_flat, 0u) << report.Summary();

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

TEST(BrokerPoolTest, ShardedCbcBrokerDealsConform) {
  TrafficOptions options;
  options.base_seed = 31;
  options.num_deals = 24;
  options.num_chains = 6;
  options.cbc_shards = 4;
  options.protocol_mix = {Protocol::kCbc};
  options.brokers = AmpleBrokers(3);
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.cbc_deals, 24u);
  EXPECT_EQ(report.committed, 24u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.broker_portfolio_violations, 0u) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
  for (const BrokerRecord& broker : report.brokers) {
    EXPECT_EQ(broker.committed, broker.deals);
    EXPECT_GT(broker.coin_delta, 0);
  }

  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

}  // namespace
}  // namespace xdeal
