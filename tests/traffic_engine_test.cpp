// TrafficEngine: ≥100 concurrent deals on shared chains conform with zero
// property violations, reports are bit-identical across thread counts, a
// seeded cross-deal double-spend is caught from on-chain evidence and
// replays from its reported seed, per-deal gas tagging is complete, and
// tight block capacity surfaces queueing-stretched deadlines.

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "chain/world.h"
#include "core/traffic_engine.h"
#include "golden_fps.h"

namespace xdeal {
namespace {

TrafficOptions SmallOptions() {
  TrafficOptions options;
  options.base_seed = 21;
  options.num_deals = 24;
  options.num_chains = 6;
  return options;
}

TEST(TrafficEngineTest, DealSeedsAreStableAndDistinct) {
  std::set<uint64_t> seeds;
  for (uint64_t d = 0; d < 1000; ++d) {
    uint64_t seed = TrafficDealSeed(7, d);
    EXPECT_EQ(seed, TrafficDealSeed(7, d));
    EXPECT_NE(seed, 0u);
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), 1000u);
  EXPECT_NE(TrafficDealSeed(7, 0), TrafficDealSeed(8, 0));
}

TEST(TrafficEngineTest, HundredConcurrentDealsConform) {
  TrafficOptions options;
  options.base_seed = 3;
  options.num_deals = 100;
  options.num_chains = 8;
  TrafficReport report = RunTraffic(options);

  ASSERT_EQ(report.deals.size(), 100u);
  EXPECT_GT(report.timelock_deals, 0u);
  EXPECT_GT(report.cbc_deals, 0u);
  // Compliant deals under ample Δ and unlimited block capacity all commit:
  // zero Property-1/2/3 violations despite full interleaving.
  EXPECT_EQ(report.committed, 100u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_TRUE(report.double_spends.empty()) << report.Summary();
  for (const TrafficDealRecord& rec : report.deals) {
    EXPECT_TRUE(rec.started);
    EXPECT_TRUE(rec.all_settled) << "deal " << rec.index;
    EXPECT_GT(rec.latency, 0u) << "deal " << rec.index;
  }
}

TEST(TrafficEngineTest, ReportBitIdenticalAcrossThreadCounts) {
  TrafficOptions one = SmallOptions();
  one.num_threads = 1;
  TrafficReport baseline = RunTraffic(one);

  for (size_t threads : {2u, 8u}) {
    TrafficOptions opts = SmallOptions();
    opts.num_threads = threads;
    TrafficReport report = RunTraffic(opts);
    EXPECT_EQ(report.fingerprint, baseline.fingerprint)
        << "threads=" << threads;
    EXPECT_EQ(report.Summary(), baseline.Summary()) << "threads=" << threads;
    EXPECT_EQ(report.violations.size(), baseline.violations.size());
    ASSERT_EQ(report.deals.size(), baseline.deals.size());
    for (size_t d = 0; d < report.deals.size(); ++d) {
      EXPECT_EQ(report.deals[d].gas, baseline.deals[d].gas);
      EXPECT_EQ(report.deals[d].settle_time, baseline.deals[d].settle_time);
      EXPECT_EQ(report.deals[d].violation, baseline.deals[d].violation);
    }
  }
}

TEST(TrafficEngineTest, PerDealGasTaggingIsComplete) {
  // Every transaction a run submits carries its deal tag: the engine
  // attributes each receipt's gas either to its deal or to the untagged
  // bucket, so untagged_gas == 0 means the per-deal accounting covers the
  // World's entire gas consumption with nothing leaking between deals.
  TrafficReport report = RunTraffic(SmallOptions());
  EXPECT_EQ(report.untagged_gas, 0u);
  uint64_t per_deal = 0;
  for (const TrafficDealRecord& rec : report.deals) per_deal += rec.gas;
  EXPECT_EQ(per_deal, report.total_gas);
  EXPECT_GT(report.total_gas, 0u);
  // Gas percentiles come from the same per-deal attribution.
  EXPECT_GE(report.gas_p99, report.gas_p50);
  EXPECT_GT(report.gas_p50, 0u);
}

TEST(TrafficEngineTest, StaggeredAdmissionInterleavesDeals) {
  TrafficOptions options = SmallOptions();
  options.mean_interarrival = 20;
  TrafficReport report = RunTraffic(options);
  // With a 20-tick gap and deals needing hundreds of ticks to settle, many
  // deals are admitted before the first one finishes: concurrency is real.
  ASSERT_EQ(report.deals.size(), options.num_deals);
  size_t admitted_while_first_in_flight = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.index > 0 && rec.admitted_at < report.deals[0].settle_time) {
      ++admitted_while_first_in_flight;
    }
  }
  EXPECT_GE(admitted_while_first_in_flight, 10u)
      << "first deal settled at " << report.deals[0].settle_time;
  EXPECT_GT(report.max_backlog, 0u);
  EXPECT_GT(report.events_executed, 0u);
}

TEST(TrafficEngineTest, CrossDealDoubleSpendCaughtAndReplayed) {
  TrafficOptions options;
  options.base_seed = 17;
  options.num_deals = 12;
  options.num_chains = 4;
  options.double_spend_deals = {5};
  TrafficReport report = RunTraffic(options);

  // The over-committed escrow bounced in exactly one of the two deals and
  // the engine cross-referenced the receipts into an incident.
  ASSERT_EQ(report.double_spends.size(), 1u) << report.Summary();
  const DoubleSpendIncident& incident = report.double_spends[0];
  std::set<size_t> pair = {incident.loser_deal, incident.winner_deal};
  EXPECT_TRUE(pair.count(4) == 1 && pair.count(5) == 1) << report.Summary();
  EXPECT_EQ(incident.seed, report.deals[incident.loser_deal].seed);

  // Both touched deals are tainted; the loser aborts cleanly, and no
  // compliant party anywhere is harmed (Properties 1-2 hold workload-wide).
  EXPECT_TRUE(report.deals[4].tainted);
  EXPECT_TRUE(report.deals[5].tainted);
  EXPECT_TRUE(report.deals[incident.loser_deal].aborted) << report.Summary();
  EXPECT_TRUE(report.deals[incident.winner_deal].committed)
      << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();

  // Replay from the reported configuration: the incident reproduces
  // bit-for-bit (same fingerprint, same incident, same loser seed).
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  ASSERT_EQ(replay.double_spends.size(), 1u);
  EXPECT_EQ(replay.double_spends[0].loser_deal, incident.loser_deal);
  EXPECT_EQ(replay.double_spends[0].winner_deal, incident.winner_deal);
  EXPECT_EQ(replay.double_spends[0].party, incident.party);
  EXPECT_EQ(replay.double_spends[0].seed, incident.seed);
}

TEST(TrafficEngineTest, UntaintedDealsUnharmedByDoubleSpendPressure) {
  TrafficOptions options;
  options.base_seed = 29;
  options.num_deals = 16;
  options.num_chains = 4;
  options.double_spend_deals = {3, 9};
  TrafficReport report = RunTraffic(options);

  ASSERT_EQ(report.double_spends.size(), 2u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  for (const TrafficDealRecord& rec : report.deals) {
    if (!rec.tainted) {
      EXPECT_TRUE(rec.committed) << "deal " << rec.index << "\n"
                                 << report.Summary();
    }
  }
}

TEST(TrafficEngineTest, TightBlockCapacityStretchesDeadlines) {
  // Starve the chains: one transaction per block. Queueing pushes escrow
  // and vote inclusion far past the schedule, which the per-deal checkers
  // surface as conformance failures carrying reproducer seeds — the
  // cross-deal interference single-deal sweeps cannot see.
  TrafficOptions options;
  options.base_seed = 11;
  options.num_deals = 20;
  options.num_chains = 2;
  options.block_capacity = 1;
  options.mean_interarrival = 5;
  options.protocol_mix = {Protocol::kTimelock};
  TrafficReport report = RunTraffic(options);

  // Under this much congestion not every deal can commit on schedule.
  EXPECT_LT(report.committed, report.num_deals) << report.Summary();
  ASSERT_FALSE(report.violations.empty()) << report.Summary();
  for (const TrafficViolation& v : report.violations) {
    EXPECT_EQ(v.seed, TrafficDealSeed(options.base_seed, v.deal_index));
  }
  // The backlog probe saw the pressure.
  EXPECT_GT(report.max_backlog, 20u);

  // Same options + seed replay the exact same congestion outcome.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  ASSERT_EQ(replay.violations.size(), report.violations.size());
  for (size_t i = 0; i < report.violations.size(); ++i) {
    EXPECT_EQ(replay.violations[i].deal_index,
              report.violations[i].deal_index);
    EXPECT_EQ(replay.violations[i].what, report.violations[i].what);
  }
}

TEST(TrafficEngineTest, LargeDeltaScalesCbcAbortPatience) {
  // options.delta feeds both protocols' schedules now; a Δ above the stock
  // CBC abort patience (400) must scale the patience up rather than make
  // every CBC deal fail the §6 patience >= Δ precondition at deploy time.
  TrafficOptions options = SmallOptions();
  options.delta = 500;
  TrafficReport report = RunTraffic(options);
  EXPECT_EQ(report.committed, options.num_deals) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
}

TEST(TrafficEngineTest, GoldenFingerprints) {
  // The repo's one golden check (tests/golden_fps.h): the stock mixed and
  // all-CBC workloads reproduce their pinned reports bit-for-bit.
  {
    TrafficReport report = RunTraffic(GoldenMixedOptions());
    EXPECT_EQ(report.fingerprint, kGoldenFpMixedSeed101)
        << report.Summary();
    EXPECT_EQ(report.committed, 40u);
    EXPECT_TRUE(report.violations.empty());
  }
  {
    TrafficReport report = RunTraffic(GoldenCbcOptions());
    EXPECT_EQ(report.fingerprint, kGoldenFpCbcSeed202)
        << report.Summary();
    EXPECT_EQ(report.committed, 30u);
    EXPECT_TRUE(report.violations.empty());
  }
}

TEST(TrafficEngineTest, AllReceiptEvidencePathsInOneBatchArePinned) {
  // Every kind of receipt evidence the batch seal reads, in one batch: the
  // injected double-spend (deal 7 re-promises deal 6's tokens), the broker
  // whose escrows bounce because her capital covers one deal at a time
  // (deals 16 and 20 lose to deal 4), and the stale-proof replay at deal 9.
  // The incidents, the rejection count and the taints are pinned along
  // with the fingerprint, at one and at four validation threads.
  for (size_t threads : {1u, 4u}) {
    TrafficOptions options = GoldenEvidenceOptions();
    options.num_threads = threads;
    TrafficReport report = RunTraffic(options);
    EXPECT_EQ(report.fingerprint, kGoldenFpEvidenceSeed5)
        << "threads=" << threads << "\n" << report.Summary();

    ASSERT_EQ(report.double_spends.size(), 3u) << report.Summary();
    const std::vector<std::tuple<size_t, size_t, uint32_t>> expected = {
        {7, 6, 16}, {16, 4, 0}, {20, 4, 0}};
    for (size_t k = 0; k < expected.size(); ++k) {
      const DoubleSpendIncident& incident = report.double_spends[k];
      EXPECT_EQ(std::make_tuple(incident.loser_deal, incident.winner_deal,
                                incident.party),
                expected[k])
          << "incident " << k;
      EXPECT_EQ(incident.seed, report.deals[incident.loser_deal].seed);
    }
    EXPECT_EQ(report.stale_decide_rejections, 2u);

    std::set<size_t> tainted;
    for (const TrafficDealRecord& rec : report.deals) {
      if (rec.tainted) tainted.insert(rec.index);
    }
    EXPECT_EQ(tainted, (std::set<size_t>{6, 7, 9, 16, 20}));
    EXPECT_TRUE(report.violations.empty()) << report.Summary();
  }
}

TEST(TrafficEngineTest, ShardedCbcStaysConformantAndDeterministic) {
  TrafficOptions options;
  options.base_seed = 33;
  options.num_deals = 32;
  options.num_chains = 6;
  options.cbc_shards = 4;
  options.protocol_mix = {Protocol::kCbc};
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.cbc_shards, 4u);
  EXPECT_EQ(report.committed, 32u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);

  // Same options replay bit-for-bit, and validation thread counts still
  // cannot change the report.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
  options.num_threads = 8;
  TrafficReport threaded = RunTraffic(options);
  EXPECT_EQ(threaded.fingerprint, report.fingerprint);
}

TEST(TrafficEngineTest, ShardCountChangesTopologyNotOutcomes) {
  // Different shard counts relocate the CBC logs (different fingerprints
  // are expected — chain ids and observation interleavings move), but the
  // workload must stay fully conformant at every S.
  for (size_t shards : {1u, 2u, 8u}) {
    TrafficOptions options;
    options.base_seed = 44;
    options.num_deals = 24;
    options.num_chains = 4;
    options.cbc_shards = shards;
    options.protocol_mix = {Protocol::kCbc};
    TrafficReport report = RunTraffic(options);
    EXPECT_EQ(report.committed, 24u) << "shards=" << shards << "\n"
                                     << report.Summary();
    EXPECT_TRUE(report.violations.empty()) << "shards=" << shards;
  }
}

TEST(TrafficEngineTest, OfflinePartyDealStrandedWithoutWatchtower) {
  TrafficOptions options;
  options.base_seed = 55;
  options.num_deals = 8;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kTimelock};
  options.offline_party_deals = {3};
  TrafficReport report = RunTraffic(options);

  // The offline escrower's deposit is stranded: nobody claims its refund,
  // so deal 3 never fully settles. The deal is tainted (its own party
  // deviated), so this is not a property violation — just locked value.
  const TrafficDealRecord& rec = report.deals[3];
  EXPECT_TRUE(rec.tainted);
  EXPECT_FALSE(rec.committed) << report.Summary();
  EXPECT_FALSE(rec.all_settled) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // Untouched deals commit as usual.
  for (const TrafficDealRecord& other : report.deals) {
    if (!other.tainted) EXPECT_TRUE(other.committed);
  }
}

TEST(TrafficEngineTest, WatchtowerRescuesOfflinePartyDealUnderTraffic) {
  TrafficOptions options;
  options.base_seed = 55;
  options.num_deals = 8;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kTimelock};
  options.offline_party_deals = {3};
  options.watchtower_every = 1;  // every timelock deal guarded
  TrafficReport report = RunTraffic(options);

  // Same workload, but the tower claims the stranded refund on the dark
  // party's behalf: the deal aborts cleanly and fully settles.
  const TrafficDealRecord& rec = report.deals[3];
  EXPECT_TRUE(rec.tainted);
  EXPECT_TRUE(rec.aborted) << report.Summary();
  EXPECT_TRUE(rec.all_settled) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // Towers are harmless to the healthy deals, and their transactions are
  // tagged to the deals they guard (no gas leaks out of the accounting).
  EXPECT_EQ(report.untagged_gas, 0u);
  for (const TrafficDealRecord& other : report.deals) {
    if (!other.tainted) EXPECT_TRUE(other.committed) << other.index;
  }

  // Determinism holds with towers in play.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, report.fingerprint);
}

// --- open-loop arrivals + admission control ---

TrafficOptions CongestedOpenLoopOptions() {
  // High offered load against tight block capacity: without backpressure
  // the tx queues grow, inclusion delays stretch past deadlines, and the
  // checker reports Property-3 violations.
  TrafficOptions options;
  options.base_seed = 1;
  options.num_deals = 150;
  options.num_chains = 4;
  options.block_capacity = 6;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 5.0;  // λ = 200 deals per kilotick
  return options;
}

AdmissionOptions StockController() {
  AdmissionOptions admission;
  admission.enabled = true;
  admission.max_chain_occupancy = 24;
  admission.retry_delay = 20;
  admission.max_retries = 3;
  return admission;
}

TEST(TrafficEngineTest, ExplicitFixedStaggerIsTheLegacySchedule) {
  // kFixedStagger + controller off: deal i arrives and deploys at exactly
  // i * mean_interarrival, with no admission fate to record.
  TrafficOptions options = GoldenMixedOptions();
  options.arrival = ArrivalProcess::kFixedStagger;  // explicit, not default
  TrafficReport report = RunTraffic(options);
  for (const TrafficDealRecord& rec : report.deals) {
    EXPECT_EQ(rec.arrival_at, rec.index * 20);  // the 20-tick stagger
    EXPECT_EQ(rec.admitted_at, rec.arrival_at);
    EXPECT_FALSE(rec.shed);
    EXPECT_EQ(rec.admission_retries, 0u);
  }
}

TEST(TrafficEngineTest, OpenLoopPoissonConformsAtModerateLoad) {
  // Open-loop arrivals at a sustainable rate, unlimited capacity: every
  // deal commits, exactly as in the closed-loop stagger.
  TrafficOptions options;
  options.base_seed = 13;
  options.num_deals = 40;
  options.num_chains = 6;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 20.0;
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.committed, 40u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_GT(report.offered_per_ktick, 0.0);
  // The schedule really is irregular (open loop, not a stagger).
  std::set<Tick> gaps;
  for (size_t d = 1; d < report.deals.size(); ++d) {
    EXPECT_GE(report.deals[d].arrival_at, report.deals[d - 1].arrival_at);
    gaps.insert(report.deals[d].arrival_at - report.deals[d - 1].arrival_at);
  }
  EXPECT_GT(gaps.size(), 5u);
}

TEST(TrafficEngineTest, OpenLoopReportIsBitIdenticalAcrossThreadCounts) {
  // The full open-loop + admission-control pipeline (arrival schedule,
  // admission events, delays, sheds) is part of the single-threaded
  // simulation; validation threads cannot move it.
  TrafficOptions options = CongestedOpenLoopOptions();
  options.admission = StockController();
  options.num_threads = 1;
  TrafficReport baseline = RunTraffic(options);
  EXPECT_GT(baseline.shed, 0u) << baseline.Summary();

  options.num_threads = 8;
  TrafficReport threaded = RunTraffic(options);
  EXPECT_EQ(threaded.fingerprint, baseline.fingerprint);
  ASSERT_EQ(threaded.deals.size(), baseline.deals.size());
  for (size_t d = 0; d < baseline.deals.size(); ++d) {
    EXPECT_EQ(threaded.deals[d].arrival_at, baseline.deals[d].arrival_at);
    EXPECT_EQ(threaded.deals[d].admitted_at, baseline.deals[d].admitted_at);
    EXPECT_EQ(threaded.deals[d].shed, baseline.deals[d].shed);
    EXPECT_EQ(threaded.deals[d].admission_retries,
              baseline.deals[d].admission_retries);
  }

  // And the same options replay the same report, sheds and all.
  TrafficReport replay = RunTraffic(options);
  EXPECT_EQ(replay.fingerprint, baseline.fingerprint);
  EXPECT_EQ(replay.shed, baseline.shed);
  EXPECT_EQ(replay.Summary(), baseline.Summary());
}

TEST(TrafficEngineTest, AdmissionControllerBoundsLatencyUnderOverload) {
  TrafficOptions options = CongestedOpenLoopOptions();
  TrafficReport off = RunTraffic(options);

  options.admission = StockController();
  TrafficReport on = RunTraffic(options);

  // Without backpressure the overload shows up as stretched deadlines:
  // many Property-3 violations and a P99 far above the uncongested norm.
  EXPECT_GT(off.violations.size(), 20u) << off.Summary();
  EXPECT_EQ(off.shed, 0u);

  // The controller sheds load instead, keeps most admitted deals healthy,
  // and measurably bounds tail latency versus the uncontrolled run.
  EXPECT_GT(on.shed, 0u) << on.Summary();
  EXPECT_LT(on.latency_p99, off.latency_p99) << "on:\n"
                                             << on.Summary() << "off:\n"
                                             << off.Summary();
  EXPECT_LT(on.violations.size(), off.violations.size());
  EXPECT_GT(on.deals_per_ktick, off.deals_per_ktick);

  // Shed deals were never deployed; their fate is recorded, not lost.
  size_t shed_records = 0;
  for (const TrafficDealRecord& rec : on.deals) {
    if (rec.shed) {
      ++shed_records;
      EXPECT_FALSE(rec.started);
      EXPECT_EQ(rec.settle_time, 0u);
      EXPECT_TRUE(rec.violation.empty()) << rec.violation;
    }
  }
  EXPECT_EQ(shed_records, on.shed);
  EXPECT_GT(on.peak_occupancy_seen,
            options.admission.max_chain_occupancy);
}

TEST(TrafficEngineTest, DelayedAdmissionIsRecordedConsistently) {
  // Retry budget long enough to outlast the arrival burst: deals arriving
  // into a congested window park in delay-retry until the queues drain,
  // then admit — so the report records delayed-but-served deals, not just
  // sheds.
  TrafficOptions options = CongestedOpenLoopOptions();
  options.admission = StockController();
  options.admission.max_retries = 60;
  options.admission.retry_delay = 15;
  TrafficReport report = RunTraffic(options);

  EXPECT_GT(report.delayed_deals, 0u) << report.Summary();
  EXPECT_GT(report.admission_retries, 0u);
  size_t delayed = 0;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.shed) continue;
    EXPECT_GE(rec.admitted_at, rec.arrival_at);
    EXPECT_EQ(rec.admission_wait, rec.admitted_at - rec.arrival_at);
    if (rec.admitted_at > rec.arrival_at) {
      ++delayed;
      EXPECT_GT(rec.admission_retries, 0u);
      // A delayed deal waited a whole number of retry quanta.
      EXPECT_EQ(rec.admission_wait % 15, 0u);
      if (rec.all_settled) {
        // Sojourn latency includes the admission wait.
        EXPECT_EQ(rec.latency, rec.settle_time - rec.arrival_at);
      }
    }
  }
  EXPECT_EQ(delayed, report.delayed_deals);
  EXPECT_EQ(report.max_admission_wait % 15, 0u);
  EXPECT_GT(report.max_admission_wait, 0u);
}

TEST(TrafficEngineTest, BacklogThresholdIgnoresTheEnginesOwnArrivalEvents) {
  // Every deal's arrival event sits in the same scheduler queue the
  // controller reads as its backlog signal. A threshold far below D on a
  // lightly loaded system must not shed anything: the controller subtracts
  // the engine's own not-yet-fired arrival/retry events, so only real work
  // (protocol phases, block production, observations) counts as backlog.
  // 900 pending arrival events at t=0 vs a threshold of 800: counting its
  // own events would shed the early deals outright on this idle system.
  // The 700-tick stagger exceeds a timelock deal's ~600-tick lifetime, so
  // deals never overlap and the real backlog at every arrival instant is
  // just a handful of lingering watchdog timers — far below the threshold.
  // (One in-flight deal alone holds hundreds of scheduled phase events,
  // which IS real backlog; zero overlap keeps that signal out of frame.)
  TrafficOptions options;
  options.base_seed = 3;
  options.num_deals = 900;
  options.num_chains = 8;
  options.arrival = ArrivalProcess::kFixedStagger;
  options.mean_interarrival = 700;
  options.protocol_mix = {Protocol::kTimelock};
  options.admission.enabled = true;
  options.admission.max_scheduler_backlog = 800;  // < num_deals
  options.admission.max_retries = 0;              // any false signal sheds
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.shed, 0u) << report.Summary();
  EXPECT_EQ(report.committed, 900u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  // The controller really was consulted against a drained queue.
  EXPECT_LT(report.peak_backlog_seen, 100u) << report.Summary();
}

TEST(TrafficEngineTest, ControllerWithSlackThresholdsChangesNothing) {
  // A controller that never triggers admits every deal at its arrival
  // tick: same schedule and outcomes as no controller, even though the
  // deployment moved onto the scheduler. (Fingerprints differ by design —
  // the open-loop fold covers admission fate — so compare the substance.)
  TrafficOptions options;
  options.base_seed = 13;
  options.num_deals = 30;
  options.num_chains = 6;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 20.0;
  TrafficReport plain = RunTraffic(options);

  options.admission.enabled = true;  // thresholds 0 = never over
  TrafficReport controlled = RunTraffic(options);

  EXPECT_EQ(controlled.shed, 0u);
  EXPECT_EQ(controlled.delayed_deals, 0u);
  EXPECT_EQ(controlled.committed, plain.committed);
  EXPECT_EQ(controlled.violations.size(), plain.violations.size());
  ASSERT_EQ(controlled.deals.size(), plain.deals.size());
  for (size_t d = 0; d < plain.deals.size(); ++d) {
    EXPECT_EQ(controlled.deals[d].admitted_at, plain.deals[d].admitted_at);
    EXPECT_EQ(controlled.deals[d].committed, plain.deals[d].committed);
  }
}

TEST(TrafficEngineTest, ProtocolMixIsRespected) {
  TrafficOptions options = SmallOptions();
  options.protocol_mix = {Protocol::kCbc};
  TrafficReport report = RunTraffic(options);
  EXPECT_EQ(report.cbc_deals, options.num_deals);
  EXPECT_EQ(report.timelock_deals, 0u);
  EXPECT_EQ(report.committed, options.num_deals) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
}

}  // namespace
}  // namespace xdeal
