// Tests for the exhaustive interleaving explorer (core/explore.h): the
// independence relation, choose-point determinism (default policy ==
// no policy == empty script), DPOR enumeration of honest and adversarial
// cells, bit-exact trace replay, thread-count independence, and the
// fault-injection seam.

#include <gtest/gtest.h>

#include "core/explore.h"
#include "core/scenario_sweep.h"
#include "golden_fps.h"

namespace xdeal {
namespace {

ScenarioSpec MakeSpec(Protocol protocol, SweepNetwork network,
                      SweepShape shape, uint64_t seed,
                      SweepAdversary adversary = SweepAdversary::kNone,
                      uint32_t position = 0) {
  ScenarioSpec sc;
  sc.seed = seed;
  sc.shape = shape;
  sc.protocol = protocol;
  sc.adversary = adversary;
  sc.network = network;
  sc.position = position;
  return sc;
}

// The smallest interesting cells: 2 parties, 1 asset, 2 transfers, 1 chain.
const SweepShape kTinyShape{2, 1, 2, 1, 0};

// The smallest cross-chain cells: 2 parties swapping 2 assets across 2
// chains. Commit requires cross-chain vote forwarding (§5.1), which is what
// the §5.3 DoS window and the fault-injection policy attack.
const SweepShape kTwoChainShape{2, 2, 3, 2, 0};

TEST(DependentEventsTest, InternalConflictsWithEverything) {
  EventLabel internal;  // kInternal
  EXPECT_TRUE(DependentEvents(internal, internal));
  EXPECT_TRUE(DependentEvents(internal, EventLabel::TxArrival(0, 1)));
  EXPECT_TRUE(DependentEvents(EventLabel::Timer(3), internal));
}

TEST(DependentEventsTest, ChainEventsConflictOnTheSameChain) {
  EXPECT_TRUE(DependentEvents(EventLabel::TxArrival(0, 1),
                              EventLabel::TxArrival(0, 2)));
  EXPECT_FALSE(DependentEvents(EventLabel::TxArrival(0, 1),
                               EventLabel::TxArrival(1, 1)));
  EXPECT_TRUE(DependentEvents(EventLabel::BlockProduction(0),
                              EventLabel::TxArrival(0, 1)));
  EXPECT_FALSE(DependentEvents(EventLabel::BlockProduction(0),
                               EventLabel::TxArrival(1, 1)));
  EXPECT_FALSE(DependentEvents(EventLabel::BlockProduction(0),
                               EventLabel::BlockProduction(1)));
}

TEST(DependentEventsTest, BlockProductionConflictsWithPartyEvents) {
  // Parties read chain state from their hooks, whatever the chain.
  EXPECT_TRUE(DependentEvents(EventLabel::BlockProduction(0),
                              EventLabel::Observation(1, 7)));
  EXPECT_TRUE(DependentEvents(EventLabel::Timer(7),
                              EventLabel::BlockProduction(0)));
}

TEST(DependentEventsTest, PartyEventsConflictOnlyOnTheSameActor) {
  EXPECT_TRUE(DependentEvents(EventLabel::Observation(0, 7),
                              EventLabel::Timer(7)));
  EXPECT_FALSE(DependentEvents(EventLabel::Observation(0, 7),
                               EventLabel::Observation(0, 8)));
  EXPECT_FALSE(DependentEvents(EventLabel::Timer(7), EventLabel::Timer(8)));
  // A mempool append is invisible to parties until block production.
  EXPECT_FALSE(DependentEvents(EventLabel::TxArrival(0, 7),
                               EventLabel::Observation(0, 7)));
}

TEST(ExploreRunTest, DefaultPolicyAndEmptyScriptMatchNoPolicy) {
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kSynchronous, kTinyShape,
               11);
  ScenarioOutcome no_policy = RunCellWithPolicy(cell, nullptr);
  DefaultChoicePolicy default_policy;
  ScenarioOutcome with_default = RunCellWithPolicy(cell, &default_policy);
  ScriptedChoicePolicy empty_script((std::vector<uint32_t>()));
  ScenarioOutcome with_script = RunCellWithPolicy(cell, &empty_script);

  EXPECT_TRUE(no_policy.started);
  EXPECT_EQ(no_policy.fingerprint, with_default.fingerprint);
  EXPECT_EQ(no_policy.fingerprint, with_script.fingerprint);
  EXPECT_EQ(no_policy.violation, "");
}

TEST(ExploreDealTest, HonestTimelockCellConformsInEveryOrder) {
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kSynchronous, kTinyShape,
               11);
  ExploreOptions options;
  ExploreReport report = ExploreDeal(cell, options);

  EXPECT_TRUE(report.stats.complete);
  EXPECT_GT(report.stats.orders, 1u);
  EXPECT_EQ(report.violation_count, 0u);
  EXPECT_EQ(report.committed, report.stats.orders);
  EXPECT_EQ(report.stats.sleep_blocked, 0u);
  EXPECT_EQ(report.stats.executions,
            report.stats.orders + report.stats.sleep_blocked);
}

TEST(ExploreDealTest, HonestCbcCellConformsInEveryOrder) {
  ScenarioSpec cell =
      MakeSpec(Protocol::kCbc, SweepNetwork::kSynchronous, kTinyShape, 11);
  ExploreOptions options;
  ExploreReport report = ExploreDeal(cell, options);

  EXPECT_TRUE(report.stats.complete);
  EXPECT_GT(report.stats.orders, 1u);
  EXPECT_EQ(report.violation_count, 0u);
  EXPECT_EQ(report.committed, report.stats.orders);
  EXPECT_EQ(report.stats.sleep_blocked, 0u);
}

TEST(ExploreDealTest, ExplorationIsDeterministic) {
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kSynchronous, kTinyShape,
               23);
  ExploreOptions options;
  ExploreReport a = ExploreDeal(cell, options);
  ExploreReport b = ExploreDeal(cell, options);

  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.stats.orders, b.stats.orders);
  EXPECT_EQ(a.stats.executions, b.stats.executions);
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST(ExploreDealTest, ReportIsBitIdenticalAcrossThreadCounts) {
  // One search per cell; the exhaustive sweep spreads the cells over its
  // workers and folds them in matrix order.
  SweepAxes axes;
  axes.shapes = {kTinyShape};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {SweepAdversary::kNone, SweepAdversary::kCrashAtCommit};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kDosWindow};
  axes.positions = {0, 1};
  SweepOptions one;
  one.base_seed = 23;
  one.mode = SweepMode::kExhaustive;
  one.num_threads = 1;
  SweepOptions four = one;
  four.num_threads = 4;
  ExhaustiveSweepReport a = RunExhaustiveSweep(axes, one);
  ExhaustiveSweepReport b = RunExhaustiveSweep(axes, four);

  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.orders, b.orders);
  EXPECT_EQ(a.sleep_blocked, b.sleep_blocked);
}

TEST(ExploreDealTest, AdversarialCellNeverHurtsCompliantParties) {
  // A crash-at-commit deviator: the deal must abort (or settle safely) in
  // every inequivalent order, not just the sampled one.
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kSynchronous, kTinyShape,
               31, SweepAdversary::kCrashAtCommit, 0);
  ExploreOptions options;
  ExploreReport report = ExploreDeal(cell, options);

  EXPECT_TRUE(report.stats.complete);
  EXPECT_GT(report.stats.orders, 0u);
  EXPECT_EQ(report.violation_count, 0u);
}

TEST(ExploreDealTest, RediscoversSeededDosViolationWithReplayableTrace) {
  // The §5.3 targeted-DoS window that the seeded sweeps catch by sampling
  // (scenario_sweep_test's seeded reproducer): every party except the
  // beneficiary is cut off right after votes are cast, so the victim never
  // observes the beneficiary's vote on its outgoing chain and cannot forward
  // it — the beneficiary's chain releases while the victim's refunds.
  // The attack needs a cross-chain deal (forwarding is the casualty) and a
  // beneficiary whose incoming chain completes first (position 1 here).
  // Exhaustive enumeration proves the violation is not a sampling artifact —
  // every inequivalent order violates — and each violating order carries an
  // exact choice trace, replayable bit-for-bit.
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kDosWindow, kTwoChainShape,
               97, SweepAdversary::kNone, /*position=*/1);
  ExploreOptions options;
  ExploreReport report = ExploreDeal(cell, options);

  EXPECT_TRUE(report.stats.complete);
  ASSERT_GT(report.violation_count, 0u);
  EXPECT_EQ(report.violation_count, report.stats.orders);  // all orders lose
  EXPECT_EQ(report.mixed, report.stats.orders);
  ASSERT_FALSE(report.violations.empty());
  const ExploreViolation& v = report.violations.front();
  EXPECT_NE(v.what.find("property1-safety"), std::string::npos);

  ScenarioOutcome replay = ReplayTrace(cell, v.trace);
  EXPECT_EQ(replay.violation, v.what);
  ScenarioOutcome replay2 = ReplayTrace(cell, v.trace);
  EXPECT_EQ(replay.fingerprint, replay2.fingerprint);
}

TEST(ExploreDealTest, ViolationIndicesAreCellWideAndReplay) {
  // Keep every reproducer of the §5.3 DoS cell, where every order violates:
  // the indices count the cell's terminal runs in exploration order, and
  // each trace replays to the violation it was recorded with.
  ScenarioSpec cell =
      MakeSpec(Protocol::kTimelock, SweepNetwork::kDosWindow, kTwoChainShape,
               97, SweepAdversary::kNone, /*position=*/1);
  ExploreOptions options;
  options.max_violations = 1 << 20;
  ExploreReport report = ExploreDeal(cell, options);

  ASSERT_GT(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.size(), report.violation_count);
  for (size_t i = 0; i < report.violations.size(); ++i) {
    const ExploreViolation& v = report.violations[i];
    EXPECT_LT(v.execution_index, report.stats.orders);
    if (i > 0) {
      EXPECT_GT(v.execution_index, report.violations[i - 1].execution_index);
    }
    EXPECT_EQ(ReplayTrace(cell, v.trace).violation, v.what) << i;
  }
}

TEST(ExhaustiveSweepTest, CuratedMatrixProvesCellsAndCountsViolations) {
  SweepAxes axes;
  axes.shapes = {kTwoChainShape};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {SweepAdversary::kNone};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kDosWindow};
  axes.positions = {1};  // DoS beneficiary whose incoming chain wins
  axes.seeds_per_cell = 1;

  SweepOptions options;
  options.base_seed = 7;
  options.mode = SweepMode::kExhaustive;
  options.num_threads = 4;
  ExhaustiveSweepReport report = RunExhaustiveSweep(axes, options);

  // timelock×{sync, dos} + cbc×sync (the DoS window is timelock-only).
  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.orders, 0u);
  EXPECT_EQ(report.violation_cells, 1u);  // exactly the DoS cell
  for (const ExhaustiveCellOutcome& cell : report.cells) {
    if (cell.spec.network == SweepNetwork::kDosWindow) {
      EXPECT_GT(cell.report.violation_count, 0u);
    } else {
      EXPECT_EQ(cell.report.violation_count, 0u);
    }
  }
}

TEST(ExhaustiveSweepTest, BenchMatrixCountsArePinned) {
  SweepOptions options;
  options.base_seed = 1;
  options.mode = SweepMode::kExhaustive;
  options.num_threads = 4;
  ExhaustiveSweepReport report =
      RunExhaustiveSweep(GoldenExploreAxes(), options);

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.orders, kGoldenExploreOrders);
  EXPECT_EQ(report.sleep_blocked, kGoldenExploreSleepBlocked);
  EXPECT_EQ(report.executions, kGoldenExploreExecutions);
  EXPECT_EQ(report.violations, kGoldenExploreViolations);
  EXPECT_EQ(report.fingerprint, kGoldenExploreFp) << report.Summary();
}

TEST(ExhaustiveSweepTest, WideAdversarialMatrixIsPinned) {
  SweepOptions options;
  options.base_seed = 1;
  options.mode = SweepMode::kExhaustive;
  options.num_threads = 4;
  ExhaustiveSweepReport report =
      RunExhaustiveSweep(GoldenWideExploreAxes(), options);

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.cells.size(), kGoldenWideExploreCells);
  EXPECT_EQ(report.orders, kGoldenWideExploreOrders);
  EXPECT_EQ(report.violations, kGoldenWideExploreViolations);
  EXPECT_EQ(report.violation_cells, kGoldenWideExploreViolationCells);
  EXPECT_EQ(report.fingerprint, kGoldenWideExploreFp) << report.Summary();
}

TEST(ExhaustiveSweepTest, ExplorabilityPredicateFiltersTheMatrix) {
  EXPECT_TRUE(ExhaustivelyExplorable(MakeSpec(
      Protocol::kTimelock, SweepNetwork::kSynchronous, kTinyShape, 1)));
  EXPECT_TRUE(ExhaustivelyExplorable(MakeSpec(
      Protocol::kCbc, SweepNetwork::kDosWindow, kTinyShape, 1)));
  EXPECT_FALSE(ExhaustivelyExplorable(MakeSpec(
      Protocol::kHtlc, SweepNetwork::kSynchronous, kTinyShape, 1)));
  EXPECT_FALSE(ExhaustivelyExplorable(MakeSpec(
      Protocol::kCbc, SweepNetwork::kPreGstAsync, kTinyShape, 1)));
  SweepShape big = kTinyShape;
  big.n_parties = 5;
  EXPECT_FALSE(ExhaustivelyExplorable(
      MakeSpec(Protocol::kTimelock, SweepNetwork::kSynchronous, big, 1)));
}

TEST(FaultInjectionTest, DroppedObservationsReachUnsampledFailures) {
  // Blind one party of a cross-chain deal to every receipt notification: a
  // failure mode outside every network model's sample space (delays are
  // finite; loss is not), so no seeded sweep can reach it — but the
  // choose-point seam can, and the checker still classifies the outcome.
  // The blinded party never observes its counterparty's vote on its outgoing
  // chain, so it cannot forward it (§5.1) and its own incoming chain times
  // out — the hand-built analog of the §5.3 DoS outcome.
  ScenarioSpec cell =MakeSpec(
      Protocol::kTimelock, SweepNetwork::kSynchronous, kTwoChainShape, 11);
  ScenarioOutcome clean = RunCellWithPolicy(cell, nullptr);
  ASSERT_EQ(clean.violation, "");
  ASSERT_TRUE(clean.committed);

  DropRule rule;
  rule.kind = EventKind::kObservation;
  rule.actor = 0;  // the first registered party
  FaultInjectionPolicy policy({rule});
  ScenarioOutcome faulty = RunCellWithPolicy(cell, &policy);

  EXPECT_GT(policy.dropped(), 0u);
  EXPECT_NE(faulty.fingerprint, clean.fingerprint);
  // The blinded party's incoming chain refunds while the sighted party's
  // releases: the commit splits, exactly the §5.3 loss shape.
  EXPECT_FALSE(faulty.committed);
  EXPECT_TRUE(faulty.mixed);

  // The same faults replay deterministically.
  FaultInjectionPolicy policy2({rule});
  ScenarioOutcome faulty2 = RunCellWithPolicy(cell, &policy2);
  EXPECT_EQ(faulty.fingerprint, faulty2.fingerprint);
}

}  // namespace
}  // namespace xdeal
