// ScenarioSweep engine: the scenario matrix is stable and seed-derived, a
// sweep report is bit-identical across thread counts, honest runs are
// conformant, and a seeded §5.3-style violation is caught and reported with
// its reproducer seed.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/scenario_sweep.h"
#include "golden_fps.h"

namespace xdeal {
namespace {

SweepAxes SmallAxes() {
  SweepAxes axes;
  axes.shapes = {{3, 2, 5, 2, 0}, {4, 3, 8, 2, 0}};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc,
                    Protocol::kHtlc};
  axes.adversaries = {SweepAdversary::kNone, SweepAdversary::kCrashAtCommit,
                      SweepAdversary::kVoteWithholding,
                      SweepAdversary::kCbcAlwaysAbort,
                      SweepAdversary::kCbcRescindRacer};
  axes.networks = {SweepNetwork::kSynchronous};
  axes.positions = {0, 1};
  axes.seeds_per_cell = 1;
  return axes;
}

TEST(ScenarioMatrixTest, StableIndicesAndDerivedSeeds) {
  SweepAxes axes = SmallAxes();
  std::vector<ScenarioSpec> a = BuildScenarioMatrix(axes, 42);
  std::vector<ScenarioSpec> b = BuildScenarioMatrix(axes, 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].seed, ScenarioSeed(42, i));
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].protocol, b[i].protocol);
    EXPECT_EQ(a[i].adversary, b[i].adversary);
    EXPECT_EQ(a[i].network, b[i].network);
    EXPECT_EQ(a[i].position, b[i].position);
  }
  // Different base seed -> different scenario seeds, same structure.
  std::vector<ScenarioSpec> c = BuildScenarioMatrix(axes, 43);
  ASSERT_EQ(a.size(), c.size());
  EXPECT_NE(a[0].seed, c[0].seed);
}

TEST(ScenarioMatrixTest, InapplicableCombinationsAreSkipped) {
  SweepAxes axes;
  axes.shapes = {{3, 2, 5, 2, 0}};
  axes.protocols = {Protocol::kTimelock};
  axes.adversaries = {SweepAdversary::kNone, SweepAdversary::kCbcAlwaysAbort};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kPreGstAsync};
  std::vector<ScenarioSpec> specs = BuildScenarioMatrix(axes, 1);
  // CBC-only adversaries and pre-GST asynchrony never pair with timelock.
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].adversary, SweepAdversary::kNone);
  EXPECT_EQ(specs[0].network, SweepNetwork::kSynchronous);
}

TEST(ScenarioSweepTest, ReportBitIdenticalAcrossThreadCounts) {
  SweepAxes axes = SmallAxes();
  SweepOptions one;
  one.base_seed = 7;
  one.num_threads = 1;
  SweepReport baseline = RunSweep(axes, one);

  for (size_t threads : {2u, 4u}) {
    SweepOptions opts;
    opts.base_seed = 7;
    opts.num_threads = threads;
    SweepReport report = RunSweep(axes, opts);
    EXPECT_EQ(report.fingerprint, baseline.fingerprint)
        << "threads=" << threads;
    EXPECT_EQ(report.Summary(), baseline.Summary()) << "threads=" << threads;
    EXPECT_EQ(report.num_scenarios, baseline.num_scenarios);
    EXPECT_EQ(report.violations.size(), baseline.violations.size());
  }
}

TEST(ScenarioSweepTest, HonestRunsAreConformant) {
  SweepAxes axes;
  axes.shapes = {{2, 1, 2, 1, 0}, {3, 2, 5, 2, 0}, {4, 3, 8, 3, 3}};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc,
                    Protocol::kHtlc};
  axes.adversaries = {SweepAdversary::kNone};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kPostGstSync};
  axes.seeds_per_cell = 2;
  SweepOptions opts;
  opts.base_seed = 11;
  opts.num_threads = 2;
  SweepReport report = RunSweep(axes, opts);

  EXPECT_GT(report.num_scenarios, 0u);
  EXPECT_EQ(report.honest_runs, report.num_scenarios);
  EXPECT_EQ(report.committed, report.num_scenarios) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
}

TEST(ScenarioSweepTest, AdversariesNeverHurtCompliantParties) {
  SweepAxes axes;
  axes.shapes = {{4, 3, 8, 2, 0}};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {
      SweepAdversary::kCrashAtEscrow, SweepAdversary::kCrashAtCommit,
      SweepAdversary::kVoteWithholding, SweepAdversary::kDoubleSpend,
      SweepAdversary::kShortTransfer, SweepAdversary::kCbcCrashBeforeVote,
      SweepAdversary::kCbcAlwaysAbort, SweepAdversary::kCbcFakeProof};
  axes.networks = {SweepNetwork::kSynchronous};
  axes.positions = {0, 2};
  axes.seeds_per_cell = 2;
  SweepOptions opts;
  opts.base_seed = 5;
  opts.num_threads = 2;
  SweepReport report = RunSweep(axes, opts);

  EXPECT_GT(report.num_scenarios, 0u);
  EXPECT_EQ(report.adversarial_runs, report.num_scenarios);
  // Whatever the deviators do, Properties 1 and 2 hold for everyone else.
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
}

TEST(ScenarioSweepTest, CbcPreGstAsynchronyStaysAtomicAndSafe) {
  // Pre-GST the network is asynchronous past every protocol deadline: CBC
  // deals may abort, but atomically, and Properties 1–2 must still hold —
  // with or without a deviating party.
  SweepAxes axes;
  axes.shapes = {{3, 2, 5, 2, 0}, {4, 3, 8, 2, 0}};
  axes.protocols = {Protocol::kCbc};
  axes.adversaries = {SweepAdversary::kNone, SweepAdversary::kCbcAlwaysAbort,
                      SweepAdversary::kCbcRescindRacer};
  axes.networks = {SweepNetwork::kPreGstAsync};
  axes.positions = {0, 1};
  axes.seeds_per_cell = 2;
  SweepOptions opts;
  opts.base_seed = 23;
  opts.num_threads = 2;
  SweepReport report = RunSweep(axes, opts);

  EXPECT_GT(report.num_scenarios, 0u);
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
}

TEST(ScenarioSweepTest, SeededDosViolationCaughtWithReproducerSeed) {
  // The §5.3 free-rider window: every party except the beneficiary is cut
  // off right after votes are cast, Δ is small, and the deal settles mixed —
  // the beneficiary keeps its own assets AND collects the others'. No party
  // deviated, so the checker counts everyone compliant and must flag
  // Property 1.
  SweepAxes axes;
  axes.shapes = {{3, 2, 6, 2, 0}};
  axes.protocols = {Protocol::kTimelock};
  axes.adversaries = {SweepAdversary::kNone};
  axes.networks = {SweepNetwork::kDosWindow};
  axes.positions = {0, 1, 2};
  axes.seeds_per_cell = 4;
  SweepOptions opts;
  opts.base_seed = 97;
  opts.num_threads = 2;
  SweepReport report = RunSweep(axes, opts);

  ASSERT_FALSE(report.violations.empty()) << report.Summary();

  // Every reported violation carries its reproducer: the scenario index and
  // the derived seed. Re-running that exact matrix entry reproduces the
  // violation bit-for-bit.
  std::vector<ScenarioSpec> specs = BuildScenarioMatrix(axes, opts.base_seed);
  for (const SweepViolation& v : report.violations) {
    ASSERT_LT(v.scenario_index, specs.size());
    const ScenarioSpec& spec = specs[v.scenario_index];
    EXPECT_EQ(v.seed, spec.seed);
    EXPECT_EQ(v.seed, ScenarioSeed(opts.base_seed, v.scenario_index));
    ScenarioOutcome replay = RunScenario(spec);
    EXPECT_EQ(replay.violation, v.what);
  }
  // The caught violation is the paper's Property 1 (safety) failure.
  bool saw_safety = false;
  for (const SweepViolation& v : report.violations) {
    if (v.what.find("property1-safety") != std::string::npos) {
      saw_safety = true;
    }
  }
  EXPECT_TRUE(saw_safety) << report.Summary();
}

TEST(ScenarioSweepTest, DefaultAxesFingerprintsArePinned) {
  // The stock matrix runs every single-deal path: timelock and CBC through
  // the driver runner, HTLC through the baseline. Its fingerprint pins the
  // outcome, gas, receipt count and settle time of all 804 scenarios.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SweepOptions opts;
    opts.base_seed = seed;
    opts.num_threads = 4;
    SweepReport report = RunSweep(DefaultSweepAxes(), opts);
    EXPECT_EQ(report.fingerprint, kGoldenSweepFp[seed - 1])
        << "base seed " << seed << "\n" << report.Summary();
    EXPECT_TRUE(report.violations.empty()) << report.Summary();
  }
}

TEST(ScenarioSweepTest, DefaultAxesMeetTheAcceptanceFloor) {
  SweepAxes axes = DefaultSweepAxes();
  std::vector<ScenarioSpec> specs = BuildScenarioMatrix(axes, 1);
  EXPECT_GE(specs.size(), 500u);

  // >= 4 distinct adversaries actually scheduled, across >= 2 protocols.
  std::set<SweepAdversary> adversaries;
  std::set<Protocol> protocols;
  for (const ScenarioSpec& sc : specs) {
    if (sc.adversary != SweepAdversary::kNone) adversaries.insert(sc.adversary);
    protocols.insert(sc.protocol);
  }
  EXPECT_GE(adversaries.size(), 4u);
  EXPECT_GE(protocols.size(), 2u);
}

TEST(ScenarioSweepTest, CbcPreGstDecideBeforeOwnEscrowIsRetried) {
  // Under pre-GST asynchrony a depositor's `decide` can land before its own
  // escrow, which is still in flight; the escrow rejects the unknown deal.
  // Weak liveness (Property 2) needs the decide retried once the deposit is
  // on chain. Each (base seed, index) pair is a stock-matrix scenario that
  // hit this, one of them with no deviating party at all.
  const std::pair<uint64_t, size_t> kReproducers[] = {
      {3, 776}, {5, 782}, {6, 369}, {6, 596}, {11, 595}, {12, 780}};
  for (const auto& [base_seed, index] : kReproducers) {
    std::vector<ScenarioSpec> specs =
        BuildScenarioMatrix(DefaultSweepAxes(), base_seed);
    ASSERT_LT(index, specs.size());
    const ScenarioSpec& spec = specs[index];
    ASSERT_EQ(spec.protocol, Protocol::kCbc);
    ASSERT_EQ(spec.network, SweepNetwork::kPreGstAsync);
    ScenarioOutcome outcome = RunScenario(spec);
    EXPECT_TRUE(outcome.violation.empty())
        << "base seed " << base_seed << ", scenario " << index << ", "
        << ToString(spec.adversary) << ": " << outcome.violation;
  }
}

}  // namespace
}  // namespace xdeal
