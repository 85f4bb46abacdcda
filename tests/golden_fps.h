// Golden fingerprints: the one place the exact output of the traffic
// engine, the sampled sweep and the DPOR explorer is pinned.
//
// The traffic constants are the TrafficReport fingerprint of RunTraffic
// over the configuration built beside them. They pin the whole engine —
// deal generation, the protocol drivers, indexed observation delivery, the
// checker and the report fold — so any change to the wire traffic or to
// the fold moves them. The sweep and explore constants pin the single-deal
// runner the same way: RunSweep over the stock matrix, and
// RunExhaustiveSweep over the bench_explore matrix. The snapshot pins fix
// the checkpoint wire format byte for byte.
//
// If a change legitimately alters the fingerprint (i.e. the observable
// wire traffic changed on purpose), update the constants HERE — once —
// and say why in the commit message. Never fork a private copy in a test.

#ifndef XDEAL_TESTS_GOLDEN_FPS_H_
#define XDEAL_TESTS_GOLDEN_FPS_H_

#include <cstddef>
#include <cstdint>

#include "core/scenario_sweep.h"
#include "core/traffic_engine.h"

namespace xdeal {

/// seed 101, 40 deals, 6 chains, default protocol mix, stock options.
inline TrafficOptions GoldenMixedOptions() {
  TrafficOptions options;
  options.base_seed = 101;
  options.num_deals = 40;
  options.num_chains = 6;
  return options;
}
inline constexpr uint64_t kGoldenFpMixedSeed101 = 0x18a7c1d300a981a3ULL;

/// seed 202, 30 deals, 4 chains, all-kCbc mix, stock options.
inline TrafficOptions GoldenCbcOptions() {
  TrafficOptions options;
  options.base_seed = 202;
  options.num_deals = 30;
  options.num_chains = 4;
  options.protocol_mix = {Protocol::kCbc};
  return options;
}
inline constexpr uint64_t kGoldenFpCbcSeed202 = 0x9eb4ae26fd1e44b3ULL;

/// One batch that exercises every receipt-evidence path at once: seed 5,
/// 24 deals on 4 chains, timelock/CBC mix on 2 CBC shards, one broker with
/// too little capital for her deals (so her escrows bounce), an injected
/// double-spend at deal 7, a stale-proof replay at deal 9, and the
/// full-scan receipt-index oracle on.
inline TrafficOptions GoldenEvidenceOptions() {
  TrafficOptions options;
  options.base_seed = 5;
  options.num_deals = 24;
  options.num_chains = 4;
  options.admission_gap = 20;
  options.protocol_mix = {Protocol::kTimelock, Protocol::kCbc};
  options.cbc_shards = 2;
  options.brokers.num_brokers = 1;
  options.brokers.broker_every = 4;
  options.brokers.working_capital = 100;
  options.brokers.min_units = 1;
  options.brokers.max_units = 1;
  options.double_spend_deals = {7};
  options.stale_proof_deals = {9};
  options.fullscan_oracle = true;
  return options;
}
inline constexpr uint64_t kGoldenFpEvidenceSeed5 = 0x82434d8d2df1b58dULL;

/// RunSweep(DefaultSweepAxes()) report fingerprints at base seeds 1, 2, 3.
inline constexpr uint64_t kGoldenSweepFp[] = {
    0x690ed9b5673a49dbULL, 0x8e4af853cfdc395aULL, 0xee82769f476192e3ULL};

/// The bench_explore matrix, copied from ExploreAxes() in
/// bench/bench_explore.cpp (run there at base seed 1): 2-party timelock and
/// CBC cells on one and two chains, synchronous and §5.3 DoS window,
/// beneficiary at position 1.
inline SweepAxes GoldenExploreAxes() {
  SweepAxes axes;
  axes.shapes = {{2, 1, 2, 1, 0}, {2, 2, 3, 2, 0}};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {SweepAdversary::kNone};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kDosWindow};
  axes.positions = {1};
  axes.seeds_per_cell = 1;
  return axes;
}
/// RunExhaustiveSweep(GoldenExploreAxes()) at base seed 1.
inline constexpr uint64_t kGoldenExploreOrders = 876;
inline constexpr uint64_t kGoldenExploreSleepBlocked = 0;
inline constexpr uint64_t kGoldenExploreExecutions = 876;
inline constexpr uint64_t kGoldenExploreViolations = 576;
inline constexpr uint64_t kGoldenExploreFp = 0x3b64f45388dc35a6ULL;

/// A wider exhaustive matrix: the bench_explore shapes plus a 3-party
/// single-chain one, every adversary, synchronous and §5.3 DoS window,
/// deviator (or beneficiary) at positions 0 and 1.
inline SweepAxes GoldenWideExploreAxes() {
  SweepAxes axes;
  axes.shapes = {{2, 1, 2, 1, 0}, {2, 2, 3, 2, 0}, {3, 1, 3, 1, 0}};
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {
      SweepAdversary::kNone,           SweepAdversary::kCrashAtEscrow,
      SweepAdversary::kCrashAtTransfer, SweepAdversary::kCrashAtCommit,
      SweepAdversary::kVoteWithholding, SweepAdversary::kNonForwarding,
      SweepAdversary::kOfflineAfterVote, SweepAdversary::kDoubleSpend,
      SweepAdversary::kShortTransfer,  SweepAdversary::kLateVote,
      SweepAdversary::kCbcCrashBeforeVote, SweepAdversary::kCbcAlwaysAbort,
      SweepAdversary::kCbcRescindRacer, SweepAdversary::kCbcFakeProof};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kDosWindow};
  axes.positions = {0, 1};
  axes.seeds_per_cell = 1;
  return axes;
}
/// RunExhaustiveSweep(GoldenWideExploreAxes()) at base seed 1.
inline constexpr uint64_t kGoldenWideExploreCells = 90;
inline constexpr uint64_t kGoldenWideExploreOrders = 4617;
inline constexpr uint64_t kGoldenWideExploreViolations = 576;
inline constexpr uint64_t kGoldenWideExploreViolationCells = 1;
inline constexpr uint64_t kGoldenWideExploreFp = 0xb395561890fe7da2ULL;

/// Size and SHA-256 of one TrafficService::Checkpoint() snapshot.
struct SnapshotPin {
  size_t bytes;
  const char* sha256;
};
/// checkpoint_test's ServiceOptions() after epochs 1 and 3.
inline constexpr SnapshotPin kGoldenServiceSnapshot[] = {
    {4331, "b611b3dd8a1c7dcc7492c52c46f2c54bd484552c0eb5edf024db68dd4d269e00"},
    {10970,
     "3a7cb722028715686e4aee541c0f183bab173b827969be6edebf19cb2c9c7a01"}};
/// checkpoint_test's AdmissionServiceOptions() (brokers, 2-hop chains)
/// after epoch 2.
inline constexpr SnapshotPin kGoldenAdmissionSnapshot = {
    10200, "e7cd1ed0239eecd2151fd91e48dadc661ed77e8e6606e721bdde4507932ec113"};
/// The configuration of ReconfigurationBeyondTheCheckpointSurvivesRestore
/// after epochs 1 and 2.
inline constexpr SnapshotPin kGoldenReconfigSnapshot[] = {
    {5384, "b7ca51ac2e0542667fc1bc399baed04ad6179b92bbfa301dbaa1ab33786b599d"},
    {9542, "1f6e5788f6181be17c544efc35d63b707e970a42723269a95e0f0e87bf16afed"}};
/// The configuration of CrashInjectionSurvivesRestore after epochs 1 and 2.
inline constexpr SnapshotPin kGoldenCrashSnapshot[] = {
    {4787, "e3c9ef1b663a2b282538c5d046a27808dd6515e5a68a1416dc9e0508caa72968"},
    {8256, "3a2871a2720ad1ba98f3eb763608f24b8fbf01d8e8ef437a7e2de7954b4f95be"}};

}  // namespace xdeal

#endif  // XDEAL_TESTS_GOLDEN_FPS_H_
