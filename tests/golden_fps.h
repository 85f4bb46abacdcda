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
  options.mean_interarrival = 20;
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

/// Gated single-broker deals under broker crashes: seed 9, 40 Poisson
/// deals on 4 chains, 2 brokers whose capital (300 coins) and inventory
/// (4 units) each cover a few 1-2 unit deals, the admission gate on, and
/// the brokers crashed at ticks 100 and 180 and recovered 150 ticks later.
/// While a broker is down her reservation book counts nothing, so the gate
/// admits against her bare balance and some of her escrows bounce.
inline TrafficOptions GoldenBrokerCrashOptions() {
  TrafficOptions options;
  options.base_seed = 9;
  options.num_deals = 40;
  options.num_chains = 4;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 30.0;
  options.brokers.num_brokers = 2;
  options.brokers.working_capital = 300;
  options.brokers.inventory = 4;
  options.brokers.min_units = 1;
  options.brokers.max_units = 2;
  options.admission.enabled = true;
  options.admission.retry_delay = 40;
  options.admission.max_retries = 10;
  options.broker_crash_times = {100, 180};
  options.broker_recover_after = 150;
  return options;
}
inline constexpr uint64_t kGoldenFpBrokerCrashSeed9 = 0x3400bdf7ab664c00ULL;

/// Gated, occupancy-priced resale chains of depth 3: seed 13, 30 Poisson
/// deals on 6 chains, 3 brokers with 1500 coins each, margin_slope 150,
/// the admission gate on. About half the chains are delayed or shed.
inline TrafficOptions GoldenBrokerHopPricedOptions() {
  TrafficOptions options;
  options.base_seed = 13;
  options.num_deals = 30;
  options.num_chains = 6;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 50.0;
  options.brokers.num_brokers = 3;
  options.brokers.working_capital = 1500;
  options.brokers.hop_depth = 3;
  options.brokers.margin_slope = 150;
  options.admission.enabled = true;
  options.admission.retry_delay = 50;
  options.admission.max_retries = 10;
  return options;
}
inline constexpr uint64_t kGoldenFpBrokerHopPricedSeed13 =
    0x78489919ae278aeaULL;

/// The ungated over-commit: seed 5, 16 timelock deals on 4 chains, one
/// broker whose 100 coins cover one buy-side deal at a time and no
/// admission gate, so her concurrent escrow pulls bounce on chain.
inline TrafficOptions GoldenBrokerOverCommitOptions() {
  TrafficOptions options;
  options.base_seed = 5;
  options.num_deals = 16;
  options.num_chains = 4;
  options.mean_interarrival = 20;
  options.protocol_mix = {Protocol::kTimelock};
  options.brokers.num_brokers = 1;
  options.brokers.working_capital = 100;
  options.brokers.inventory = 64;
  options.brokers.min_units = 1;
  options.brokers.max_units = 1;
  return options;
}
inline constexpr uint64_t kGoldenFpBrokerOverCommitSeed5 =
    0x9df7802c0cd33765ULL;

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

/// ServiceReport::final_fingerprint of checkpoint_test's
/// AdmissionServiceOptions() (priced two-hop chains behind the gate) and
/// CrashServiceOptions() (broker crashes spanning an epoch boundary) after
/// 3 epochs.
inline constexpr uint64_t kGoldenFpAdmissionService = 0x567f5505d27e6dceULL;
inline constexpr uint64_t kGoldenFpCrashService = 0x91ab5f0c86df22a6ULL;

/// Size and SHA-256 of one TrafficService::Checkpoint() snapshot.
struct SnapshotPin {
  size_t bytes;
  const char* sha256;
};
/// checkpoint_test's ServiceOptions() after epochs 1 and 3.
inline constexpr SnapshotPin kGoldenServiceSnapshot[] = {
    {4327, "4cbbd4950cb41e3a902dd4925705c7e9b9b4d9b764486d339e29ddd04fad3506"},
    {10966,
     "62c1ee6f5057462f2be4233f303027cfa7165065e125df328a6f92ebf397a89d"}};
/// checkpoint_test's AdmissionServiceOptions() (brokers, 2-hop chains)
/// after epoch 2.
inline constexpr SnapshotPin kGoldenAdmissionSnapshot = {
    9704, "6b0788bd9ca55291f6d11fcb11600e60b0562e2fe5202e78b25c614a53e5ccb6"};
/// The configuration of ReconfigurationBeyondTheCheckpointSurvivesRestore
/// after epochs 1 and 2.
inline constexpr SnapshotPin kGoldenReconfigSnapshot[] = {
    {5380, "2073358cce0532300bfa8d999931f6c04c2b098e79d25f3b8dbe376ebb711192"},
    {9538, "323baac0d318198a757fb080ac583e035d1efbed6e70c91ceb0e66ff0127c374"}};
/// The configuration of CrashInjectionSurvivesRestore after epochs 1 and 2.
inline constexpr SnapshotPin kGoldenCrashSnapshot[] = {
    {4731, "8a35b3474bf6b9873e461d683292743b154701f1f62b783348bf28e2f19b3fea"},
    {8148, "d795b5158b434eb660e406c879174b8a672d1653a1f7fd8e92917b5e005e8f93"}};

}  // namespace xdeal

#endif  // XDEAL_TESTS_GOLDEN_FPS_H_
