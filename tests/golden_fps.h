// Golden fingerprints: the one place the exact output of the traffic
// engine, the sampled sweep and the DPOR explorer is pinned.
//
// The traffic constants are the TrafficReport fingerprint of RunTraffic
// over the configuration built beside them. They pin the whole engine —
// deal generation, the protocol drivers, indexed observation delivery, the
// checker and the report fold — so any change to the wire traffic or to
// the fold moves them. The sweep and explore constants pin the single-deal
// runner the same way: RunSweep over the stock matrix, and
// RunExhaustiveSweep over the bench_explore matrix.
//
// If a change legitimately alters the fingerprint (i.e. the observable
// wire traffic changed on purpose), update the constants HERE — once —
// and say why in the commit message. Never fork a private copy in a test.

#ifndef XDEAL_TESTS_GOLDEN_FPS_H_
#define XDEAL_TESTS_GOLDEN_FPS_H_

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

}  // namespace xdeal

#endif  // XDEAL_TESTS_GOLDEN_FPS_H_
