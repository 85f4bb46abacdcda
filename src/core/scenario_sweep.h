// ScenarioSweep: deterministic, parallel conformance sweeps over
// {deal shape × protocol × adversary × network} cross-products.
//
// Every scenario is one self-contained simulated World: a deal generated by
// deal_gen (or a ring swap for the HTLC baseline), a protocol run
// (timelock §5 / CBC §6 / HTLC §8), an optional deviating party from the
// adversary gallery, and a network model (synchronous, eventually
// synchronous pre/post GST, or the §5.3 targeted-DoS window). After the
// scheduler drains, the outcome is judged by JudgeDeal (core/checker.h)
// against the paper's properties; any failed property becomes a
// SweepViolation carrying the scenario's reproducer seed.
//
// Timelock and CBC scenarios run through RunDeal, the one single-deal
// runner: RunScenario drains it once under the scenario's seeded network,
// and the DPOR explorer (core/explore.h) drains it once per delivery order
// under a fixed-delay network.
//
// Determinism: scenario i runs with seed ScenarioSeed(base_seed, i),
// regardless of which worker thread picks it up; workers write into
// per-scenario slots and aggregation folds them in index order. A sweep
// report is therefore bit-identical across thread counts.

#ifndef XDEAL_CORE_SCENARIO_SWEEP_H_
#define XDEAL_CORE_SCENARIO_SWEEP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checker.h"
#include "core/explore.h"
#include "core/deal_runtime.h"
#include "sim/scheduler.h"
#include "util/det.h"

namespace xdeal {

/// Deviating-party strategies (see core/adversaries.h). kNone = honest run.
enum class SweepAdversary : uint8_t {
  kNone = 0,
  // Timelock-protocol deviators (§5).
  kCrashAtEscrow,
  kCrashAtTransfer,
  kCrashAtCommit,
  kVoteWithholding,
  kNonForwarding,
  kOfflineAfterVote,
  kDoubleSpend,
  kShortTransfer,
  kLateVote,
  // CBC-protocol deviators (§6).
  kCbcCrashBeforeVote,
  kCbcAlwaysAbort,
  kCbcRescindRacer,
  kCbcFakeProof,
};

/// The network a scenario runs under (see DelayModel for how the explorer
/// replaces the sampled delays).
enum class SweepNetwork : uint8_t {
  /// Uniform delays in [1, 10] — the timelock protocol's home turf.
  kSynchronous = 0,
  /// Eventually synchronous with GST = 0: behaves synchronously.
  kPostGstSync,
  /// Asynchronous until far past every protocol deadline (CBC only: the
  /// deal may abort, but atomically).
  kPreGstAsync,
  /// The §5.3 targeted-DoS window (timelock only, honest parties): every
  /// party except one beneficiary is cut off right after votes are cast.
  /// Since no *party* deviates, the checker treats everyone as compliant —
  /// this network is how a sweep seeds a detectable safety violation.
  kDosWindow,
};

/// Stable short name of an adversary, as printed in reports.
const char* ToString(SweepAdversary a);
/// Stable short name of a network, as printed in reports.
const char* ToString(SweepNetwork n);

/// Whether this deviator strategy exists for this protocol.
bool AdversaryAppliesTo(SweepAdversary a, Protocol p);
/// Whether this network model makes sense for this protocol (e.g. the
/// timelock protocol is only correct under synchrony).
bool NetworkAppliesTo(SweepNetwork n, Protocol p);

/// Deal shape fed to GenerateRandomDeal (HTLC: n parties on an n-chain ring).
struct SweepShape {
  size_t n_parties = 3;
  size_t m_assets = 2;
  size_t t_transfers = 4;
  size_t num_chains = 2;
  size_t nft_every = 0;
};

/// The sweep cross-product. Inapplicable combinations (per the predicates
/// above) are skipped during matrix construction, and kDosWindow pairs only
/// with kNone (the attack is on the network, not a party).
struct SweepAxes {
  std::vector<SweepShape> shapes;
  std::vector<Protocol> protocols;
  std::vector<SweepAdversary> adversaries;
  std::vector<SweepNetwork> networks;
  /// Which party index deviates (mod n); for kDosWindow, which party is the
  /// untargeted beneficiary. Honest synchronous runs use position 0 only.
  std::vector<uint32_t> positions = {0};
  /// Independent seeds per cell (replicates).
  size_t seeds_per_cell = 1;
};

/// One fully-resolved scenario: everything RunScenario, RunDeal and
/// ExploreDeal need, plus the stable index that makes the sweep
/// deterministic.
struct ScenarioSpec {
  size_t index = 0;
  uint64_t seed = 0;  // ScenarioSeed(base_seed, index)
  SweepShape shape;
  Protocol protocol = Protocol::kTimelock;
  SweepAdversary adversary = SweepAdversary::kNone;
  SweepNetwork network = SweepNetwork::kSynchronous;
  uint32_t position = 0;
  uint64_t replicate = 0;
};

/// The judged outcome of one run of one scenario: a sweep's per-scenario
/// slot, or one explored delivery order.
struct ScenarioOutcome : DealVerdict {
  size_t index = 0;
  uint64_t seed = 0;
  uint64_t total_gas = 0;
  uint64_t messages = 0;   // transaction receipts across all chains
  Tick settle_time = 0;
  /// Order-sensitive hash of the outcome bits, gas, receipts, settle time
  /// and violation (not index or seed); equal values mean bit-identical
  /// runs. Set by RunDeal (0 for the HTLC baseline); the explorer folds it
  /// per terminal run.
  uint64_t fingerprint = 0;
};

/// A caught property violation, with everything needed to replay it.
struct SweepViolation {
  size_t scenario_index = 0;
  uint64_t seed = 0;  // reproducer: RunScenario on the matrix entry
  Protocol protocol = Protocol::kTimelock;
  SweepAdversary adversary = SweepAdversary::kNone;
  SweepNetwork network = SweepNetwork::kSynchronous;
  std::string what;
};

/// One cell of a sweep report: the scenarios sharing a protocol, an
/// adversary and a network, across shapes, positions and replicates.
struct SweepCellKey {
  Protocol protocol;
  SweepAdversary adversary;
  SweepNetwork network;
  /// Orders cells by (protocol, adversary, network).
  bool operator<(const SweepCellKey& o) const;
};

/// Run, outcome, violation and cost counts of one sweep cell.
struct SweepCellStats {
  size_t runs = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t mixed = 0;
  size_t violations = 0;
  uint64_t gas = 0;
  uint64_t messages = 0;
};

/// The folded result of a sampled sweep, in matrix order.
struct SweepReport {
  size_t num_scenarios = 0;
  size_t honest_runs = 0;
  size_t adversarial_runs = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t mixed = 0;
  uint64_t total_gas = 0;
  uint64_t total_messages = 0;
  std::map<SweepCellKey, SweepCellStats> cells;
  std::vector<SweepViolation> violations;
  /// Order-sensitive hash over every per-scenario outcome; equal fingerprints
  /// mean bit-identical sweeps (the thread-count-independence invariant).
  uint64_t fingerprint = 0;

  /// Human-readable conformance + cost table.
  std::string Summary() const;
};

/// How a sweep executes its matrix: one seeded run per scenario (sampled),
/// or every inequivalent delivery order per cell via the DPOR explorer
/// (exhaustive; see core/explore.h and RunExhaustiveSweep).
enum class SweepMode : uint8_t {
  kSampled = 0,
  kExhaustive,
};

/// How RunSweep or RunExhaustiveSweep executes a matrix.
struct SweepOptions {
  uint64_t base_seed = 1;
  /// 0 = hardware concurrency.
  size_t num_threads = 1;
  /// kSampled drives RunSweep; kExhaustive drives RunExhaustiveSweep.
  SweepMode mode = SweepMode::kSampled;
  /// kExhaustive only: per-cell execution budget (safety valve).
  uint64_t max_runs_per_cell = 250000;
};

/// Per-scenario RNG seed: a SplitMix64 hash of (base_seed, index).
uint64_t ScenarioSeed(uint64_t base_seed, uint64_t scenario_index);

/// Expands the axes into the ordered scenario list (the "matrix").
std::vector<ScenarioSpec> BuildScenarioMatrix(const SweepAxes& axes,
                                              uint64_t base_seed);

/// How the single-deal runner delays messages. This is the one thing the
/// sampled sweep and the explorer run differently.
enum class DelayModel : uint8_t {
  /// The scenario's seeded network: DealEnv's default
  /// SynchronousNetwork(1, 10), post-GST or pre-GST (RunScenario).
  kSeeded = 0,
  /// Every message takes exactly 3 ticks. No delay is drawn from the RNG,
  /// so a run is a pure function of its choose-point decisions
  /// (exploration and replay). Pre-GST asynchrony is not modelled.
  kFixed,
};

/// The single-deal runner for the DealRuntime protocols (timelock and CBC).
/// Builds the scenario's deal in a fresh World under `delays` (wrapped in
/// the §5.3 window for kDosWindow), deploys it with the scenario's
/// deviator, arms a DealChecker, hands the World's scheduler to `drain`
/// and judges the drained run with JudgeDeal. `drain` returns false to
/// abandon the run, which then has no outcome. A deal that fails to deploy,
/// or an adversary that does not fit the protocol, is judged as a violation
/// without draining.
std::optional<ScenarioOutcome> RunDeal(
    const ScenarioSpec& spec, DelayModel delays,
    const std::function<bool(Scheduler&)>& drain);

/// Runs one scenario in its own World under its seeded network, in FIFO
/// order, and judges the outcome (HTLC scenarios run the swap baseline).
ScenarioOutcome RunScenario(const ScenarioSpec& spec);

/// Sequential, index-ordered reduction of outcomes into a report.
SweepReport AggregateOutcomes(const std::vector<ScenarioSpec>& specs,
                              const std::vector<ScenarioOutcome>& outcomes);

/// The whole pipeline: matrix -> worker pool -> deterministic report.
XDEAL_DETERMINISTIC
SweepReport RunSweep(const SweepAxes& axes, const SweepOptions& options);

/// True if a matrix cell can be verified exhaustively: a DealRuntime
/// protocol (timelock or CBC — HTLC has none), a network the fixed-delay
/// explorer can express (kSynchronous, or kDosWindow which wraps a
/// fixed-delay base), and 2-4 parties (the state space grows factorially
/// beyond that).
bool ExhaustivelyExplorable(const ScenarioSpec& sc);

/// Exhaustive verification result of one matrix cell.
struct ExhaustiveCellOutcome {
  ScenarioSpec spec;
  ExploreReport report;
};

/// The kExhaustive analog of SweepReport: per-cell DPOR reports plus
/// deterministic aggregate counters (exact-gated by bench_explore).
struct ExhaustiveSweepReport {
  std::vector<ExhaustiveCellOutcome> cells;
  uint64_t orders = 0;         // inequivalent interleavings, all cells
  uint64_t executions = 0;     // runs, blocked ones included
  uint64_t sleep_blocked = 0;  // runs cut short (0 when every cell is sound)
  uint64_t violations = 0;       // violating orders, all cells
  uint64_t violation_cells = 0;  // cells with at least one violating order
  bool complete = true;          // every cell finished unblocked, in budget
  /// Fold of per-cell fingerprints in matrix order; bit-identical across
  /// thread counts.
  uint64_t fingerprint = 0;

  /// Human-readable per-cell order/prune/violation table.
  std::string Summary() const;
};

/// The kExhaustive mode: model-checks every matrix cell admitted by
/// ExhaustivelyExplorable with ExploreDeal. Each cell is one sequential
/// search; the cells run in parallel over the worker pool and are folded
/// in matrix order.
XDEAL_DETERMINISTIC
ExhaustiveSweepReport RunExhaustiveSweep(const SweepAxes& axes,
                                         const SweepOptions& options);

/// The stock conformance matrix: 4 shapes × {timelock, CBC, HTLC} × every
/// applicable adversary × {synchronous, post-GST, and pre-GST asynchrony
/// for CBC} × 2 deviant positions × 3 seeds — ≥ 500 scenarios, zero
/// expected violations.
SweepAxes DefaultSweepAxes();

}  // namespace xdeal

#endif  // XDEAL_CORE_SCENARIO_SWEEP_H_
