// Exhaustive interleaving exploration (stateless model checking with
// dynamic partial-order reduction) over ProtocolDriver deals.
//
// The sweep samples and the explorer enumerates, over the same runner.
// RunDeal (core/scenario_sweep.h) builds one ScenarioSpec's deal, drains it
// and judges it with JudgeDeal. ScenarioSweep drains it once under the
// scenario's seeded network; this subsystem drains it once per delivery
// order under DelayModel::kFixed, where every message takes 3 ticks and no
// delay is drawn. The network delay sample is the only execution-phase RNG
// draw in the simulator, so a run's outcome is then a pure function of the
// choice sequence fed to the Scheduler's choose-point seam
// (sim/scheduler.h). The explorer drives that seam with a sleep-set DFS: at
// every same-tick choose point it either replays a recorded branch or opens
// a new one, and events proven independent (commuting — see
// DependentEvents) of an already-explored sibling are put to sleep, so
// exactly one execution per Mazurkiewicz trace class reaches a terminal
// state. Every terminal state is judged against the paper's Properties 1-3;
// a violation carries the exact ChoiceTrace that reproduces it (the analog
// of a sweep seed, but bit-exact by construction).
//
// Exploration is stateless: there is no World snapshot/restore, each path is
// a full re-execution from deal construction. Parallelism is per root
// branch: the first choose point with more than one enabled event splits the
// search tree into independent subtrees, one WorkerPool job each, and the
// per-branch results are folded in branch order — reports are bit-identical
// across thread counts. Because the reduced order/prune counts are
// deterministic, bench_explore exact-gates them in BENCH_baseline.json.

#ifndef XDEAL_CORE_EXPLORE_H_
#define XDEAL_CORE_EXPLORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "util/det.h"

namespace xdeal {

// The deal to explore and the judged outcome of one run; both are defined
// in core/scenario_sweep.h, which includes this header.
struct ScenarioSpec;
struct ScenarioOutcome;

/// Whether two labeled events commute: executing them in either order from
/// the same state yields the same state. Conservative: any kInternal label
/// conflicts with everything; block production conflicts with same-chain
/// mempool traffic and with every party event (parties read chain state);
/// same-chain tx arrivals conflict (mempool order is block content order);
/// party-local events conflict only on the same actor.
bool DependentEvents(const EventLabel& a, const EventLabel& b);

/// One fully-determined run: the index chosen at every scheduler choose
/// point, in call order. Feeding it to a ScriptedChoicePolicy over the same
/// ScenarioSpec replays the execution bit-for-bit.
struct ChoiceTrace {
  std::vector<uint32_t> choices;
};

/// Exploration knobs.
struct ExploreOptions {
  /// Worker threads for per-root-branch parallelism (0 = hardware).
  size_t num_threads = 1;
  /// Safety valve: max executions per root branch before giving up (the
  /// report's `complete` flag records whether any branch was truncated).
  uint64_t max_runs_per_branch = 250000;
  /// Keep at most this many violation reproducers (all are still counted).
  size_t max_violations = 16;
};

/// A property violation found during exploration, with its reproducer.
struct ExploreViolation {
  /// Which failed properties (same encoding as SweepViolation::what).
  std::string what;
  /// Replay with ReplayTrace(spec, trace) to reproduce bit-for-bit.
  ChoiceTrace trace;
  /// 0-based index of the violating execution in exploration order.
  uint64_t execution_index = 0;
};

/// Deterministic exploration counters. `orders` is the DPOR-reduced number
/// of inequivalent interleavings — the quantity the bench exact-gates.
struct ExploreStats {
  uint64_t executions = 0;     // total runs, including sleep-blocked ones
  uint64_t orders = 0;         // runs that reached a terminal state
  uint64_t sleep_blocked = 0;  // runs pruned early (all enabled were asleep)
  uint64_t root_branches = 0;  // width of the first real choose point
  uint64_t max_frontier = 0;   // largest enabled set seen at a choose point
  uint64_t max_depth = 0;      // deepest choose-point stack
  bool complete = true;        // no branch hit max_runs_per_branch
};

/// The folded result of exploring one scenario.
struct ExploreReport {
  ExploreStats stats;
  uint64_t committed = 0;  // terminal runs where the deal committed
  uint64_t aborted = 0;
  uint64_t mixed = 0;
  uint64_t violation_count = 0;  // terminal runs violating any property
  std::vector<ExploreViolation> violations;  // first max_violations of them
  /// Fold of every terminal run's fingerprint in exploration order;
  /// bit-identical across thread counts.
  uint64_t fingerprint = 0;

  /// One-line human-readable summary.
  std::string Summary() const;
};

/// Enumerates every inequivalent delivery order of the timelock or CBC
/// scenario `spec` under DelayModel::kFixed and judges each terminal state
/// against Properties 1-3.
XDEAL_DETERMINISTIC
ExploreReport ExploreDeal(const ScenarioSpec& spec,
                          const ExploreOptions& options);

/// Re-executes `spec` under the recorded choice script and judges the
/// terminal state (the reproducer entry point for ExploreViolation traces).
XDEAL_DETERMINISTIC
ScenarioOutcome ReplayTrace(const ScenarioSpec& spec,
                            const ChoiceTrace& trace);

/// Runs `spec` once under DelayModel::kFixed and an externally supplied
/// policy (e.g. a FaultInjectionPolicy), and judges the terminal state. A
/// null policy runs the scheduler's built-in FIFO order.
ScenarioOutcome RunCellWithPolicy(const ScenarioSpec& spec,
                                  ChoicePolicy* policy);

/// Matches scheduled events for targeted fault injection: kind plus
/// optional chain/actor constraints (EventLabel::kNoId = wildcard).
struct DropRule {
  EventKind kind = EventKind::kObservation;
  uint32_t chain = EventLabel::kNoId;  // kNoId matches any chain
  uint32_t actor = EventLabel::kNoId;  // kNoId matches any actor
  uint64_t skip_first = 0;  // let this many matches through, then drop
  uint64_t max_drops = ~static_cast<uint64_t>(0);
};

/// A deterministic message-loss adversary on the choose-point seam: follows
/// the default (FIFO) order but consumes, without executing, every event
/// matched by a DropRule. This reaches failure modes no seeded sweep can
/// (message loss is not in any network model's sample space).
class FaultInjectionPolicy : public ChoicePolicy {
 public:
  /// Drops events matching any of `rules`.
  explicit FaultInjectionPolicy(std::vector<DropRule> rules);

  size_t Choose(const std::vector<EnabledEvent>& enabled) override;
  bool ShouldDrop(const EnabledEvent& chosen) override;

  /// Total events dropped so far.
  uint64_t dropped() const { return dropped_; }

 private:
  struct RuleState {
    DropRule rule;
    uint64_t seen = 0;
    uint64_t drops = 0;
  };
  std::vector<RuleState> states_;
  uint64_t dropped_ = 0;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_EXPLORE_H_
