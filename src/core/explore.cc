#include "core/explore.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "cbc/cbc_service.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/env.h"
#include "sim/network.h"
#include "sim/worker_pool.h"
#include "util/fingerprint.h"

namespace xdeal {

bool DependentEvents(const EventLabel& a, const EventLabel& b) {
  if (a.kind == EventKind::kInternal || b.kind == EventKind::kInternal) {
    return true;
  }
  if (a.kind == EventKind::kBlockProduction ||
      b.kind == EventKind::kBlockProduction) {
    const EventLabel& block = a.kind == EventKind::kBlockProduction ? a : b;
    const EventLabel& other = a.kind == EventKind::kBlockProduction ? b : a;
    if (other.kind == EventKind::kBlockProduction ||
        other.kind == EventKind::kTxArrival) {
      // Same chain: both touch that chain's mempool/ledger.
      return block.chain == other.chain;
    }
    // Block production vs a party event: parties read chain state (escrow
    // status, balances) from their hooks, so order is observable.
    return true;
  }
  if (a.kind == EventKind::kTxArrival && b.kind == EventKind::kTxArrival) {
    // Mempool append order is block content order.
    return a.chain == b.chain;
  }
  const bool a_party =
      a.kind == EventKind::kObservation || a.kind == EventKind::kTimer;
  const bool b_party =
      b.kind == EventKind::kObservation || b.kind == EventKind::kTimer;
  if (a_party && b_party) {
    // Party events mutate only that party's local state (and schedule
    // future submissions, which land in per-sender channels).
    return a.actor == b.actor;
  }
  // TxArrival vs a party event: a mempool append is invisible to parties
  // until the block is produced.
  return false;
}

FaultInjectionPolicy::FaultInjectionPolicy(std::vector<DropRule> rules) {
  states_.reserve(rules.size());
  for (DropRule& r : rules) states_.push_back(RuleState{r, 0, 0});
}

size_t FaultInjectionPolicy::Choose(
    const std::vector<EnabledEvent>& /*enabled*/) {
  return 0;  // default FIFO order; the faults live in ShouldDrop
}

bool FaultInjectionPolicy::ShouldDrop(const EnabledEvent& chosen) {
  for (RuleState& s : states_) {
    const DropRule& r = s.rule;
    if (chosen.label.kind != r.kind) continue;
    if (r.chain != EventLabel::kNoId && chosen.label.chain != r.chain) {
      continue;
    }
    if (r.actor != EventLabel::kNoId && chosen.label.actor != r.actor) {
      continue;
    }
    ++s.seen;
    if (s.seen > r.skip_first && s.drops < r.max_drops) {
      ++s.drops;
      ++dropped_;
      return true;
    }
  }
  return false;
}

namespace {

/// Everything one execution of a cell needs kept alive, in construction
/// order (the World must outlive the runtime and checker).
struct RunInstance {
  std::unique_ptr<DealEnv> env;
  std::unique_ptr<CbcService> service;
  std::unique_ptr<ProtocolDriver> driver;
  std::unique_ptr<SingleDeviantFactory> factory;
  std::unique_ptr<DealRuntime> runtime;
  std::unique_ptr<DealChecker> checker;
  DealSpec spec;
  uint32_t deviant = 0;   // resolved deviant party id (if adversarial)
  bool adversarial = false;
  bool deploy_ok = false;
};

uint64_t CountReceipts(const World& world) {
  uint64_t n = 0;
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    n += world.chain(ChainId{c})->receipts().size();
  }
  return n;
}

/// Builds a fresh, un-run instance of the cell's deal: fixed-delay network
/// (optionally DoS-wrapped), generated spec, driver, deployed runtime, and
/// an armed checker. Identical across calls — execution is then a pure
/// function of the installed ChoicePolicy's decisions.
RunInstance BuildRun(const ExploreCell& cell) {
  RunInstance run;

  std::unique_ptr<NetworkModel> net = std::make_unique<SynchronousNetwork>(
      cell.fixed_delay, cell.fixed_delay);
  TargetedDosNetwork* dos = nullptr;
  if (cell.dos_window) {
    // Same window derivation as ScenarioSweep's kDosWindow: open just after
    // votes are cast at t0, close past every forwarding deadline. t0 depends
    // only on the transfer count, learned from a scratch generation (the
    // generator is deterministic in its params).
    size_t steps = 0;
    {
      EnvConfig scratch_config;
      scratch_config.seed = cell.gen.seed;
      DealEnv scratch(std::move(scratch_config));
      steps = GenerateRandomDeal(&scratch, cell.gen).NumTransfers();
    }
    Tick t0 = cell.timings.ValidationTime(steps);
    Tick attack_start = t0 + 10;
    Tick attack_end = t0 +
                      static_cast<Tick>(cell.gen.n_parties + 2) *
                          cell.timings.delta +
                      1000;
    auto dos_net = std::make_unique<TargetedDosNetwork>(
        std::move(net), attack_start, attack_end);
    dos = dos_net.get();
    net = std::move(dos_net);
  }

  EnvConfig env_config;
  env_config.seed = cell.gen.seed;
  env_config.block_interval = cell.block_interval;
  env_config.network = std::move(net);
  run.env = std::make_unique<DealEnv>(std::move(env_config));
  run.spec = GenerateRandomDeal(run.env.get(), cell.gen);

  run.adversarial = cell.protocol == Protocol::kTimelock
                        ? static_cast<bool>(cell.timelock_adversary)
                        : static_cast<bool>(cell.cbc_adversary);
  run.deviant =
      run.spec.parties[cell.deviant_position % run.spec.parties.size()].v;

  if (dos != nullptr) {
    uint32_t beneficiary =
        run.spec
            .parties[cell.dos_beneficiary_position % run.spec.parties.size()]
            .v;
    for (PartyId p : run.spec.parties) {
      if (p.v != beneficiary) {
        dos->AddTarget(run.env->world().PartyEndpoint(p));
      }
    }
  }

  if (cell.protocol == Protocol::kCbc) {
    CbcService::Options service_options;
    service_options.validator_seed =
        "explore-" + std::to_string(cell.gen.seed);
    run.service =
        std::make_unique<CbcService>(&run.env->world(), service_options);
    run.driver = std::make_unique<CbcDriver>(run.service.get());
  } else {
    run.driver = std::make_unique<TimelockDriver>();
  }

  run.factory = std::make_unique<SingleDeviantFactory>(
      run.adversarial ? run.deviant : 0xFFFFFFFFu, cell.timelock_adversary,
      cell.cbc_adversary);
  run.runtime = run.driver->CreateDeal(&run.env->world(), run.spec,
                                       cell.timings, run.factory.get());
  run.deploy_ok = run.runtime->Deploy().ok();
  if (run.deploy_ok) {
    run.checker = std::make_unique<DealChecker>(
        &run.env->world(), run.spec, run.runtime->escrow_contracts());
    run.checker->CaptureInitial();
  }
  return run;
}

/// Validates a drained run against Properties 1-3 (mirrors ScenarioSweep's
/// per-scenario validation) and fingerprints the outcome.
ExploreRunResult ValidateRun(const ExploreCell& cell, RunInstance* run) {
  ExploreRunResult out;
  if (!run->deploy_ok) {
    out.violation = std::string(ToString(cell.protocol)) + "-start-failed";
    return out;
  }
  out.started = true;
  DealResult result = run->runtime->Collect();
  out.committed = result.committed;
  out.aborted = result.aborted;
  out.mixed = result.mixed;
  out.all_settled = result.all_settled;
  out.atomic = result.atomic;
  if (cell.protocol == Protocol::kCbc) {
    out.atomic = out.atomic && run->checker->Atomic();
  }
  out.settle_time = result.settle_time;
  out.total_gas = run->env->world().TotalGas();
  out.messages = CountReceipts(run->env->world());

  std::vector<PartyId> compliant;
  for (PartyId p : run->spec.parties) {
    if (!run->adversarial || p.v != run->deviant) compliant.push_back(p);
  }
  out.safety_ok = run->checker->SafetyHolds(compliant);
  out.weak_liveness_ok = run->checker->WeakLivenessHolds(compliant);
  if (!run->adversarial && !cell.dos_window) {
    out.strong_liveness_ok =
        cell.protocol == Protocol::kCbc
            ? out.committed && run->checker->StrongLivenessHolds()
            : run->checker->StrongLivenessHolds();
  }
  out.FillViolation();

  uint64_t fp = 0x9E3779B97F4A7C15ULL;
  fp = MixFingerprint(fp, out.OutcomeBits());
  fp = MixFingerprint(fp, out.total_gas);
  fp = MixFingerprint(fp, out.messages);
  fp = MixFingerprint(fp, out.settle_time);
  fp = MixFingerprint(fp, FingerprintString(out.violation));
  out.fingerprint = fp;
  return out;
}

/// Executes one run to completion (or sleep-block) under `policy`.
/// Returns false if the policy aborted the run.
template <typename AbortFn>
bool DrainRun(RunInstance* run, ChoicePolicy* policy, AbortFn aborted) {
  Scheduler& sched = run->env->world().scheduler();
  sched.SetChoicePolicy(policy);
  while (sched.Step()) {
    if (aborted()) {
      sched.SetChoicePolicy(nullptr);
      return false;
    }
  }
  sched.SetChoicePolicy(nullptr);
  return true;
}

/// One choose point on the DFS stack: the enabled snapshot, the sleep set
/// on entry, which enabled indices are explorable (not asleep), and which
/// branch is currently being explored.
struct Node {
  std::vector<EnabledEvent> enabled;
  std::vector<EnabledEvent> sleep_in;
  std::vector<uint32_t> explorable;  // indices into `enabled`
  size_t pos = 0;                    // current branch: explorable[pos]
};

bool SleepContains(const std::vector<EnabledEvent>& sleep, uint64_t seq) {
  for (const EnabledEvent& s : sleep) {
    if (s.seq == seq) return true;
  }
  return false;
}

/// The sleep-set DFS driver, usable three ways: as a probe (find the first
/// real branch point and abort), as a frozen-root worker (explore exactly
/// one root branch), and as a plain full-tree explorer (frozen_depth < 0).
class ExplorerPolicy : public ChoicePolicy {
 public:
  /// `stack` persists across the runs of one DFS; `root_branch` >= 0 pins
  /// the first multi-way choose point to that branch index.
  ExplorerPolicy(std::vector<Node>* stack, int64_t root_branch)
      : stack_(stack), root_branch_(root_branch) {}

  /// Resets per-run state; call before each execution.
  void BeginRun() {
    depth_ = 0;
    sleep_.clear();
    aborted_ = false;
  }

  bool aborted() const { return aborted_; }
  /// Depth of the pinned root node (-1 until a branch point was seen).
  int64_t frozen_depth() const { return frozen_depth_; }
  uint64_t max_frontier() const { return max_frontier_; }
  uint64_t max_depth() const { return max_depth_; }

  size_t Choose(const std::vector<EnabledEvent>& enabled) override {
    if (aborted_) return 0;  // one stray call while the executor notices
    size_t d = depth_++;
    max_frontier_ = std::max<uint64_t>(max_frontier_, enabled.size());
    max_depth_ = std::max<uint64_t>(max_depth_, depth_);
    if (d >= stack_->size()) {
      Node node;
      node.enabled = enabled;
      node.sleep_in = sleep_;
      for (uint32_t i = 0; i < enabled.size(); ++i) {
        if (!SleepContains(sleep_, enabled[i].seq)) {
          node.explorable.push_back(i);
        }
      }
      if (node.explorable.empty()) {
        // Sleep-blocked: every enabled event commutes into an already
        // explored subtree. This whole path is redundant — abort it.
        aborted_ = true;
        return 0;
      }
      if (root_branch_ >= 0 && frozen_depth_ < 0 &&
          node.explorable.size() > 1) {
        // First real branch point: pin this worker to its assigned branch.
        node.pos = static_cast<size_t>(root_branch_);
        frozen_depth_ = static_cast<int64_t>(d);
      }
      stack_->push_back(std::move(node));
    }
    Node& node = (*stack_)[d];
    assert(node.enabled.size() == enabled.size());
    size_t choice = node.explorable[node.pos];
    const EventLabel& chosen = enabled[choice].label;
    // Sleep propagation (Godefroid): keep slept events independent of the
    // chosen one, and put earlier-explored siblings to sleep for the rest
    // of this path.
    std::vector<EnabledEvent> next_sleep;
    for (const EnabledEvent& s : node.sleep_in) {
      if (!DependentEvents(s.label, chosen)) next_sleep.push_back(s);
    }
    for (size_t j = 0; j < node.pos; ++j) {
      const EnabledEvent& sib = node.enabled[node.explorable[j]];
      if (!DependentEvents(sib.label, chosen)) next_sleep.push_back(sib);
    }
    sleep_ = std::move(next_sleep);
    return choice;
  }

 private:
  std::vector<Node>* stack_;
  int64_t root_branch_;       // -1 = explore the whole tree
  int64_t frozen_depth_ = -1;
  size_t depth_ = 0;
  std::vector<EnabledEvent> sleep_;
  bool aborted_ = false;
  uint64_t max_frontier_ = 0;
  uint64_t max_depth_ = 0;
};

/// Finds the width of the first multi-way choose point (0 if the cell is
/// branch-free and the default order is the only order).
size_t ProbeRootWidth(const ExploreCell& cell) {
  class Probe : public ChoicePolicy {
   public:
    size_t Choose(const std::vector<EnabledEvent>& enabled) override {
      if (enabled.size() > 1) {
        width = enabled.size();
        done = true;
      }
      return 0;
    }
    size_t width = 0;
    bool done = false;
  };
  RunInstance run = BuildRun(cell);
  if (!run.deploy_ok) return 0;
  Probe probe;
  DrainRun(&run, &probe, [&probe] { return probe.done; });
  return probe.width;
}

/// Per-root-branch partial report, folded in branch order by ExploreDeal.
struct BranchResult {
  ExploreStats stats;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t mixed = 0;
  uint64_t violation_count = 0;
  std::vector<ExploreViolation> violations;
  uint64_t fingerprint = 0x243F6A8885A308D3ULL;
};

ChoiceTrace ExtractTrace(const std::vector<Node>& stack) {
  ChoiceTrace trace;
  trace.choices.reserve(stack.size());
  for (const Node& n : stack) {
    trace.choices.push_back(n.explorable[n.pos]);
  }
  return trace;
}

/// Exhausts the subtree rooted at `root_branch` of the first branch point
/// (or the whole tree if root_branch < 0) via stateless re-execution.
BranchResult ExploreBranch(const ExploreCell& cell,
                           const ExploreOptions& options,
                           int64_t root_branch) {
  BranchResult res;
  std::vector<Node> stack;
  ExplorerPolicy policy(&stack, root_branch);
  while (true) {
    if (res.stats.executions >= options.max_runs_per_branch) {
      res.stats.complete = false;
      break;
    }
    RunInstance run = BuildRun(cell);
    policy.BeginRun();
    bool drained =
        DrainRun(&run, &policy, [&policy] { return policy.aborted(); });
    ++res.stats.executions;
    if (!drained) {
      ++res.stats.sleep_blocked;
    } else {
      ++res.stats.orders;
      ExploreRunResult r = ValidateRun(cell, &run);
      if (r.committed) ++res.committed;
      if (r.aborted) ++res.aborted;
      if (r.mixed) ++res.mixed;
      if (!r.violation.empty()) {
        ++res.violation_count;
        if (res.violations.size() < options.max_violations) {
          res.violations.push_back(ExploreViolation{
              r.violation, ExtractTrace(stack), res.stats.orders - 1});
        }
      }
      res.fingerprint = MixFingerprint(res.fingerprint, r.fingerprint);
    }
    // Backtrack: advance the deepest node with an unexplored branch, never
    // touching the pinned root (that branch belongs to another worker).
    int64_t advance = -1;
    for (int64_t i = static_cast<int64_t>(stack.size()) - 1;
         i > policy.frozen_depth(); --i) {
      const Node& n = stack[static_cast<size_t>(i)];
      if (n.pos + 1 < n.explorable.size()) {
        advance = i;
        break;
      }
    }
    if (advance < 0) break;  // subtree exhausted
    stack.resize(static_cast<size_t>(advance) + 1);
    ++stack[static_cast<size_t>(advance)].pos;
  }
  res.stats.max_frontier = policy.max_frontier();
  res.stats.max_depth = policy.max_depth();
  return res;
}

}  // namespace

ExploreReport ExploreDeal(const ExploreCell& cell,
                          const ExploreOptions& options) {
  ExploreReport report;
  size_t width = ProbeRootWidth(cell);
  report.stats.root_branches = width;

  std::vector<BranchResult> branches;
  if (width == 0) {
    // Branch-free cell: the default order is the one and only order.
    branches.push_back(ExploreBranch(cell, options, -1));
  } else {
    branches.resize(width);
    WorkerPool pool(options.num_threads);
    pool.ParallelFor(width, [&](size_t b) {
      branches[b] = ExploreBranch(cell, options, static_cast<int64_t>(b));
    });
  }

  // Fold in branch order: bit-identical across thread counts.
  uint64_t fp = 0x243F6A8885A308D3ULL;
  for (const BranchResult& b : branches) {
    report.stats.executions += b.stats.executions;
    report.stats.orders += b.stats.orders;
    report.stats.sleep_blocked += b.stats.sleep_blocked;
    report.stats.max_frontier =
        std::max(report.stats.max_frontier, b.stats.max_frontier);
    report.stats.max_depth =
        std::max(report.stats.max_depth, b.stats.max_depth);
    report.stats.complete = report.stats.complete && b.stats.complete;
    report.committed += b.committed;
    report.aborted += b.aborted;
    report.mixed += b.mixed;
    report.violation_count += b.violation_count;
    for (const ExploreViolation& v : b.violations) {
      if (report.violations.size() < options.max_violations) {
        report.violations.push_back(v);
      }
    }
    fp = MixFingerprint(fp, b.fingerprint);
  }
  report.fingerprint = fp;
  return report;
}

ExploreRunResult RunCellWithPolicy(const ExploreCell& cell,
                                   ChoicePolicy* policy) {
  RunInstance run = BuildRun(cell);
  if (!run.deploy_ok) {
    ExploreRunResult out;
    out.violation = std::string(ToString(cell.protocol)) + "-start-failed";
    return out;
  }
  DrainRun(&run, policy, [] { return false; });
  return ValidateRun(cell, &run);
}

ExploreRunResult ReplayTrace(const ExploreCell& cell,
                             const ChoiceTrace& trace) {
  ScriptedChoicePolicy policy(trace.choices);
  return RunCellWithPolicy(cell, &policy);
}

std::string ExploreReport::Summary() const {
  char line[256];
  std::snprintf(line, sizeof(line),
                "orders=%llu blocked=%llu executions=%llu roots=%llu "
                "committed=%llu aborted=%llu mixed=%llu violations=%llu "
                "complete=%d fingerprint=%016llx",
                static_cast<unsigned long long>(stats.orders),
                static_cast<unsigned long long>(stats.sleep_blocked),
                static_cast<unsigned long long>(stats.executions),
                static_cast<unsigned long long>(stats.root_branches),
                static_cast<unsigned long long>(committed),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(mixed),
                static_cast<unsigned long long>(violation_count),
                stats.complete ? 1 : 0,
                static_cast<unsigned long long>(fingerprint));
  return std::string(line);
}

}  // namespace xdeal
