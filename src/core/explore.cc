#include "core/explore.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/scenario_sweep.h"
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

/// Steps `sched` under `policy` until it drains (true) or `abandon` says to
/// stop (false, leaving the run unfinished).
template <typename AbandonFn>
bool Drain(Scheduler& sched, ChoicePolicy* policy, AbandonFn abandon) {
  sched.SetChoicePolicy(policy);
  bool drained = true;
  while (sched.Step()) {
    if (abandon()) {
      drained = false;
      break;
    }
  }
  sched.SetChoicePolicy(nullptr);
  return drained;
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

/// Finds the width of the first multi-way choose point (0 if the deal is
/// branch-free and the default order is the only order).
size_t ProbeRootWidth(const ScenarioSpec& spec) {
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
  Probe probe;
  RunDeal(spec, DelayModel::kFixed, [&probe](Scheduler& sched) {
    Drain(sched, &probe, [&probe] { return probe.done; });
    return false;  // the probe only measures the root; nothing to judge
  });
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
BranchResult ExploreBranch(const ScenarioSpec& spec,
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
    policy.BeginRun();
    std::optional<ScenarioOutcome> r =
        RunDeal(spec, DelayModel::kFixed, [&policy](Scheduler& sched) {
          return Drain(sched, &policy, [&policy] { return policy.aborted(); });
        });
    ++res.stats.executions;
    if (!r.has_value()) {
      ++res.stats.sleep_blocked;
    } else {
      ++res.stats.orders;
      if (r->committed) ++res.committed;
      if (r->aborted) ++res.aborted;
      if (r->mixed) ++res.mixed;
      if (!r->violation.empty()) {
        ++res.violation_count;
        if (res.violations.size() < options.max_violations) {
          res.violations.push_back(ExploreViolation{
              r->violation, ExtractTrace(stack), res.stats.orders - 1});
        }
      }
      res.fingerprint = MixFingerprint(res.fingerprint, r->fingerprint);
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

ExploreReport ExploreDeal(const ScenarioSpec& spec,
                          const ExploreOptions& options) {
  ExploreReport report;
  size_t width = ProbeRootWidth(spec);
  report.stats.root_branches = width;

  std::vector<BranchResult> branches;
  if (width == 0) {
    // Branch-free deal: the default order is the one and only order.
    branches.push_back(ExploreBranch(spec, options, -1));
  } else {
    branches.resize(width);
    WorkerPool pool(options.num_threads);
    pool.ParallelFor(width, [&](size_t b) {
      branches[b] = ExploreBranch(spec, options, static_cast<int64_t>(b));
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

ScenarioOutcome RunCellWithPolicy(const ScenarioSpec& spec,
                                  ChoicePolicy* policy) {
  return *RunDeal(spec, DelayModel::kFixed, [policy](Scheduler& sched) {
    return Drain(sched, policy, [] { return false; });
  });
}

ScenarioOutcome ReplayTrace(const ScenarioSpec& spec,
                            const ChoiceTrace& trace) {
  ScriptedChoicePolicy policy(trace.choices);
  return RunCellWithPolicy(spec, &policy);
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
