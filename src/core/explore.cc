#include "core/explore.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/scenario_sweep.h"
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

constexpr uint32_t kNone = 0xFFFFFFFFu;

/// An event as the search names it across runs: a stable id (see
/// EventNames) and its dependence label.
struct Event {
  uint32_t id = 0;
  EventLabel label;
};

/// Same-tick events with equal non-internal labels share a FIFO channel,
/// so the scheduler never lets one overtake the other.
bool SameChannel(const EventLabel& a, const EventLabel& b) {
  return a.kind != EventKind::kInternal && a.kind == b.kind &&
         a.chain == b.chain && a.actor == b.actor;
}

/// Stable event ids for the runs of one cell. A seq depends on the
/// interleaving that led to it, so it cannot name an event across runs. An
/// event is named instead by (the event whose callback scheduled it, its
/// index among that callback's children), and an event scheduled during
/// set-up, before the first step, by its seq, which set-up fixes.
class EventNames {
 public:
  /// The id of the `index`-th event scheduled by event `parent`, or of the
  /// set-up event with seq `index` when `parent` is kNone.
  uint32_t Name(uint32_t parent, uint64_t index) {
    std::vector<uint32_t>& slots =
        parent == kNone ? setup_ : children_[parent];
    if (slots.size() <= index) slots.resize(index + 1, kNone);
    uint32_t id = slots[index];
    if (id == kNone) {
      id = static_cast<uint32_t>(parent_.size());
      slots[index] = id;
      parent_.push_back(parent);
      children_.emplace_back();  // invalidates `slots`
    }
    return id;
  }
  /// The id of the event that scheduled `id` (kNone for set-up events).
  uint32_t parent(uint32_t id) const { return parent_[id]; }

 private:
  std::vector<uint32_t> setup_;                  // by seq
  std::vector<std::vector<uint32_t>> children_;  // by parent id, then index
  std::vector<uint32_t> parent_;                 // by id
};

/// A wakeup tree: ordered children, each a branch still to explore together
/// with the continuation that must follow it (Abdulla et al., "Optimal
/// Dynamic Partial Order Reduction", POPL 2014).
struct WakeupNode {
  Event event;
  std::vector<WakeupNode> children;
};

/// One choose point on the current path.
struct Node {
  std::vector<Event> sleep;         // asleep on entry, then finished branches
  WakeupNode branch;                // the branch being explored
  std::vector<WakeupNode> pending;  // the branches after it, in order
  uint32_t choice = kNone;  // branch's index in the enabled set; kNone
                            // until the run reaching this point resolves it
};

/// One executed step of the current run.
struct Step {
  Event event;
  Tick time = 0;
  uint64_t first_child_seq = 0;  // Scheduler::next_seq() when it was chosen
};

/// Optimal DPOR by stateless re-execution: every run replays the current
/// path, then extends it, taking a node's inherited wakeup tree first and
/// the lowest-seq enabled event that is not asleep otherwise. After a
/// terminal run, each race of the run is reversed into the wakeup tree of
/// the point before it; backtracking puts the finished branch to sleep and
/// takes the next pending one. Exactly one run per Mazurkiewicz trace
/// reaches a terminal state, and none is cut short.
///
/// Happens-before is per tick: time is a barrier under DelayModel::kFixed,
/// so events at different ticks never race. Within a tick, its direct edges
/// are the DependentEvents pairs in execution order and creator -> created.
class DporSearch : public ChoicePolicy {
 public:
  /// Resets the per-run state; call before each run drains `sched`.
  void BeginRun(const Scheduler& sched) {
    sched_ = &sched;
    steps_.clear();
    seq_id_.clear();
    blocked_ = false;
  }

  /// True once this run reached a wakeup event that is not enabled, or a
  /// choose point where every enabled event is asleep. Optimal DPOR does
  /// neither, so the caller abandons the run and counts it.
  bool blocked() const { return blocked_; }

  size_t Choose(const std::vector<EnabledEvent>& enabled) override {
    NameNewEvents();
    events_.clear();
    for (const EnabledEvent& e : enabled) {
      events_.push_back(Event{seq_id_[e.seq], e.label});
    }
    max_frontier_ = std::max<uint64_t>(max_frontier_, enabled.size());
    if (root_width_ == 0 && enabled.size() > 1) root_width_ = enabled.size();

    const size_t d = steps_.size();
    if (d == stack_.size() && !OpenNode()) {
      blocked_ = true;
      return 0;
    }
    Node& node = stack_[d];
    if (node.choice == kNone) {  // a wakeup event: find it among the enabled
      for (uint32_t i = 0; i < events_.size() && node.choice == kNone; ++i) {
        if (events_[i].id == node.branch.event.id) node.choice = i;
      }
      if (node.choice == kNone) {
        blocked_ = true;
        return 0;
      }
    }
    const EnabledEvent& chosen = enabled[node.choice];
    steps_.push_back(
        Step{events_[node.choice], chosen.time, sched_->next_seq()});
    max_depth_ = std::max<uint64_t>(max_depth_, steps_.size());
    return node.choice;
  }

  /// After a terminal run: inserts the reversal of each of its races into
  /// the wakeup tree of the choose point before the race's first event.
  void ReverseRaces() {
    for (size_t a = 0; a < steps_.size();) {
      size_t b = a + 1;
      while (b < steps_.size() && steps_[b].time == steps_[a].time) ++b;
      ReverseRacesInTick(a, b);
      a = b;
    }
  }

  /// Puts the deepest node's finished branch to sleep and moves to its next
  /// pending one, popping exhausted nodes. False when the search is done.
  bool Backtrack() {
    while (!stack_.empty()) {
      Node& node = stack_.back();
      node.sleep.push_back(node.branch.event);
      if (!node.pending.empty()) {
        node.branch = std::move(node.pending.front());
        node.pending.erase(node.pending.begin());
        node.choice = kNone;
        return true;
      }
      stack_.pop_back();
    }
    return false;
  }

  /// The choices of the current (terminal) run, as a replayable script.
  ChoiceTrace Trace() const {
    ChoiceTrace trace;
    trace.choices.reserve(stack_.size());
    for (const Node& n : stack_) trace.choices.push_back(n.choice);
    return trace;
  }

  uint64_t root_width() const { return root_width_; }
  uint64_t max_frontier() const { return max_frontier_; }
  uint64_t max_depth() const { return max_depth_; }

 private:
  /// Names the seqs scheduled since the previous Choose call: by the step
  /// taken then, or by set-up before the first step.
  void NameNewEvents() {
    const uint64_t next = sched_->next_seq();
    for (uint64_t seq = seq_id_.size(); seq < next; ++seq) {
      if (steps_.empty()) {
        seq_id_.push_back(names_.Name(kNone, seq));
      } else {
        const Step& last = steps_.back();
        seq_id_.push_back(
            names_.Name(last.event.id, seq - last.first_child_seq));
      }
    }
  }

  /// Pushes the node for the next choose point: it inherits the events
  /// still asleep after its parent's branch and that branch's wakeup
  /// subtree. False if it inherits no subtree and every enabled event is
  /// asleep.
  bool OpenNode() {
    Node node;
    if (!stack_.empty()) {
      Node& parent = stack_.back();
      for (const Event& q : parent.sleep) {
        if (!DependentEvents(q.label, parent.branch.event.label)) {
          node.sleep.push_back(q);
        }
      }
      node.pending = std::move(parent.branch.children);
      parent.branch.children.clear();
    }
    if (!node.pending.empty()) {
      node.branch = std::move(node.pending.front());
      node.pending.erase(node.pending.begin());
    } else {
      for (uint32_t i = 0; i < events_.size() && node.choice == kNone; ++i) {
        if (!Asleep(node.sleep, events_[i].id)) {
          node.branch.event = events_[i];
          node.choice = i;
        }
      }
      if (node.choice == kNone) return false;
    }
    stack_.push_back(std::move(node));
    return true;
  }

  static bool Asleep(const std::vector<Event>& sleep, uint32_t id) {
    for (const Event& q : sleep) {
      if (q.id == id) return true;
    }
    return false;
  }

  /// Whether `x`'s callback scheduled `y`.
  bool Created(const Event& x, const Event& y) const {
    return names_.parent(y.id) == x.id;
  }

  /// Whether `p` is a weak initial of `w`: `w` extends to a run that is
  /// equivalent to one starting with `p`. Either `p` is in `w` and nothing
  /// before it in `w` happens before it, or `p` is not in `w` and commutes
  /// with all of it.
  bool WeakInitial(const Event& p, const std::vector<Event>& w) const {
    for (const Event& x : w) {
      if (x.id == p.id) return true;
      if (DependentEvents(x.label, p.label) || Created(x, p)) return false;
    }
    return true;
  }

  /// Inserts `v` into the wakeup tree whose top-level children are
  /// `*children`: descends into the first child that is a weak initial of
  /// what remains of `v` (removing it from `v`), stops at a leaf, and
  /// otherwise appends the rest of `v` as the last child.
  void Insert(std::vector<WakeupNode>* children, std::vector<Event> v) const {
    while (!v.empty()) {
      WakeupNode* next = nullptr;
      for (WakeupNode& c : *children) {
        if (WeakInitial(c.event, v)) {
          next = &c;
          break;
        }
      }
      if (next == nullptr) break;
      if (next->children.empty()) return;
      for (size_t i = 0; i < v.size(); ++i) {
        if (v[i].id == next->event.id) {
          v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      children = &next->children;
    }
    if (v.empty()) return;
    WakeupNode chain{v.back(), {}};
    for (size_t i = v.size() - 1; i-- > 0;) {
      WakeupNode up{v[i], {}};
      up.children.push_back(std::move(chain));
      chain = std::move(up);
    }
    children->push_back(std::move(chain));
  }

  /// Reverses the races among steps [a, b), which share one tick. Step x
  /// races step y (x < y) when they are dependent, not in one FIFO channel,
  /// y was not created by x, and no step between them happens after x and
  /// before y.
  void ReverseRacesInTick(size_t a, size_t b) {
    const size_t n = b - a;
    if (n < 2) return;
    // hb[x * n + y]: step a+x happens before step a+y.
    hb_.assign(n * n, 0);
    for (size_t y = 1; y < n; ++y) {
      const Step& sy = steps_[a + y];
      for (size_t x = 0; x < y; ++x) {
        const Step& sx = steps_[a + x];
        if (!DependentEvents(sx.event.label, sy.event.label) &&
            !Created(sx.event, sy.event)) {
          continue;
        }
        hb_[x * n + y] = 1;
        for (size_t z = 0; z < x; ++z) hb_[z * n + y] |= hb_[z * n + x];
      }
    }
    for (size_t y = 1; y < n; ++y) {
      const Step& sy = steps_[a + y];
      for (size_t x = 0; x < y; ++x) {
        const Step& sx = steps_[a + x];
        if (!DependentEvents(sx.event.label, sy.event.label) ||
            SameChannel(sx.event.label, sy.event.label) ||
            Created(sx.event, sy.event)) {
          continue;
        }
        bool immediate = true;
        for (size_t z = x + 1; z < y && immediate; ++z) {
          immediate = !(hb_[x * n + z] && hb_[z * n + y]);
        }
        if (!immediate) continue;
        // v: the steps between x and y that x does not happen before,
        // then y. The point before x must explore a run starting with v.
        std::vector<Event> v;
        for (size_t z = x + 1; z < y; ++z) {
          if (!hb_[x * n + z]) v.push_back(steps_[a + z].event);
        }
        v.push_back(sy.event);
        Node& node = stack_[a + x];
        bool covered = false;
        for (const Event& q : node.sleep) {
          if (WeakInitial(q, v)) {
            covered = true;
            break;
          }
        }
        if (!covered) Insert(&node.pending, std::move(v));
      }
    }
  }

  // Across runs.
  EventNames names_;
  std::vector<Node> stack_;  // one node per choose point of the current path
  uint64_t root_width_ = 0;
  uint64_t max_frontier_ = 0;
  uint64_t max_depth_ = 0;
  // Per run.
  const Scheduler* sched_ = nullptr;
  std::vector<Step> steps_;
  std::vector<uint32_t> seq_id_;       // by seq
  bool blocked_ = false;
  // Scratch.
  std::vector<Event> events_;  // the enabled set, named
  std::vector<uint8_t> hb_;
};

}  // namespace

ExploreReport ExploreDeal(const ScenarioSpec& spec,
                          const ExploreOptions& options) {
  ExploreReport report;
  std::vector<uint64_t> run_fingerprints;
  DporSearch search;
  do {
    if (report.stats.executions >= options.max_runs_per_cell) {
      report.stats.complete = false;
      break;
    }
    std::optional<ScenarioOutcome> r =
        RunDeal(spec, DelayModel::kFixed, [&search](Scheduler& sched) {
          search.BeginRun(sched);
          return Drain(sched, &search, [&search] { return search.blocked(); });
        });
    ++report.stats.executions;
    if (!r.has_value()) {
      // Never skipped silently: the cell is not proven.
      ++report.stats.sleep_blocked;
      report.stats.complete = false;
      continue;
    }
    ++report.stats.orders;
    if (r->committed) ++report.committed;
    if (r->aborted) ++report.aborted;
    if (r->mixed) ++report.mixed;
    if (!r->violation.empty()) {
      ++report.violation_count;
      if (report.violations.size() < options.max_violations) {
        report.violations.push_back(ExploreViolation{
            r->violation, search.Trace(), report.stats.orders - 1});
      }
    }
    run_fingerprints.push_back(r->fingerprint);
    search.ReverseRaces();
  } while (search.Backtrack());
  report.stats.root_branches = search.root_width();
  report.stats.max_frontier = search.max_frontier();
  report.stats.max_depth = search.max_depth();

  // Sorted, so the fold names the set of terminal runs, not the order in
  // which the search reached them.
  std::sort(run_fingerprints.begin(), run_fingerprints.end());
  uint64_t fp = 0x243F6A8885A308D3ULL;
  for (uint64_t run_fp : run_fingerprints) fp = MixFingerprint(fp, run_fp);
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
