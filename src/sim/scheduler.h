// Deterministic discrete-event scheduler with a pluggable choose-point.
//
// All activity in the system — transaction submission, block production,
// observation notifications, party timeouts — is an event on this scheduler.
// With no ChoicePolicy installed (the default), events at equal times run in
// schedule order (FIFO by sequence number), so every run is exactly
// reproducible given the same seed.
//
// A ChoicePolicy turns the same-tick tie-break into an explicit choose-point:
// at each step the policy sees the set of currently-enabled events (all
// events at the earliest pending time, with their dependence labels) and
// picks which fires next. This is the seam the exhaustive interleaving
// explorer (core/explore.h) drives with dynamic partial-order reduction, and
// the same seam doubles as a deterministic fault-injection API (a policy may
// also drop the event it selected — a lost message).
//
// Determinism invariants:
//   - No policy (nullptr): execution order is exactly (time, seq) ascending —
//     bit-for-bit the historical order; golden fingerprints depend on this.
//   - DefaultChoicePolicy reproduces the no-policy order exactly (it always
//     picks the lowest-seq enabled event and drops nothing).
//   - Same policy decisions => same execution, because all other scheduler
//     state is deterministic.
//
// Channel discipline: same-tick events with identical non-internal labels
// (same kind, chain, actor) form a FIFO chain — only the lowest-seq member
// is presented as enabled, the rest become eligible after it fires. This
// encodes ordered per-actor message channels (a party's subscription socket
// delivers one block's receipts in on-chain order) and keeps the explored
// interleaving space free of spurious k! permutations that no real network
// could produce.

#ifndef XDEAL_SIM_SCHEDULER_H_
#define XDEAL_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "util/det.h"

namespace xdeal {

/// Simulated time, in abstract ticks. The protocols express Δ (the
/// synchrony bound) in the same unit.
using Tick = uint64_t;

constexpr Tick kTickMax = ~static_cast<Tick>(0);

/// What kind of system activity a scheduled event represents. Labels drive
/// the explorer's independence relation; kInternal (the default for the
/// unlabeled Schedule* overloads) conservatively conflicts with everything.
enum class EventKind : uint8_t {
  kInternal = 0,     // unlabeled: assume it may touch any state
  kTxArrival,        // a submitted transaction reaching a chain's mempool
  kBlockProduction,  // a chain producing the block at a boundary
  kObservation,      // a receipt notification delivered to an observer
  kTimer,            // a party/protocol phase hook firing
};

/// Dependence metadata for one scheduled event: which chain's queue/state the
/// callback touches and which actor's (party's/observer's) local state it
/// mutates. kNoId marks a dimension as not applicable.
struct EventLabel {
  /// Sentinel for "no chain" / "no actor".
  static constexpr uint32_t kNoId = 0xFFFFFFFFu;

  EventKind kind = EventKind::kInternal;
  uint32_t chain = kNoId;  // chain whose mempool/ledger the event touches
  uint32_t actor = kNoId;  // party/endpoint whose local state it mutates

  /// A transaction from party `sender` arriving at `chain`'s mempool.
  static EventLabel TxArrival(uint32_t chain, uint32_t sender) {
    return EventLabel{EventKind::kTxArrival, chain, sender};
  }
  /// `chain` producing the block at a boundary.
  static EventLabel BlockProduction(uint32_t chain) {
    return EventLabel{EventKind::kBlockProduction, chain, kNoId};
  }
  /// A receipt of `chain` delivered to observer endpoint `observer`.
  static EventLabel Observation(uint32_t chain, uint32_t observer) {
    return EventLabel{EventKind::kObservation, chain, observer};
  }
  /// A protocol phase hook owned by `actor` (a party id).
  static EventLabel Timer(uint32_t actor) {
    return EventLabel{EventKind::kTimer, EventLabel::kNoId, actor};
  }
};

/// One event eligible to fire now, as presented to a ChoicePolicy: identity
/// (seq — stable for the lifetime of the event), time, and dependence label.
struct EnabledEvent {
  uint64_t seq = 0;
  Tick time = 0;
  EventLabel label;
};

/// Chooses which of the currently-enabled events fires next. `enabled` is
/// sorted by seq ascending and never empty; index 0 is the default (FIFO)
/// choice. Implementations must be deterministic functions of the enabled
/// sets they have seen — the explorer's replay guarantee depends on it.
class ChoicePolicy {
 public:
  virtual ~ChoicePolicy() = default;

  /// Picks the index into `enabled` of the event to fire next. Out-of-range
  /// returns are clamped to 0.
  virtual size_t Choose(const std::vector<EnabledEvent>& enabled) = 0;

  /// Fault-injection hook: if true, the chosen event is consumed without
  /// running its callback (a dropped message). Default: never drop.
  virtual bool ShouldDrop(const EnabledEvent& chosen);
};

/// The explicit form of the built-in tie-break: always fire the lowest-seq
/// enabled event. Installing this policy is bit-for-bit equivalent to
/// installing none (tested by sim_test).
class DefaultChoicePolicy : public ChoicePolicy {
 public:
  size_t Choose(const std::vector<EnabledEvent>& enabled) override;
};

/// Replays a recorded decision sequence: the i-th Choose call returns the
/// i-th scripted index (clamped); after the script is exhausted every call
/// returns 0 (the default order). This is how an explorer trace becomes a
/// deterministic reproducer.
class ScriptedChoicePolicy : public ChoicePolicy {
 public:
  explicit ScriptedChoicePolicy(std::vector<uint32_t> script)
      : script_(std::move(script)) {}

  size_t Choose(const std::vector<EnabledEvent>& enabled) override;

  /// How many Choose calls have been served so far.
  size_t calls() const { return next_; }

 private:
  std::vector<uint32_t> script_;
  size_t next_ = 0;
};

/// Load counters maintained by the scheduler: how many events ran and how
/// deep the queue ever got. Heavy-traffic engines read these to quantify
/// backlog pressure (a proxy for scheduling fairness under contention).
struct SchedulerStats {
  uint64_t executed = 0;    // events run so far
  uint64_t dropped = 0;     // events consumed unrun by a policy drop
  size_t max_pending = 0;   // high-water mark of the event queue
  Tick max_pending_at = 0;  // sim time when the high-water mark was set
};

/// A scheduled event that survives serialization: instead of an opaque
/// closure it names a registered handler and carries a 64-bit payload. This
/// is the checkpointable subset of the event queue — cross-epoch work
/// (validator reconfiguration, broker crash/recovery) is scheduled durably
/// so a restored run re-fires it at the original (time, seq) position.
struct DurableEvent {
  uint64_t seq = 0;  // original sequence number; preserved across restore
  Tick time = 0;
  EventLabel label;
  std::string handler;  // name registered via RegisterDurableHandler
  uint64_t payload = 0;
};

/// Deterministic event loop.
class Scheduler {
 public:
  using Callback = std::function<void()>;
  /// Callback type for named durable-event handlers (payload-carrying).
  using DurableHandler = std::function<void(uint64_t)>;
  /// Observation hook invoked after every executed event with the current
  /// time and the number of still-pending events. Must not schedule or run
  /// events itself — it is a passive fairness/backlog probe.
  using StepObserver = std::function<void(Tick, size_t)>;

  Tick now() const { return now_; }
  size_t pending() const { return queue_.size(); }
  const SchedulerStats& stats() const { return stats_; }
  /// The seq the next scheduled event will get. Seqs are handed out in
  /// schedule order, so a ChoicePolicy that reads this at every Choose call
  /// knows which seqs the event it chose at its previous call scheduled.
  uint64_t next_seq() const { return next_seq_; }

  /// Installs (or clears, with nullptr) the per-step observation hook.
  void SetStepObserver(StepObserver observer) {
    step_observer_ = std::move(observer);
  }

  /// Installs (or clears, with nullptr) the same-tick choose-point policy.
  /// Non-owning; the policy must outlive the scheduler or be cleared first.
  void SetChoicePolicy(ChoicePolicy* policy) { policy_ = policy; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  void ScheduleAt(Tick t, Callback fn) { ScheduleAt(t, EventLabel{}, std::move(fn)); }
  /// Schedules `fn` at absolute time `t` with a dependence label.
  void ScheduleAt(Tick t, EventLabel label, Callback fn);

  /// Schedules `fn` `delay` ticks from now.
  void ScheduleAfter(Tick delay, Callback fn) {
    ScheduleAfter(delay, EventLabel{}, std::move(fn));
  }
  /// Schedules `fn` `delay` ticks from now with a dependence label.
  void ScheduleAfter(Tick delay, EventLabel label, Callback fn);

  /// Registers (or replaces) the handler a durable event of this name
  /// invokes at fire time. Lookup happens when the event fires, so durable
  /// events may be imported before their handlers are registered.
  void RegisterDurableHandler(std::string name, DurableHandler handler);

  /// Schedules a durable (serializable) event at absolute time `t`. The
  /// named handler receives `payload` when the event fires.
  void ScheduleDurableAt(Tick t, EventLabel label, std::string handler,
                         uint64_t payload);

  /// Number of still-pending durable events (subset of pending()). A
  /// checkpoint-safe drain runs while pending() > pending_durable().
  size_t pending_durable() const { return durable_.size(); }

  /// Snapshot of the pending durable events, sorted by seq ascending.
  std::vector<DurableEvent> PendingDurable() const;

  /// Re-inserts previously exported durable events with their ORIGINAL
  /// sequence numbers (so same-tick tie-breaks replay bit-identically).
  /// Callers must RestoreClock first so next_seq_ is already past every
  /// imported seq.
  void ImportDurable(const std::vector<DurableEvent>& events);

  /// Restores the clock, sequence counter, and load stats from a
  /// checkpoint. Only valid on a scheduler with an empty queue.
  void RestoreClock(Tick now, uint64_t next_seq, const SchedulerStats& stats);

  /// Runs a single event; returns false if the queue is empty.
  XDEAL_DETERMINISTIC bool Step();

  /// Runs events until the queue is empty or the next event is after
  /// `limit`. Returns the number of events executed.
  XDEAL_DETERMINISTIC size_t Run(Tick limit = kTickMax);

 private:
  struct Event {
    Tick time;
    uint64_t seq;
    EventLabel label;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void Push(Event ev);
  bool PolicyStep();

  Tick now_ = 0;
  uint64_t next_seq_ = 0;
  SchedulerStats stats_;
  StepObserver step_observer_;
  ChoicePolicy* policy_ = nullptr;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Durable-event bookkeeping: pending durable records keyed by seq (erased
  // when the queued wrapper fires) and the name -> handler registry.
  std::map<uint64_t, DurableEvent> durable_;
  std::map<std::string, DurableHandler> durable_handlers_;
};

}  // namespace xdeal

#endif  // XDEAL_SIM_SCHEDULER_H_
