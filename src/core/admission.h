// Open-loop arrival generation + admission control for traffic workloads.
//
// The paper's §5 traffic claims assume deals arrive continuously, not as a
// fixed pre-staggered batch. This header supplies the two pieces the
// TrafficEngine needs to act as an open-loop load generator:
//
//   ArrivalSchedule   seeded arrival times for D deals. kFixedStagger is the
//                     legacy deterministic stagger (deal i at i * gap);
//                     kPoisson draws exponential inter-arrival times from a
//                     SplitMix64 stream derived from (base_seed, index), so
//                     the schedule is a pure function of the options — bit-
//                     identical across thread counts, platforms, and reruns.
//
//   AdmissionController   the backpressure policy consulted when a deal's
//                     arrival event fires. It reads two live congestion
//                     signals — scheduler backlog (pending events) and chain
//                     occupancy (transactions queued but not yet included) —
//                     and decides to admit the deal, delay it for a retry
//                     quantum, or shed it outright after too many retries.
//                     Shed/delayed deals and the congestion the controller
//                     saw are recorded so reports can chart the policy's
//                     effect on the latency/goodput knee.
//
// The exponential sampler deliberately avoids libm: log() can differ by an
// ulp between math libraries, which would round a tick boundary differently
// on another platform and silently fork the whole simulation. NegLogU01
// below uses only IEEE +,-,*,/ on doubles (frexp is exact), so arrival
// schedules are reproducible anywhere.

#ifndef XDEAL_CORE_ADMISSION_H_
#define XDEAL_CORE_ADMISSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scheduler.h"
#include "util/det.h"

namespace xdeal {

class World;

/// How deal arrival times are generated.
enum class ArrivalProcess : uint8_t {
  /// Legacy closed-loop replay: deal i arrives at exactly i * gap.
  kFixedStagger = 0,
  /// Open loop: exponential inter-arrival times with the given mean, drawn
  /// from a seeded stream (Poisson arrivals in expectation).
  kPoisson,
};

/// Display name ("fixed" / "poisson") for reports and logs.
const char* ToString(ArrivalProcess p);

/// -ln(u) for u in (0, 1], computed without libm so results are bit-stable
/// across platforms. Max relative error ~1e-11 — far below tick rounding.
XDEAL_DETERMINISTIC
double NegLogU01(double u);

/// Inter-arrival gap (ticks) preceding deal `deal_index` under kPoisson:
/// an exponential sample with mean `mean_gap`, rounded to the nearest tick.
/// Derived from an independent SplitMix64 stream of (base_seed, deal_index)
/// so arrivals never alias the per-deal shape seeds.
XDEAL_DETERMINISTIC
Tick PoissonArrivalGap(uint64_t base_seed, uint64_t deal_index,
                       double mean_gap);

/// Arrival time per deal (nondecreasing, arrivals[0] may be 0). For
/// kFixedStagger this is exactly {0, gap, 2*gap, ...} — the schedule the
/// legacy admission_gap stagger produced.
XDEAL_DETERMINISTIC
std::vector<Tick> BuildArrivalSchedule(ArrivalProcess process,
                                       size_t num_deals, uint64_t base_seed,
                                       double mean_gap);

/// Backpressure thresholds. A threshold of 0 means "don't consider this
/// signal"; with both at 0 the controller admits everything (but still
/// records the congestion it sampled).
struct AdmissionOptions {
  /// Master switch: off = no admission events; every deal deploys inline
  /// when it is generated, its schedule anchored at its arrival time.
  bool enabled = false;
  /// Shed/delay when the scheduler's pending-event queue is deeper.
  size_t max_scheduler_backlog = 0;
  /// Shed/delay when any chain's not-yet-included tx queue is deeper.
  uint64_t max_chain_occupancy = 0;
  /// How long a delayed deal waits before its admission retry.
  Tick retry_delay = 40;
  /// Retries before an over-threshold deal is shed (0 = shed immediately).
  size_t max_retries = 4;
  /// Honor the broker working-capital signal when the caller supplies one
  /// (see BrokerSignal): a deal whose broker lacks free capital or
  /// inventory is delayed/shed like any other congestion. Off = the signal
  /// is recorded in stats but never blocks admission.
  bool broker_gate = true;
};

/// The broker-capital admission input: the free working capital and token
/// inventory of the deal's broker versus what this deal would lock up.
/// Computed by the BrokerPool (core/broker_pool.h) and passed per decision;
/// deals without a broker pass nullptr and are unaffected.
struct BrokerSignal {
  uint64_t free_capital = 0;
  uint64_t need_capital = 0;
  uint64_t free_inventory = 0;
  uint64_t need_inventory = 0;
};

/// Everything an admission signal may sample at one decision: the World
/// (scheduler + chains), the caller's own pending-event count (subtracted
/// from the backlog so the load generator never mistakes its future arrivals
/// for congestion), the per-deal broker reading (if any), and which deal is
/// being decided — extension signals look the deal up in their own
/// subsystem (e.g. the hop-chain capital signal asks the BrokerPool about
/// every broker along the deal's resale chain).
struct AdmissionContext {
  const World* world = nullptr;
  size_t self_pending = 0;
  const BrokerSignal* broker = nullptr;
  size_t deal_index = 0;
};

/// One admission input, promoted to a first-class interface. Scheduler
/// backlog, chain occupancy, broker capital, and any registered extension
/// all answer the same question per decision: how loaded is this resource,
/// and does it want to block this deal? The controller samples every
/// registered signal in order, tracks per-signal peaks and block counts,
/// and blocks the deal iff some signal is over AND its policy gate is on.
class AdmissionSignal {
 public:
  struct Reading {
    /// Sampled load, recorded for per-signal peak stats.
    uint64_t load = 0;
    /// The signal wants to block this admission (counted whether or not the
    /// gate lets it).
    bool over = false;
    /// Policy gate: false = record-only, the signal never blocks.
    bool gating = true;
  };

  virtual ~AdmissionSignal() = default;
  /// Short stable name ("backlog", "occupancy", "broker", "hop-capital")
  /// for stats and reports.
  virtual const char* name() const = 0;
  /// Sample the resource at one admission decision. Runs on the simulation
  /// thread, so it may read live World state through `ctx`; it must be
  /// deterministic in that state (no ambient entropy) to keep admission
  /// schedules seed-reproducible.
  virtual Reading Sample(const AdmissionContext& ctx) = 0;
};

/// Per-signal telemetry, parallel to the controller's signal list.
struct AdmissionSignalStats {
  std::string name;
  uint64_t peak_load = 0;
  /// Readings with over=true, gated or not.
  size_t blocked = 0;
};

/// What the controller can do with one arrival/retry event.
enum class AdmissionDecision : uint8_t { kAdmit, kDelay, kShed };

/// Display name ("admit" / "delay" / "shed") for reports and logs.
const char* ToString(AdmissionDecision d);

/// What the controller did and the worst congestion it sampled. The peak /
/// blocked fields are back-filled from the built-in signals' per-signal
/// stats, so legacy consumers keep reading the same numbers.
struct AdmissionStats {
  size_t admitted = 0;
  size_t delays = 0;  // delay events, not distinct deals
  size_t shed = 0;
  size_t peak_backlog_seen = 0;
  uint64_t peak_occupancy_seen = 0;
  /// Decisions at which a capital signal (broker built-in or a registered
  /// extension like hop-capital) reported insufficient free resources
  /// (whether or not its gate let it block).
  size_t broker_blocked = 0;
};

/// The admission policy: consulted once per arrival/retry event, on the
/// simulation thread (never concurrently). Decisions are a deterministic
/// function of the World's state at the consult tick. The constructor
/// registers the three built-in signals (scheduler backlog, chain
/// occupancy, broker capital); callers may register further signals, which
/// are sampled after the built-ins in registration order.
class AdmissionController {
 public:
  /// `world` must outlive the controller; its scheduler and chains are the
  /// congestion signals.
  AdmissionController(const AdmissionOptions& options, const World* world);

  /// Registers an extension signal (e.g. the hop-chain capital signal).
  /// Evaluated at every subsequent decision, after the built-ins.
  void RegisterSignal(std::unique_ptr<AdmissionSignal> signal);

  /// Decision for a deal that has already been delayed `retries` times.
  /// `self_pending` is how many of the scheduler's pending events belong to
  /// the caller's own admission machinery (not-yet-fired arrival and retry
  /// events). `broker`, if non-null, is the deal's broker
  /// capital/inventory reading, consumed by the broker built-in signal;
  /// with broker_gate on, a broker short on either resource delays/sheds
  /// the deal exactly like scheduler or chain congestion. `deal_index`
  /// names the deal for registered extension signals.
  AdmissionDecision Decide(size_t retries, size_t self_pending = 0,
                           const BrokerSignal* broker = nullptr,
                           size_t deal_index = 0);

  const AdmissionOptions& options() const { return options_; }
  const AdmissionStats& stats() const { return stats_; }
  /// Per-signal peaks and block counts, in signal registration order
  /// (built-ins first).
  const std::vector<AdmissionSignalStats>& signal_stats() const {
    return signal_stats_;
  }

  /// Deepest not-yet-included tx queue across the World's chains right now.
  uint64_t BusiestChainOccupancy() const;

 private:
  AdmissionOptions options_;
  const World* world_;
  AdmissionStats stats_;
  std::vector<std::unique_ptr<AdmissionSignal>> signals_;
  std::vector<AdmissionSignalStats> signal_stats_;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_ADMISSION_H_
