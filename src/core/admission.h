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
//                     plus the caller's broker-capital reading, and decides
//                     to admit the deal, delay it for a retry quantum, or
//                     shed it outright after too many retries.
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
/// kFixedStagger this is exactly {0, gap, 2*gap, ...} with `mean_gap`
/// rounded to the nearest tick as the gap.
XDEAL_DETERMINISTIC
std::vector<Tick> BuildArrivalSchedule(ArrivalProcess process,
                                       size_t num_deals, uint64_t base_seed,
                                       double mean_gap);

/// Backpressure thresholds. A threshold of 0 means "don't consider this
/// signal"; with both at 0 the controller admits everything (but still
/// records the congestion it sampled). A deal whose broker is short of
/// capital or inventory is always held back (see Decide).
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
};

/// What the controller can do with one arrival/retry event.
enum class AdmissionDecision : uint8_t { kAdmit, kDelay, kShed };

/// What the controller did and the worst congestion it sampled.
struct AdmissionStats {
  size_t admitted = 0;
  size_t delays = 0;  // delay events, not distinct deals
  size_t shed = 0;
  size_t peak_backlog_seen = 0;
  uint64_t peak_occupancy_seen = 0;
  /// Decisions at which the deal's broker (or some broker along its hop
  /// chain) was short of free capital or inventory.
  size_t broker_blocked = 0;
};

/// The admission policy: consulted once per arrival/retry event, on the
/// simulation thread (never concurrently). It holds a deal back when the
/// scheduler backlog or the busiest chain's occupancy is over its threshold,
/// or when the deal's broker cannot cover it. Decisions are a deterministic
/// function of the World's state at the consult tick.
class AdmissionController {
 public:
  /// `world` must outlive the controller; its scheduler and chains are the
  /// congestion signals.
  AdmissionController(const AdmissionOptions& options, const World* world);

  /// Decision for a deal that has already been delayed `retries` times.
  /// `self_pending` is how many of the scheduler's pending events belong to
  /// the caller's own admission machinery (not-yet-fired arrival and retry
  /// events). `broker_short` is the deal's broker reading
  /// (BrokerPool::CapitalShort): a short broker delays/sheds the deal
  /// exactly like scheduler or chain congestion.
  AdmissionDecision Decide(size_t retries, size_t self_pending = 0,
                           bool broker_short = false);

  const AdmissionStats& stats() const { return stats_; }

  /// Deepest not-yet-included tx queue across the World's chains right now.
  uint64_t BusiestChainOccupancy() const;

 private:
  AdmissionOptions options_;
  const World* world_;
  AdmissionStats stats_;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_ADMISSION_H_
