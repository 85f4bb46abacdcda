#include "core/admission.h"

#include <algorithm>
#include <cmath>  // frexp only: exact, no rounding-mode dependence

#include "chain/world.h"
#include "util/rng.h"

namespace xdeal {

double NegLogU01(double u) {
  if (!(u > 0.0)) return 0.0;  // defensive: callers pass (0, 1]
  if (u >= 1.0) return 0.0;

  // u = m * 2^e with m in [0.5, 1); ln u = ln m + e ln 2. frexp is exact.
  int e = 0;
  double m = std::frexp(u, &e);

  // ln m = 2 atanh(s) with s = (m-1)/(m+1) in [-1/3, 0): the odd series
  // 2(s + s^3/3 + s^5/5 + ...) needs 13 terms for ~1e-14 relative error at
  // |s| = 1/3. Only IEEE +,-,*,/ — no libm, so every platform agrees.
  double s = (m - 1.0) / (m + 1.0);
  double s2 = s * s;
  double sum = 0.0;
  for (int k = 12; k >= 0; --k) {
    sum = sum * s2 + 1.0 / static_cast<double>(2 * k + 1);
  }
  double ln_m = 2.0 * s * sum;

  constexpr double kLn2 = 0.6931471805599453;  // nearest double to ln 2
  return -(ln_m + static_cast<double>(e) * kLn2);
}

Tick PoissonArrivalGap(uint64_t base_seed, uint64_t deal_index,
                       double mean_gap) {
  if (!(mean_gap > 0.0)) return 0;
  // Independent stream from TrafficDealSeed/ScenarioSeed: arrival timing
  // must never correlate with the shapes the per-deal seeds draw.
  SplitMix64 base(base_seed ^ 0x6172726976616CULL);  // "arrival" stream
  SplitMix64 mixed(base.Next() ^
                   (deal_index * 0xD1B54A32D192ED03ULL +
                    0x9E3779B97F4A7C15ULL));
  // 53 uniform bits mapped to (0, 1]: u = 0 is impossible, so NegLogU01 is
  // finite, and u = 1 (gap 0 — simultaneous arrivals) stays representable.
  uint64_t bits = mixed.Next();
  double u = static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
  double gap = mean_gap * NegLogU01(u);
  return static_cast<Tick>(gap + 0.5);
}

std::vector<Tick> BuildArrivalSchedule(ArrivalProcess process,
                                       size_t num_deals, uint64_t base_seed,
                                       double mean_gap) {
  std::vector<Tick> arrivals(num_deals, 0);
  if (process == ArrivalProcess::kFixedStagger) {
    Tick gap = static_cast<Tick>(mean_gap + 0.5);
    for (size_t d = 0; d < num_deals; ++d) {
      arrivals[d] = static_cast<Tick>(d) * gap;
    }
    return arrivals;
  }
  Tick at = 0;
  for (size_t d = 0; d < num_deals; ++d) {
    // The gap *preceding* deal d; deal 0 arrives after its own first gap,
    // so even the first arrival is load-dependent, as in an open queue.
    at += PoissonArrivalGap(base_seed, d, mean_gap);
    arrivals[d] = at;
  }
  return arrivals;
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         const World* world)
    : options_(options), world_(world) {}

uint64_t AdmissionController::BusiestChainOccupancy() const {
  uint64_t busiest = 0;
  for (uint32_t c = 0; c < world_->num_chains(); ++c) {
    uint64_t pending = world_->chain(ChainId{c})->pending_txs();
    if (pending > busiest) busiest = pending;
  }
  return busiest;
}

AdmissionDecision AdmissionController::Decide(size_t retries,
                                              size_t self_pending,
                                              bool broker_short) {
  // The backlog excludes the caller's own not-yet-fired admission events.
  // Both peaks are recorded whatever the verdict; a threshold of 0 only
  // records.
  const size_t pending = world_->scheduler().pending();
  const size_t backlog = pending > self_pending ? pending - self_pending : 0;
  const uint64_t occupancy = BusiestChainOccupancy();
  stats_.peak_backlog_seen = std::max(stats_.peak_backlog_seen, backlog);
  stats_.peak_occupancy_seen =
      std::max(stats_.peak_occupancy_seen, occupancy);
  if (broker_short) ++stats_.broker_blocked;

  const bool over = (options_.max_scheduler_backlog > 0 &&
                     backlog > options_.max_scheduler_backlog) ||
                    (options_.max_chain_occupancy > 0 &&
                     occupancy > options_.max_chain_occupancy) ||
                    broker_short;
  if (!over) {
    ++stats_.admitted;
    return AdmissionDecision::kAdmit;
  }
  if (retries >= options_.max_retries) {
    ++stats_.shed;
    return AdmissionDecision::kShed;
  }
  ++stats_.delays;
  return AdmissionDecision::kDelay;
}

}  // namespace xdeal
