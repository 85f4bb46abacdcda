// Concurrent multi-deal traffic benchmark: D deals (mixed timelock/CBC)
// contending on a shared chain pool inside one World. Nine sections, run
// in the order below, all landing in one BENCH_traffic.json that CI
// archives and diffs against the committed baseline. Every grid is fixed,
// so every run writes the same (name, labels) keys and the baseline diff
// compares values only.
//
//   scale sweep    D ∈ {1, 10, 100, 1000}. Gated on the benign workload
//                  being fully conformant.
//
//   shard sweep    CbcService shard count S ∈ {1, 2, 4, 8} on a CBC-only
//                  D=1000 workload. Gated on full conformance at every S;
//                  wall time and goodput per S are charted, not gated.
//
//   rate sweep     THE open-loop section: seeded Poisson arrivals at
//                  λ ∈ {10, ..., 320} deals per kilotick against finite
//                  block capacity, each rate run with the admission
//                  controller off and on. Charts latency P50/P99, goodput
//                  and sheds per cell; the gate requires the latency knee
//                  to exist (P99 at some rate > 2x the low-rate P99) and the
//                  controller to measurably bound P99 and goodput at the
//                  highest rate. Simulated-tick metrics are deterministic,
//                  so the gate cannot flap on a noisy runner.
//
//   frontier       (block capacity × Δ) grid on a fixed-stagger timelock
//                  workload, mapping where Property 3 (strong liveness on
//                  schedule) starts failing — the paper's §5 "large enough
//                  Δ" made quantitative. Emits per-cell violations and a
//                  per-capacity min-safe-Δ; gates on the two corner cells
//                  (ample capacity safe, starved capacity unsafe).
//
//   broker sweep   (brokers × working capital × λ) on a fully brokered
//                  open-loop workload with ample chain capacity and the
//                  admission controller gating only on broker capital and
//                  inventory: the knee is where working capital, not chain
//                  capacity, becomes the bottleneck. Capitals are swept
//                  largest first, so the first cell of each (B, λ) is the
//                  ample corner and the knee capital is the largest capital
//                  at which the gate shed. Gated on the ample corner being
//                  clean, scarcity degrading P99 and goodput, and zero
//                  broker portfolio violations anywhere.
//
//   xshard sweep   cross-shard deal fraction (cbc_xshard_every) on an
//                  all-CBC S=4 workload: deals whose assets span shards
//                  settle via portable DecideProofs. Gated on exact
//                  conformance at every fraction, the ≥25% cross-shard
//                  quorum at the stock setting, and zero stale-proof
//                  rejections (nobody replays in a benign run).
//
//   hopchain sweep hop depth × margin pricing on a brokered open-loop
//                  workload: depth-H broker chains (goods walk seller →
//                  B1 → … → BH → buyer atomically) with occupancy-priced
//                  capital. Emits the margin-vs-occupancy market-clearing
//                  curve (bucketed price chart) per depth; gated on zero
//                  portfolio violations everywhere and a genuinely rising
//                  priced curve.
//
//   big-D          D ∈ {10^3, 10^4, 10^5} open-loop Poisson deals on D/8
//                  chains and 8 CBC shards, controller on. Gated on full
//                  conformance at every D, and in-binary on deals/sec
//                  degrading by less than 2x per 10x growth in D
//                  (wall-clock, never baseline-diffed).
//
//   epoch service  TrafficService (long-lived mode): 6 epochs of 30
//                  Poisson deals with towers, brokers, sharded CBC, and
//                  tower-crash injection, run straight through and then
//                  once per checkpoint cadence k ∈ {1, 2, 4} with a full
//                  serialize → destroy → restore cycle at every k-th
//                  boundary. Gated on the restored runs matching the
//                  straight run exactly (epoch_restore_parity), a corrupted
//                  snapshot being rejected (epoch_snapshot_reject_ok), and
//                  zero violations per epoch; also charts snapshot size and
//                  checkpoint/restore wall-time percentiles.
//
// A soak mode, --soak=N, replaces all sections with one long open-loop
// run (controller on) gated on full conformance; the nightly workflow runs
// it.
//
// An epoch-soak mode, --epoch_soak=E (with --epoch_deals=D, default 5000),
// replaces all sections with a long-lived service run of E epochs × D
// deals, executed twice: once straight through and once with a forced
// kill + restore at the midpoint epoch boundary. Gated on bit-identical
// final fingerprints and zero violations; the nightly workflow runs it.
//
// Exit status is nonzero if any gate fails, so this binary doubles as the
// traffic conformance + trajectory gate in CI.
//
// Usage:  bench_traffic [--json=BENCH_traffic.json] [--seed=1]
//                       [--soak=N | --epoch_soak=E [--epoch_deals=D]]

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/traffic_engine.h"

using namespace xdeal;

namespace {

using Labels = bench::JsonReport::Labels;

double WallMs(const std::chrono::steady_clock::time_point& start) {
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start)
             .count() /
         1000.0;
}

/// A gate: when `holds` is false, prints the failure message and clears
/// `*ok`. Returns `holds`.
bool Gate(bool* ok, bool holds, const char* format, ...) {
  if (!holds) {
    *ok = false;
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
  }
  return holds;
}

/// One timed RunTraffic: the report plus the wall time the run took.
struct Run : TrafficReport {
  double wall_ms = 0;
};

/// One metric of a section's rows: its name after the section's prefix,
/// its unit, and how to read it off a row.
template <typename Row>
struct Column {
  const char* name;
  const char* unit;
  double (*get)(const Row&);
};

/// Reads one numeric field of a row as a metric value.
template <typename Row, auto kField>
double Field(const Row& row) {
  return static_cast<double>(row.*kField);
}

constexpr Column<Run> kWallMs = {
    "wall_ms", "ms", [](const Run& run) { return run.wall_ms; }};
constexpr Column<Run> kDealsPerSec = {
    "deals_per_sec", "1/s", [](const Run& run) {
      return static_cast<double>(run.num_deals) / (run.wall_ms / 1000.0);
    }};
constexpr Column<Run> kCommitted = {
    "committed", "", Field<Run, &TrafficReport::committed>};
constexpr Column<Run> kShed = {"shed", "", Field<Run, &TrafficReport::shed>};
constexpr Column<Run> kViolations = {
    "violations", "", [](const Run& run) {
      return static_cast<double>(run.violations.size());
    }};
constexpr Column<Run> kPortfolioViolations = {
    "portfolio_violations", "",
    Field<Run, &TrafficReport::broker_portfolio_violations>};
constexpr Column<Run> kLatencyP50 = {
    "latency_p50", "ticks", Field<Run, &TrafficReport::latency_p50>};
constexpr Column<Run> kLatencyP99 = {
    "latency_p99", "ticks", Field<Run, &TrafficReport::latency_p99>};
constexpr Column<Run> kGoodput = {
    "goodput_per_ktick", "1/kt", Field<Run, &TrafficReport::deals_per_ktick>};

std::string FormatValue(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), value == std::floor(value) ? "%.0f" : "%.2f",
                value);
  return buf;
}

/// Writes one row: every column becomes the metric `prefix + name` under
/// `labels` in the JSON report, and the row's values one printed line.
template <typename Row>
void WriteRow(bench::JsonReport* json, const std::string& prefix,
              const Labels& labels, const std::vector<Column<Row>>& columns,
              const Row& row) {
  std::string line = " ";
  for (const auto& [key, value] : labels) line += " " + key + "=" + value;
  line += " |";
  for (const Column<Row>& column : columns) {
    const double value = column.get(row);
    json->AddMetric(prefix + column.name, value, column.unit, labels);
    line += " " + std::string(column.name) + "=" + FormatValue(value);
  }
  std::printf("%s\n", line.c_str());
}

/// The cell runner: one timed RunTraffic of `options`, written as one row.
Run RunCell(bench::JsonReport* json, const std::string& prefix,
            const Labels& labels, const TrafficOptions& options,
            const std::vector<Column<Run>>& columns) {
  const auto start = std::chrono::steady_clock::now();
  Run run{RunTraffic(options)};
  run.wall_ms = WallMs(start);
  WriteRow(json, prefix, labels, columns, run);
  return run;
}

/// D deals on a pool scaled with the workload (≈8 deals per chain, at
/// least 4 chains), so load per chain stays heavy but bounded as D grows.
TrafficOptions PoolOptions(size_t deals, uint64_t base_seed) {
  TrafficOptions options;
  options.base_seed = base_seed;
  options.num_deals = deals;
  options.num_chains = std::max<size_t>(4, deals / 8);
  return options;
}

/// The backpressure policy the rate sweep and soak exercise: bound the
/// busiest chain's tx queue, retry a few times, then shed.
AdmissionOptions StockController() {
  AdmissionOptions admission;
  admission.enabled = true;
  admission.max_chain_occupancy = 24;
  admission.retry_delay = 20;
  admission.max_retries = 3;
  return admission;
}

// ---------------------------------------------------------------------------
// Section 1: scale sweep (D) — conformance gate.
// ---------------------------------------------------------------------------
bool ScaleSweep(uint64_t base_seed, bench::JsonReport* json) {
  const std::vector<Column<Run>> columns = {
      kWallMs,
      kDealsPerSec,
      kCommitted,
      {"commit_latency_p50", "ticks", Field<Run, &TrafficReport::latency_p50>},
      {"commit_latency_p99", "ticks", Field<Run, &TrafficReport::latency_p99>},
      {"gas_per_deal_p50", "gas", Field<Run, &TrafficReport::gas_p50>},
      {"gas_per_deal_p99", "gas", Field<Run, &TrafficReport::gas_p99>},
      {"total_gas", "gas", Field<Run, &TrafficReport::total_gas>},
      {"events_executed", "", Field<Run, &TrafficReport::events_executed>},
      {"max_backlog", "", Field<Run, &TrafficReport::max_backlog>},
      kViolations};
  std::printf("=== scale sweep: D deals on D/8 chains ===\n");
  bool ok = true;
  for (size_t deals : {1, 10, 100, 1000}) {
    const Run run = RunCell(json, "", {{"deals", std::to_string(deals)}},
                            PoolOptions(deals, base_seed), columns);
    // Conformance: this benign workload (no injection, unlimited block
    // capacity) must commit every deal with zero property violations.
    Gate(&ok, run.committed == deals && run.violations.empty() &&
              run.double_spends.empty(),
         "  CONFORMANCE FAILURE at deals=%zu\n%s", deals,
         run.Summary().c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 2: CBC shard sweep — one CBC-only workload, S shards.
// ---------------------------------------------------------------------------
bool ShardSweep(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 1000;
  const std::vector<Column<Run>> columns = {
      kWallMs, kDealsPerSec, kCommitted,
      {"deals_per_ktick", "1/kt", Field<Run, &TrafficReport::deals_per_ktick>}};
  std::printf("\n=== CBC shard sweep: D=%zu all-CBC deals, one shared "
              "service, deals hashed to S shards ===\n", kDeals);
  bool ok = true;
  for (size_t shards : {1, 2, 4, 8}) {
    TrafficOptions options = PoolOptions(kDeals, base_seed);
    options.protocol_mix = {Protocol::kCbc};
    options.cbc_shards = shards;
    const Run run = RunCell(json, "shard_sweep_",
                            {{"shards", std::to_string(shards)},
                             {"deals", std::to_string(kDeals)}},
                            options, columns);
    Gate(&ok, run.committed == kDeals && run.violations.empty(),
         "  CONFORMANCE FAILURE at shards=%zu\n%s", shards,
         run.Summary().c_str());
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 3: open-loop arrival-rate sweep — the latency/goodput knee, with
// the admission controller off and on at every rate.
// ---------------------------------------------------------------------------
bool RateSweep(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 300;
  constexpr size_t kRates[] = {10, 20, 40, 80, 160, 320};
  const std::vector<Column<Run>> columns = {
      kLatencyP50, kLatencyP99, kGoodput,
      {"offered_per_ktick", "1/kt",
       Field<Run, &TrafficReport::offered_per_ktick>},
      kCommitted, kShed, kViolations, kWallMs};
  std::printf("\n=== open-loop rate sweep: D=%zu Poisson arrivals at λ "
              "deals/ktick, block capacity 6 on 4 chains, controller "
              "off/on ===\n", kDeals);

  std::vector<std::array<Run, 2>> cells;  // per rate: controller off, on
  for (size_t rate : kRates) {
    std::array<Run, 2>& cell = cells.emplace_back();
    for (bool controlled : {false, true}) {
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = kDeals;
      options.num_chains = 4;
      options.block_capacity = 6;
      options.arrival = ArrivalProcess::kPoisson;
      options.mean_interarrival = 1000.0 / static_cast<double>(rate);
      if (controlled) options.admission = StockController();
      cell[controlled] = RunCell(json, "rate_sweep_",
                                 {{"rate", std::to_string(rate)},
                                  {"controller", controlled ? "on" : "off"},
                                  {"deals", std::to_string(kDeals)}},
                                 options, columns);
    }
  }

  // The lowest rate must be a clean baseline: open-loop arrivals at a
  // trickle are just a sparser version of the conformant stagger.
  const Run& trickle = cells.front()[0];
  bool ok = true;
  Gate(&ok, trickle.committed == kDeals && trickle.violations.empty(),
       "  RATE SWEEP FAILURE: not conformant at the lowest rate λ=%zu\n%s",
       kRates[0], trickle.Summary().c_str());

  // Knee: the first rate whose controller-off P99 exceeds 2x the P99 at
  // the lowest (uncongested) rate. All simulated ticks — deterministic.
  const Tick base_p99 = trickle.latency_p99;
  size_t knee_rate = 0;
  for (size_t i = 0; i < cells.size() && knee_rate == 0; ++i) {
    if (cells[i][0].latency_p99 > 2 * base_p99) knee_rate = kRates[i];
  }
  json->AddMetric("rate_sweep_knee_rate", static_cast<double>(knee_rate),
                  "1/kt", {{"deals", std::to_string(kDeals)}});
  if (!Gate(&ok, knee_rate != 0,
            "RATE SWEEP FAILURE: no latency knee found — P99 never exceeded "
            "2x the low-rate baseline (%" PRIu64 " ticks); the sweep is not "
            "reaching congestion\n", base_p99)) {
    return false;
  }
  std::printf("latency knee at λ=%zu deals/ktick (low-rate P99 %" PRIu64
              " ticks)\n", knee_rate, base_p99);

  // Past the knee the controller must earn its keep: bounded tail latency,
  // load actually shed, and better goodput than the uncontrolled collapse.
  // Deterministic in simulated time.
  const size_t top = kRates[cells.size() - 1];
  const Run& off = cells.back()[0];
  const Run& on = cells.back()[1];
  Gate(&ok, on.shed != 0,
       "RATE SWEEP FAILURE: controller shed nothing at λ=%zu\n", top);
  Gate(&ok, on.latency_p99 < off.latency_p99,
       "RATE SWEEP FAILURE: controller did not bound P99 at λ=%zu "
       "(%" PRIu64 " >= %" PRIu64 " ticks)\n",
       top, on.latency_p99, off.latency_p99);
  Gate(&ok, on.deals_per_ktick > off.deals_per_ktick,
       "RATE SWEEP FAILURE: controller did not improve goodput at "
       "λ=%zu (%.2f <= %.2f per ktick)\n",
       top, on.deals_per_ktick, off.deals_per_ktick);
  return ok;
}

// ---------------------------------------------------------------------------
// Section 4: block-capacity × Δ conformance frontier (Property 3).
// ---------------------------------------------------------------------------
bool Frontier(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 60;
  constexpr size_t kCaps[] = {2, 3, 4, 6, 8};
  constexpr Tick kDeltas[] = {120, 240, 480, 960};
  const std::vector<Column<Run>> columns = {kCommitted, kViolations,
                                            kLatencyP99};
  std::printf("\n=== capacity × Δ frontier: D=%zu timelock deals on 2 "
              "chains, 20-tick stagger — where Property 3 starts failing "
              "===\n", kDeals);

  bool ok = true;
  for (size_t cap : kCaps) {
    Tick min_safe_delta = 0;  // 0: no swept Δ rescues this capacity
    for (Tick delta : kDeltas) {
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = kDeals;
      options.num_chains = 2;
      options.block_capacity = cap;
      options.mean_interarrival = 20;
      options.delta = delta;
      options.protocol_mix = {Protocol::kTimelock};
      const Run run = RunCell(json, "frontier_",
                              {{"capacity", std::to_string(cap)},
                               {"delta", std::to_string(delta)},
                               {"deals", std::to_string(kDeals)}},
                              options, columns);
      if (run.violations.empty() && min_safe_delta == 0) {
        min_safe_delta = delta;
      }
      // The frontier must actually be a frontier: ample capacity safe at
      // the stock Δ, starved capacity unsafe — both deterministic.
      if (delta != kDeltas[0]) continue;
      if (cap == kCaps[std::size(kCaps) - 1]) {
        Gate(&ok, run.violations.empty(),
             "FRONTIER FAILURE: %zu violations at the ample-capacity "
             "corner (cap=%zu, Δ=%" PRIu64 ") — the safe region "
             "vanished\n", run.violations.size(), cap, delta);
      }
      if (cap == kCaps[0]) {
        Gate(&ok, !run.violations.empty(),
             "FRONTIER FAILURE: zero violations at the starved corner "
             "(cap=%zu, Δ=%" PRIu64 ") — the sweep no longer reaches "
             "the unsafe region\n", cap, delta);
      }
    }
    std::printf("  capacity=%zu | min safe Δ=%" PRIu64 "\n", cap,
                min_safe_delta);
    json->AddMetric("frontier_min_safe_delta",
                    static_cast<double>(min_safe_delta), "ticks",
                    {{"capacity", std::to_string(cap)},
                     {"deals", std::to_string(kDeals)}});
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 5: broker capital-contention sweep — (brokers × capital × λ) on a
// fully brokered workload; chain capacity is fixed and ample, so the knee
// this section locates is where WORKING CAPITAL becomes the bottleneck.
// ---------------------------------------------------------------------------
bool BrokerSweep(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 240;
  constexpr uint64_t kCapitals[] = {3200, 1600, 800, 400};  // largest first
  const std::vector<Column<Run>> columns = {
      kCommitted, kShed,
      {"delayed", "", Field<Run, &TrafficReport::delayed_deals>},
      kLatencyP50, kLatencyP99, kGoodput, kViolations, kPortfolioViolations,
      {"blocked_decisions", "", Field<Run, &TrafficReport::broker_blocked>},
      kWallMs};
  std::printf("\n=== broker sweep: D=%zu brokered Poisson deals, block "
              "capacity 24 on 4 chains (ample), admission gated on broker "
              "capital/inventory only ===\n", kDeals);

  bool ok = true;
  for (size_t brokers : {4, 8}) {
    for (size_t rate : {40, 80}) {
      std::vector<Run> runs;  // one per capital, largest first
      uint64_t knee_capital = 0;  // largest capital at which the gate shed
      for (uint64_t capital : kCapitals) {
        TrafficOptions options;
        options.base_seed = base_seed;
        options.num_deals = kDeals;
        options.num_chains = 4;
        options.block_capacity = 24;  // fixed and ample: not the bottleneck
        options.arrival = ArrivalProcess::kPoisson;
        options.mean_interarrival = 1000.0 / static_cast<double>(rate);
        options.brokers.num_brokers = brokers;
        options.brokers.working_capital = capital;
        options.brokers.inventory = 64;
        options.admission.enabled = true;  // broker signal is the only gate
        options.admission.retry_delay = 25;
        options.admission.max_retries = 8;
        const Run& run = runs.emplace_back(
            RunCell(json, "broker_sweep_",
                    {{"brokers", std::to_string(brokers)},
                     {"capital", std::to_string(capital)},
                     {"rate", std::to_string(rate)},
                     {"deals", std::to_string(kDeals)}},
                    options, columns));
        if (run.shed > 0 && knee_capital == 0) knee_capital = capital;
        // Compliant brokers must end whole in every cell — the portfolio
        // check is the cross-deal conformance gate of this section.
        Gate(&ok, run.broker_portfolio_violations == 0,
             "  BROKER SWEEP FAILURE: %zu portfolio violations at "
             "B=%zu capital=%" PRIu64 " λ=%zu\n%s",
             run.broker_portfolio_violations, brokers, capital, rate,
             run.Summary().c_str());
      }

      // The ample corner must be clean: with enough capital the broker gate
      // never fires, so any shed/violation there means the contention is
      // NOT coming from capital.
      const Run& ample = runs.front();
      Gate(&ok, ample.shed == 0 && ample.committed == kDeals &&
                ample.violations.empty(),
           "  BROKER SWEEP FAILURE: ample-capital corner not clean at "
           "B=%zu λ=%zu\n%s", brokers, rate, ample.Summary().c_str());
      json->AddMetric("broker_sweep_knee_capital",
                      static_cast<double>(knee_capital), "coins",
                      {{"brokers", std::to_string(brokers)},
                       {"rate", std::to_string(rate)},
                       {"deals", std::to_string(kDeals)}});
      if (Gate(&ok, knee_capital != 0,
               "BROKER SWEEP FAILURE: no capital knee at B=%zu λ=%zu — even "
               "the smallest capital never forced a shed; the sweep is not "
               "reaching capital contention\n", brokers, rate)) {
        std::printf("capital knee at B=%zu λ=%zu: contention begins at "
                    "capital=%" PRIu64 "\n", brokers, rate, knee_capital);
      }
      // Shrinking capital must degrade the workload: at the scarcest
      // capital the gate sheds, the tail stretches (admission waits count
      // toward sojourn latency), and goodput drops below the ample corner.
      const Run& scarce = runs.back();
      Gate(&ok, scarce.shed != 0 && scarce.latency_p99 > ample.latency_p99 &&
                scarce.deals_per_ktick < ample.deals_per_ktick,
           "BROKER SWEEP FAILURE: capital scarcity did not degrade "
           "B=%zu λ=%zu (shed=%zu, P99 %" PRIu64 " vs ample %" PRIu64
           ", goodput %.2f vs ample %.2f)\n",
           brokers, rate, scarce.shed, scarce.latency_p99,
           ample.latency_p99, scarce.deals_per_ktick,
           ample.deals_per_ktick);
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 6: cross-shard deal sweep — the fraction of CBC deals whose assets
// span shards (settling via portable DecideProofs) on an all-CBC S=4
// workload. Every metric here is simulated/deterministic, so the gate and
// the baseline diff are exact.
// ---------------------------------------------------------------------------
bool XShardSweep(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 200;
  const std::vector<Column<Run>> columns = {
      kCommitted,
      {"cross_deals", "", Field<Run, &TrafficReport::cross_shard_deals>},
      kViolations,
      {"stale_rejections", "",
       Field<Run, &TrafficReport::stale_decide_rejections>},
      kLatencyP50, kLatencyP99,
      {"gas_p99", "gas", Field<Run, &TrafficReport::gas_p99>},
      kWallMs};
  std::printf("\n=== cross-shard sweep: D=%zu all-CBC deals on 4 shards, "
              "every k-th deal's assets placed across shard chains "
              "(k=0: off) ===\n", kDeals);

  bool ok = true;
  for (size_t every : {0, 4, 2, 1}) {
    TrafficOptions options;
    options.base_seed = base_seed;
    options.num_deals = kDeals;
    options.num_chains = 4;
    options.cbc_shards = 4;
    options.cbc_xshard_every = every;
    options.min_assets = 2;  // spanning deals really span >= 2 shards
    options.protocol_mix = {Protocol::kCbc};
    const Run run = RunCell(json, "xshard_",
                            {{"every", std::to_string(every)},
                             {"deals", std::to_string(kDeals)}},
                            options, columns);

    // Cross-shard settlement must be conformance-invisible: every deal
    // commits at every fraction, and a benign run never trips the
    // stale-proof defense.
    Gate(&ok, run.committed == kDeals && run.violations.empty() &&
              run.stale_decide_rejections == 0,
         "  XSHARD SWEEP FAILURE at every=%zu\n%s", every,
         run.Summary().c_str());
    Gate(&ok, every != 0 || run.cross_shard_deals == 0,
         "  XSHARD SWEEP FAILURE: cross-shard deals reported with "
         "placement off\n");
    // The stock setting (every=2) is the acceptance quorum: at least 25% of
    // CBC deals span >= 2 shards.
    Gate(&ok, every != 2 || run.cross_shard_deals * 4 >= run.cbc_deals,
         "  XSHARD SWEEP FAILURE: cross-shard quorum lost at every=2 "
         "(%zu of %zu CBC deals)\n",
         run.cross_shard_deals, run.cbc_deals);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 7: hop-chain sweep — multi-hop broker chains with priced capital.
// Hop depth H ∈ {1, 2, 3}, margins flat (slope 0) and occupancy-priced
// (slope 300) at each depth; the priced cells chart the margin-vs-occupancy
// market-clearing curve from the per-hop price points.
// ---------------------------------------------------------------------------
constexpr uint64_t kHopCapital = 3000;  // each broker's working capital
constexpr size_t kCurveBuckets = 10;

/// One occupancy decile of the market-clearing curve.
struct CurveBucket {
  double margin_sum = 0;
  size_t points = 0;
};

/// Every admitted hop's (occupancy at pricing time, margin charged) point,
/// bucketed by occupancy decile of the working capital.
struct PriceChart {
  size_t points = 0;
  uint64_t margin_min = 0;
  uint64_t margin_max = 0;
  std::array<CurveBucket, kCurveBuckets> curve;
};

PriceChart ChartOf(const TrafficReport& report) {
  PriceChart chart;
  chart.margin_min = UINT64_MAX;
  for (const TrafficDealRecord& rec : report.deals) {
    if (rec.shed) continue;
    for (const BrokerPool::PricePoint& point : rec.price_points) {
      const size_t bucket = std::min<size_t>(
          point.occupancy * kCurveBuckets / kHopCapital, kCurveBuckets - 1);
      chart.curve[bucket].margin_sum += static_cast<double>(point.margin);
      ++chart.curve[bucket].points;
      chart.margin_min = std::min(chart.margin_min, point.margin);
      chart.margin_max = std::max(chart.margin_max, point.margin);
      ++chart.points;
    }
  }
  if (chart.points == 0) chart.margin_min = 0;
  return chart;
}

bool HopChainSweep(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kDeals = 160;
  constexpr uint64_t kPricedSlope = 300;
  const std::vector<Column<Run>> columns = {
      kCommitted, kShed, kViolations, kPortfolioViolations, kLatencyP99,
      kGoodput, kWallMs};
  const std::vector<Column<PriceChart>> chart_columns = {
      {"price_points", "", Field<PriceChart, &PriceChart::points>},
      {"margin_min", "coins", Field<PriceChart, &PriceChart::margin_min>},
      {"margin_max", "coins", Field<PriceChart, &PriceChart::margin_max>}};
  const std::vector<Column<CurveBucket>> curve_columns = {
      {"curve_margin", "coins",
       [](const CurveBucket& b) {
         return b.margin_sum / static_cast<double>(b.points);
       }},
      {"curve_points", "", Field<CurveBucket, &CurveBucket::points>}};
  std::printf("\n=== hop-chain sweep: D=%zu brokered Poisson deals, 4 "
              "brokers, depth-H resale chains, margins flat vs "
              "occupancy-priced (slope %" PRIu64 ") ===\n",
              kDeals, kPricedSlope);

  const uint64_t flat_margin = BrokerOptions{}.unit_margin;
  bool ok = true;
  for (size_t depth : {1, 2, 3}) {
    for (uint64_t slope : {uint64_t{0}, kPricedSlope}) {
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = kDeals;
      options.num_chains = 4;
      options.block_capacity = 24;  // ample: capital is the only contention
      options.arrival = ArrivalProcess::kPoisson;
      options.mean_interarrival = 20.0;
      options.brokers.num_brokers = 4;
      options.brokers.working_capital = kHopCapital;
      options.brokers.inventory = 200;
      options.brokers.hop_depth = depth;
      options.brokers.margin_slope = slope;
      options.admission.enabled = true;  // hop-capital gate + live pricing
      options.admission.retry_delay = 25;
      options.admission.max_retries = 8;
      const Labels labels = {{"depth", std::to_string(depth)},
                             {"slope", std::to_string(slope)},
                             {"deals", std::to_string(kDeals)}};
      const Run run = RunCell(json, "hopchain_", labels, options, columns);
      const PriceChart chart = ChartOf(run);
      WriteRow(json, "hopchain_", labels, chart_columns, chart);

      // Conformance everywhere: zero property violations, zero portfolio
      // violations — every compliant hop ends whole at every depth/price.
      Gate(&ok, run.violations.empty() &&
                run.broker_portfolio_violations == 0 &&
                run.double_spends.empty() && run.committed != 0,
           "  HOPCHAIN SWEEP FAILURE at depth=%zu slope=%" PRIu64
           "\n%s", depth, slope, run.Summary().c_str());
      Gate(&ok, run.broker_hop_depth == depth,
           "  HOPCHAIN SWEEP FAILURE: effective depth %zu != %zu\n",
           run.broker_hop_depth, depth);
      // Flat cells price every hop at the stock margin; priced cells must
      // produce a genuinely rising curve (the market clears: occupancy
      // pushes margins above flat).
      if (slope == 0) {
        Gate(&ok, chart.points == 0 || (chart.margin_min == flat_margin &&
                                        chart.margin_max == flat_margin),
             "  HOPCHAIN SWEEP FAILURE: flat run priced margins "
             "%" PRIu64 "-%" PRIu64 " (expected %" PRIu64 ")\n",
             chart.margin_min, chart.margin_max, flat_margin);
        continue;
      }
      Gate(&ok, chart.margin_max > flat_margin,
           "  HOPCHAIN SWEEP FAILURE: priced run never cleared above "
           "the flat margin at depth=%zu — no occupancy pressure "
           "reached the price\n", depth);
      for (size_t b = 0; b < kCurveBuckets; ++b) {
        if (chart.curve[b].points == 0) continue;
        Labels point_labels = labels;
        point_labels.emplace_back("occupancy_pct",
                                  std::to_string(b * 100 / kCurveBuckets));
        WriteRow(json, "hopchain_", point_labels, curve_columns,
                 chart.curve[b]);
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 8: big-D scaling — D ∈ {10^3, 10^4, 10^5} open-loop deals under
// indexed observation delivery. The gate is the asymptotic itself: deals/sec
// may degrade by less than 2x per 10x growth in D. Under the old
// scan-the-world observation path the 10^4 → 10^5 step degraded by ~10x
// (O(D²) on the shared CBC chains); the indexed path keeps per-deal cost
// O(own receipts), so throughput stays within constant-factor range.
// ---------------------------------------------------------------------------
bool BigD(uint64_t base_seed, bench::JsonReport* json) {
  const std::vector<Column<Run>> columns = {
      kWallMs, kDealsPerSec, kCommitted, kShed, kViolations, kGoodput};
  std::printf("\n=== big-D scaling: open-loop Poisson deals, indexed "
              "observation, 8 CBC shards, controller on ===\n");

  bool ok = true;
  std::vector<std::pair<size_t, double>> rates;  // (D, deals/sec)
  for (size_t deals : {1000, 10000, 100000}) {
    TrafficOptions options;
    options.base_seed = base_seed;
    options.num_deals = deals;
    // Chains scale with D so per-chain asset load stays bounded, but the 8
    // CBC shard chains are shared by EVERY CBC deal — the former O(D²)
    // observation hot spot this section exists to measure.
    options.num_chains = std::max<size_t>(8, deals / 8);
    options.cbc_shards = 8;
    options.arrival = ArrivalProcess::kPoisson;
    options.mean_interarrival = 20.0;
    options.admission = StockController();
    const Run run = RunCell(json, "bigd_", {{"deals", std::to_string(deals)}},
                            options, columns);
    rates.emplace_back(deals, kDealsPerSec.get(run));

    // Conformance: every deal admitted and committed, zero violations —
    // all deterministic counters, exact-gated against the baseline.
    Gate(&ok, run.committed == deals && run.shed == 0 &&
              run.violations.empty() && run.double_spends.empty(),
         "  BIG-D FAILURE: non-conformant at D=%zu\n%s", deals,
         run.Summary().c_str());
  }

  // The scaling gate (in-binary, wall-clock — never baseline-diffed): for
  // every 10x step in D, deals/sec must degrade by less than 2x. A revived
  // O(D²) path fails this by a factor of ~10 at the top step, so the 2x
  // bound has ample headroom for noisy hosts while still being fatal to
  // the regression it guards against.
  for (size_t i = 1; i < rates.size(); ++i) {
    const double ratio = rates[i - 1].second / rates[i].second;
    std::printf("scaling D=%zu -> D=%zu: deals/sec ratio %.2fx\n",
                rates[i - 1].first, rates[i].first, ratio);
    json->AddMetric("bigd_scaling_ratio", ratio, "x",
                    {{"from", std::to_string(rates[i - 1].first)},
                     {"to", std::to_string(rates[i].first)}});
    Gate(&ok, ratio < 2.0,
         "BIG-D FAILURE: deals/sec degraded %.2fx from D=%zu to D=%zu "
         "(gate: < 2x per 10x growth) — a super-linear observation "
         "path is back\n",
         ratio, rates[i - 1].first, rates[i].first);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Soak mode (--soak=N): one long open-loop run, controller on, gated on
// full conformance.
// ---------------------------------------------------------------------------
bool Soak(size_t deals, uint64_t base_seed, bench::JsonReport* json) {
  const std::vector<Column<Run>> columns = {
      kWallMs, kDealsPerSec, kCommitted, kViolations, kShed, kLatencyP99,
      kGoodput};
  std::printf("=== nightly soak: D=%zu open-loop Poisson deals, admission "
              "controller on ===\n", deals);
  TrafficOptions options = PoolOptions(deals, base_seed);
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 20.0;
  // Controller armed with the stock policy: on this uncapped pool it must
  // never fire — a shed here means spurious backpressure.
  options.admission = StockController();

  bool ok = true;
  const Run run = RunCell(json, "soak_", {{"deals", std::to_string(deals)}},
                          options, columns);
  Gate(&ok, run.committed == deals && run.violations.empty() &&
            run.shed == 0 && run.double_spends.empty(),
       "SOAK FAILURE: non-conformant run\n%s", run.Summary().c_str());
  return ok;
}

// ---------------------------------------------------------------------------
// Epoch service: TrafficService runs straight through and restored from
// snapshot bytes. Parity and per-epoch conformance are exact-gated; snapshot
// size and checkpoint/restore cycle times are charted.
// ---------------------------------------------------------------------------

/// The epoch-mode workload: Poisson traffic with watchtowers (including
/// crash + recovery injection), brokers, and a 2-shard CBC service with
/// cross-shard placement.
TrafficOptions EpochOptions(uint64_t base_seed, size_t deals_per_epoch) {
  TrafficOptions options;
  options.base_seed = base_seed;
  options.num_chains = 4;
  options.deals_per_epoch = deals_per_epoch;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 20.0;
  options.watchtower_every = 5;
  options.tower_crash_every = 3;
  options.tower_crash_after = 15;
  options.tower_recover_after = 300;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 4;
  options.cbc_shards = 2;
  options.cbc_xshard_every = 2;
  return options;
}

/// One TrafficService run of `epochs` epochs.
struct ServiceRun {
  ServiceReport report;
  size_t restores = 0;
  size_t snapshot_bytes = 0;     // size of the last snapshot taken
  std::vector<double> cycle_ms;  // checkpoint + destroy + restore, each
  double wall_ms = 0;
};

/// Runs the service for `epochs` epochs. After each epoch count listed in
/// `restore_after` the service is checkpointed, destroyed, and restored
/// from the snapshot bytes, as a killed and restarted process would be; an
/// empty list is the straight run.
Result<ServiceRun> RunService(const TrafficOptions& options, size_t epochs,
                              const std::vector<size_t>& restore_after) {
  const auto start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  if (!service.ok()) return service.status();
  ServiceRun run;
  for (size_t e = 1; e <= epochs; ++e) {
    service.value()->RunEpoch();
    if (std::find(restore_after.begin(), restore_after.end(), e) ==
        restore_after.end()) {
      continue;
    }
    const auto cycle_start = std::chrono::steady_clock::now();
    Result<Bytes> snapshot = service.value()->Checkpoint();
    if (!snapshot.ok()) return snapshot.status();
    run.snapshot_bytes = snapshot.value().size();
    service.value().reset();  // the old process dies here
    service = TrafficService::FromSnapshot(options, snapshot.value());
    if (!service.ok()) return service.status();
    ++run.restores;
    run.cycle_ms.push_back(WallMs(cycle_start));
  }
  run.report = service.value()->Finish();
  run.wall_ms = WallMs(start);
  return run;
}

/// Restore parity: a restored run ends with the straight run's final
/// fingerprint and summary.
bool SameOutcome(const ServiceReport& restored, const ServiceReport& straight) {
  return restored.final_fingerprint == straight.final_fingerprint &&
         restored.Summary() == straight.Summary();
}

// ---------------------------------------------------------------------------
// Section 9: epoch service — one straight reference run, then one run per
// checkpoint cadence k that restores the service at every k-th boundary.
// ---------------------------------------------------------------------------
bool EpochSection(uint64_t base_seed, bench::JsonReport* json) {
  constexpr size_t kEpochs = 6;
  constexpr size_t kPerEpoch = 30;
  const std::vector<Column<EpochReport>> epoch_columns = {
      {"committed", "", Field<EpochReport, &EpochReport::committed>},
      {"violations", "", Field<EpochReport, &EpochReport::violations>},
      {"double_spends", "", Field<EpochReport, &EpochReport::double_spends>},
      {"untagged_gas", "gas", Field<EpochReport, &EpochReport::untagged_gas>},
      {"latency_p50", "ticks", Field<EpochReport, &EpochReport::latency_p50>},
      {"latency_p99", "ticks", Field<EpochReport, &EpochReport::latency_p99>}};
  std::printf("\n=== epoch service: %zu epochs x %zu Poisson deals, towers "
              "(with crash+recover), brokers, 2 CBC shards; checkpoint "
              "cadences {1,2,4} ===\n", kEpochs, kPerEpoch);
  const TrafficOptions options = EpochOptions(base_seed, kPerEpoch);
  const std::string epochs = std::to_string(kEpochs);
  const std::string per_epoch = std::to_string(kPerEpoch);

  Result<ServiceRun> straight = RunService(options, kEpochs, {});
  if (!straight.ok()) {
    std::printf("EPOCH FAILURE: straight run: %s\n",
                straight.status().ToString().c_str());
    return false;
  }
  const ServiceReport& reference = straight.value().report;
  bool ok = true;
  for (const EpochReport& epoch : reference.epoch_reports) {
    WriteRow(json, "epoch_",
             {{"epoch", std::to_string(epoch.index)},
              {"per_epoch", per_epoch}},
             epoch_columns, epoch);
    Gate(&ok, epoch.violations == 0,
         "EPOCH FAILURE: %zu violations in epoch %zu\n",
         epoch.violations, epoch.index);
  }
  std::printf("straight-through: %.1f ms, fp=%016" PRIx64 "\n%s",
              straight.value().wall_ms, reference.final_fingerprint,
              reference.Summary().c_str());
  json->AddMetric("epoch_straight_wall_ms", straight.value().wall_ms, "ms",
                  {{"epochs", epochs}, {"per_epoch", per_epoch}});

  std::vector<double> cycle_ms;  // every cadence's recovery cycles
  for (size_t cadence : {1, 2, 4}) {
    std::vector<size_t> restore_after;
    for (size_t e = cadence; e < kEpochs; e += cadence) {
      restore_after.push_back(e);
    }
    Result<ServiceRun> restored = RunService(options, kEpochs, restore_after);
    if (!restored.ok()) {
      std::printf("EPOCH FAILURE: cadence %zu: %s\n", cadence,
                  restored.status().ToString().c_str());
      ok = false;
      continue;
    }
    const ServiceRun& run = restored.value();
    const bool parity = SameOutcome(run.report, reference);
    std::printf("cadence %zu: %zu restores, %.1f ms, fp=%016" PRIx64
                " parity=%s\n", cadence, run.restores, run.wall_ms,
                run.report.final_fingerprint, parity ? "ok" : "MISMATCH");
    Gate(&ok, parity,
         "EPOCH FAILURE: restored run diverged from the "
         "straight-through reference at cadence %zu\n", cadence);
    const Labels labels = {{"cadence", std::to_string(cadence)},
                           {"epochs", epochs},
                           {"per_epoch", per_epoch}};
    json->AddMetric("epoch_restore_parity", parity ? 1 : 0, "", labels);
    json->AddMetric("epoch_restores", static_cast<double>(run.restores), "",
                    labels);
    json->AddMetric("epoch_checkpoint_bytes",
                    static_cast<double>(run.snapshot_bytes), "bytes", labels);
    json->AddMetric("epoch_run_wall_ms", run.wall_ms, "ms", labels);
    cycle_ms.insert(cycle_ms.end(), run.cycle_ms.begin(), run.cycle_ms.end());
  }

  // Recovery-cycle wall-time percentiles across every cadence's cycles
  // (serialize + destroy + restore, the full crash-recovery path).
  if (!cycle_ms.empty()) {
    std::sort(cycle_ms.begin(), cycle_ms.end());
    const double p50 = cycle_ms[cycle_ms.size() / 2];
    const double p99 = cycle_ms[cycle_ms.size() * 99 / 100];
    std::printf("recovery cycle (checkpoint+restore): p50 %.2f ms, p99 "
                "%.2f ms over %zu cycles\n", p50, p99, cycle_ms.size());
    const Labels labels = {{"epochs", epochs}, {"per_epoch", per_epoch}};
    json->AddMetric("epoch_recovery_wall_ms_p50", p50, "ms", labels);
    json->AddMetric("epoch_recovery_wall_ms_p99", p99, "ms", labels);
  }

  // A corrupted snapshot must be rejected, never restored.
  bool reject_ok = false;
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  if (service.ok()) {
    service.value()->RunEpoch();
    Result<Bytes> snapshot = service.value()->Checkpoint();
    if (snapshot.ok()) {
      Bytes corrupt = snapshot.value();
      corrupt[corrupt.size() / 2] ^= 0xFF;
      reject_ok = !TrafficService::FromSnapshot(options, corrupt).ok() &&
                  TrafficService::FromSnapshot(options, snapshot.value()).ok();
    }
  }
  Gate(&ok, reject_ok,
       "EPOCH FAILURE: corrupted snapshot was not rejected (or an "
       "intact one failed to restore)\n");
  json->AddMetric("epoch_snapshot_reject_ok", reject_ok ? 1 : 0, "",
                  {{"per_epoch", per_epoch}});
  return ok;
}

// ---------------------------------------------------------------------------
// Epoch-soak mode (--epoch_soak=E): the long-lived service at nightly
// scale. Two runs of E epochs x --epoch_deals deals: straight through, and
// with a forced kill + restore at the midpoint boundary. Exact parity gate.
// ---------------------------------------------------------------------------
bool EpochSoak(size_t epochs, size_t per_epoch, uint64_t base_seed,
               bench::JsonReport* json) {
  const size_t total = epochs * per_epoch;
  const size_t kill_at = epochs / 2;
  std::printf("=== epoch soak: %zu epochs x %zu deals (%zu cumulative), "
              "forced kill+restore at the midpoint boundary ===\n",
              epochs, per_epoch, total);

  TrafficOptions options = EpochOptions(base_seed, per_epoch);
  // Scale the pool with the per-epoch load (≈8 concurrent deals per chain).
  options.num_chains = std::max<size_t>(4, per_epoch / 8);

  Result<ServiceRun> straight = RunService(options, epochs, {});
  Result<ServiceRun> restored = RunService(options, epochs, {kill_at});
  for (const Result<ServiceRun>* run : {&straight, &restored}) {
    if (!run->ok()) {
      std::printf("EPOCH SOAK FAILURE: %s\n",
                  run->status().ToString().c_str());
      return false;
    }
  }
  const ServiceReport& report = restored.value().report;
  const bool parity = SameOutcome(report, straight.value().report);
  std::printf("straight-through: %.1f ms\n%s", straight.value().wall_ms,
              straight.value().report.Summary().c_str());
  std::printf("kill+restore at epoch %zu: %.1f ms (snapshot %zu bytes), "
              "parity=%s\n", kill_at, restored.value().wall_ms,
              restored.value().snapshot_bytes, parity ? "ok" : "MISMATCH");
  bool ok = true;
  Gate(&ok, parity,
       "EPOCH SOAK FAILURE: restored run diverged from the straight-through "
       "reference\n");
  Gate(&ok, report.deals == total && report.violations.empty() &&
            report.broker_portfolio_violations == 0,
       "EPOCH SOAK FAILURE: non-conformant service run\n%s",
       report.Summary().c_str());

  const Labels labels = {{"epochs", std::to_string(epochs)},
                         {"per_epoch", std::to_string(per_epoch)}};
  json->AddMetric("epoch_soak_parity", parity ? 1 : 0, "", labels);
  json->AddMetric("epoch_soak_committed",
                  static_cast<double>(report.committed), "", labels);
  json->AddMetric("epoch_soak_violations",
                  static_cast<double>(report.violations.size()), "", labels);
  json->AddMetric("epoch_soak_checkpoint_bytes",
                  static_cast<double>(restored.value().snapshot_bytes),
                  "bytes", labels);
  json->AddMetric("epoch_soak_straight_wall_ms", straight.value().wall_ms,
                  "ms", labels);
  json->AddMetric("epoch_soak_restored_wall_ms", restored.value().wall_ms,
                  "ms", labels);
  return ok;
}

/// Parses a positive count flag; absent, zero or garbage yields `fallback`.
size_t CountFlag(int argc, char** argv, const char* name, size_t fallback) {
  const char* value = bench::FlagValue(argc, argv, name);
  const size_t parsed =
      value != nullptr ? std::strtoull(value, nullptr, 10) : 0;
  return parsed != 0 ? parsed : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::FlagValue(argc, argv, "json");
  const uint64_t base_seed = CountFlag(argc, argv, "seed", 1);

  bench::JsonReport json("bench_traffic");
  json.AddConfig("base_seed", base_seed);
  json.AddConfig("hardware_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));

  bool ok = true;
  if (bench::FlagValue(argc, argv, "epoch_soak") != nullptr) {
    json.AddConfig("mode", "epoch_soak");
    ok = EpochSoak(std::max<size_t>(2, CountFlag(argc, argv, "epoch_soak", 2)),
                   CountFlag(argc, argv, "epoch_deals", 5000), base_seed,
                   &json);
  } else if (bench::FlagValue(argc, argv, "soak") != nullptr) {
    json.AddConfig("mode", "soak");
    ok = Soak(std::max<size_t>(100, CountFlag(argc, argv, "soak", 100)),
              base_seed, &json);
  } else {
    std::printf("=== traffic engine: shared-chain contention workloads, "
                "hardware threads: %u ===\n",
                std::thread::hardware_concurrency());
    for (auto section : {ScaleSweep, ShardSweep, RateSweep, Frontier,
                         BrokerSweep, XShardSweep, HopChainSweep, BigD,
                         EpochSection}) {
      ok = section(base_seed, &json) && ok;
    }
  }

  json.AddMetric("conformance_ok", ok ? 1 : 0);

  if (json_path != nullptr && !json.WriteFile(json_path)) ok = false;
  if (!ok) {
    std::printf("\nTRAFFIC FAILED: violations, nondeterminism, missing "
                "knee/frontier, or an ineffective admission controller\n");
    return 1;
  }
  std::printf("\nall gates passed: benign workloads conform, the knee and "
              "frontier are where the engine can chart them\n");
  return 0;
}
