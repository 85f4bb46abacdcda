// Concurrent multi-deal traffic benchmark: D deals (mixed timelock/CBC)
// contending on a shared chain pool inside one World. Nine sections, run
// in the order below, all landing in one BENCH_traffic.json that CI
// archives and diffs against the committed baseline:
//
//   scale sweep    D ∈ {1, 10, 100, 1000} × validation thread counts.
//                  Verifies per cell that the report fingerprint is
//                  identical across thread counts and that the benign
//                  workload is fully conformant.
//
//   shard sweep    CbcService shard count on a CBC-heavy D=1000 workload.
//                  Gated on full conformance at every S; wall time and
//                  goodput per S are charted, not gated.
//
//   rate sweep     THE open-loop section: seeded Poisson arrivals at
//                  λ ∈ --rates (deals per kilotick) against finite block
//                  capacity, each rate run with the admission controller
//                  off and on. Emits latency P50/P99, goodput, sheds per
//                  cell, so the JSON charts the latency knee; the gate
//                  requires the knee to exist (P99 at some rate > 2x the
//                  low-rate P99) and the controller to measurably bound
//                  P99 and goodput at the highest rate. These are
//                  simulated-tick metrics — deterministic, so the gate
//                  cannot flap on a noisy runner.
//
//   frontier       (block capacity × Δ) grid on a fixed-stagger timelock
//                  workload, mapping where Property 3 (strong liveness on
//                  schedule) starts failing — the paper's §5 "large enough
//                  Δ" made quantitative. Emits per-cell violations and a
//                  per-capacity min-safe-Δ; gates on the two corner cells
//                  (ample capacity safe, starved capacity unsafe).
//
//   broker sweep   (brokers × working capital × λ) on a fully brokered
//                  open-loop workload with FIXED ample chain capacity and
//                  the admission controller gating ONLY on broker capital/
//                  inventory occupancy: the knee this section charts is
//                  where working capital, not chain capacity, becomes the
//                  bottleneck (per-cell P99, goodput, sheds/delays, and a
//                  per-(B, λ) knee capital — the largest swept capital at
//                  which the gate had to shed). Gated on the ample corner
//                  being clean, scarcity degrading P99/goodput, and zero
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
//   big-D          D ∈ --bigd_deals (default 10^3, 10^4, 10^5) open-loop
//                  Poisson deals on D/8 chains and 8 CBC shards, controller
//                  on. Gated on full conformance at every D, and in-binary
//                  on deals/sec degrading by less than 2x per 10x growth in
//                  D (wall-clock, never baseline-diffed).
//
//   epoch service  TrafficService (long-lived mode): E epochs of fixed-size
//                  Poisson traffic with towers, brokers, sharded CBC, and
//                  tower-crash injection, run straight through and then
//                  once per checkpoint cadence k ∈ --epoch_cadences with a
//                  full serialize → destroy → restore cycle at every k-th
//                  boundary. Gated on the restored runs' cumulative
//                  fingerprints matching the straight-through run exactly
//                  (epoch_restore_parity), a corrupted snapshot being
//                  rejected (epoch_snapshot_reject_ok), and zero violations
//                  per epoch; also charts snapshot size and checkpoint/
//                  restore wall-time percentiles.
//
// A soak mode, --soak=N, replaces all sections with one long open-loop
// run (controller on) gated on full conformance and cross-thread-count
// fingerprint equality; the nightly workflow runs it at N=5000.
//
// An epoch-soak mode, --epoch_soak=E (with --epoch_deals=D), replaces all
// sections with a long-lived service run of E epochs × D deals, executed
// twice: once straight through and once with a forced kill + restore at
// the midpoint epoch boundary. Gated on bit-identical final fingerprints
// and zero violations; the nightly workflow runs it at E=20, D=5000
// (cumulative 100k deals).
//
// Exit status is nonzero if any gate fails, so this binary doubles as the
// traffic conformance + trajectory gate in CI.
//
// Usage:  bench_traffic [--deals=1,10,100,1000] [--threads=1,8]
//                       [--cbc_shards=1,2,4,8] [--shard_deals=1000]
//                       [--rates=10,20,40,80,160,320] [--rate_deals=300]
//                       [--frontier_caps=2,3,4,6,8]
//                       [--frontier_deltas=120,240,480,960]
//                       [--frontier_deals=60]
//                       [--broker_counts=4,8]
//                       [--broker_capitals=3200,1600,800,400]
//                       [--broker_rates=40,80] [--broker_deals=240]
//                       [--xshard_every=0,4,2,1] [--xshard_deals=200]
//                       [--hop_depths=1,2,3] [--hopchain_deals=160]
//                       [--hopchain_slope=300]
//                       [--bigd_deals=1000,10000,100000]
//                       [--epoch_cadences=1,2,4] [--epoch_count=6]
//                       [--epoch_deals=30]
//                       [--soak=5000] [--epoch_soak=20]
//                       [--json=BENCH_traffic.json] [--seed=1]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/traffic_engine.h"

using namespace xdeal;

namespace {

TrafficOptions OptionsFor(size_t deals, uint64_t base_seed, size_t threads) {
  TrafficOptions options;
  options.base_seed = base_seed;
  options.num_deals = deals;
  // Scale the shared pool with the workload (≈8 deals per chain) so load
  // per chain stays heavy but bounded as D grows.
  options.num_chains = deals / 8 < 4 ? 4 : deals / 8;
  options.num_threads = threads;
  return options;
}

double WallMs(const std::chrono::steady_clock::time_point& start) {
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(end - start)
             .count() /
         1000.0;
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
// Section 1: scale sweep (D × threads) — fingerprint + conformance gate.
// ---------------------------------------------------------------------------
bool RunScaleSweep(int argc, char** argv, uint64_t base_seed,
                   bench::JsonReport* json) {
  std::vector<size_t> deal_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "deals"), {1, 10, 100, 1000});
  std::vector<size_t> thread_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "threads"), {1, 8});

  std::printf("%7s %8s %10s %10s %8s %8s %8s %10s %9s\n", "deals", "threads",
              "wall (ms)", "deals/s", "commit", "lat p50", "lat p99",
              "backlog", "viol");
  bool ok = true;
  for (size_t deals : deal_counts) {
    uint64_t reference_fp = 0;
    bool have_reference = false;
    for (size_t threads : thread_counts) {
      TrafficOptions options = OptionsFor(deals, base_seed, threads);
      auto start = std::chrono::steady_clock::now();
      TrafficReport report = RunTraffic(options);
      double ms = WallMs(start);
      double per_second = deals / (ms / 1000.0);

      std::printf("%7zu %8zu %10.1f %10.0f %8zu %8" PRIu64 " %8" PRIu64
                  " %10zu %9zu\n",
                  deals, threads, ms, per_second, report.committed,
                  report.latency_p50, report.latency_p99,
                  report.max_backlog, report.violations.size());

      if (!have_reference) {
        reference_fp = report.fingerprint;
        have_reference = true;
      } else if (report.fingerprint != reference_fp) {
        std::printf("  FINGERPRINT MISMATCH at deals=%zu threads=%zu: "
                    "%016" PRIx64 " != %016" PRIx64 "\n",
                    deals, threads, report.fingerprint, reference_fp);
        ok = false;
      }
      // Conformance: this benign workload (no injection, unlimited block
      // capacity) must commit every deal with zero property violations.
      if (report.committed != deals || !report.violations.empty() ||
          !report.double_spends.empty()) {
        std::printf("  CONFORMANCE FAILURE at deals=%zu threads=%zu\n%s",
                    deals, threads, report.Summary().c_str());
        ok = false;
      }

      bench::JsonReport::Labels labels = {
          {"deals", std::to_string(deals)},
          {"threads", std::to_string(threads)}};
      json->AddMetric("wall_ms", ms, "ms", labels);
      json->AddMetric("deals_per_sec", per_second, "1/s", labels);
      json->AddMetric("committed", static_cast<double>(report.committed), "",
                      labels);
      json->AddMetric("commit_latency_p50",
                      static_cast<double>(report.latency_p50), "ticks",
                      labels);
      json->AddMetric("commit_latency_p99",
                      static_cast<double>(report.latency_p99), "ticks",
                      labels);
      json->AddMetric("gas_per_deal_p50",
                      static_cast<double>(report.gas_p50), "gas", labels);
      json->AddMetric("gas_per_deal_p99",
                      static_cast<double>(report.gas_p99), "gas", labels);
      json->AddMetric("total_gas", static_cast<double>(report.total_gas),
                      "gas", labels);
      json->AddMetric("events_executed",
                      static_cast<double>(report.events_executed), "",
                      labels);
      json->AddMetric("max_backlog", static_cast<double>(report.max_backlog),
                      "", labels);
      json->AddMetric("violations",
                      static_cast<double>(report.violations.size()), "",
                      labels);
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 2: CBC shard sweep — one CBC-heavy workload, S ∈ shard_counts.
// ---------------------------------------------------------------------------
bool RunShardSweep(int argc, char** argv, uint64_t base_seed,
                   bench::JsonReport* json) {
  std::vector<size_t> shard_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "cbc_shards"), {1, 2, 4, 8});
  const char* shard_deals_flag = bench::FlagValue(argc, argv, "shard_deals");
  size_t shard_deals = shard_deals_flag != nullptr
                           ? std::strtoull(shard_deals_flag, nullptr, 10)
                           : 1000;
  if (shard_deals == 0) shard_deals = 1000;

  std::printf("\n=== CBC shard sweep: D=%zu all-CBC deals, one shared "
              "service, deals hashed to S shards ===\n", shard_deals);
  std::printf("%7s %10s %10s %8s %10s %12s\n", "shards", "wall (ms)",
              "deals/s", "commit", "backlog", "deals/ktick");
  bool ok = true;
  for (size_t shards : shard_counts) {
    TrafficOptions options = OptionsFor(shard_deals, base_seed, 1);
    options.protocol_mix = {Protocol::kCbc};
    options.cbc_shards = shards;
    auto start = std::chrono::steady_clock::now();
    TrafficReport report = RunTraffic(options);
    double ms = WallMs(start);
    double per_second = shard_deals / (ms / 1000.0);
    std::printf("%7zu %10.1f %10.0f %8zu %10zu %12.2f\n", shards, ms,
                per_second, report.committed, report.max_backlog,
                report.deals_per_ktick);

    if (report.committed != shard_deals || !report.violations.empty()) {
      std::printf("  CONFORMANCE FAILURE at shards=%zu\n%s", shards,
                  report.Summary().c_str());
      ok = false;
    }

    bench::JsonReport::Labels labels = {
        {"shards", std::to_string(shards)},
        {"deals", std::to_string(shard_deals)}};
    json->AddMetric("shard_sweep_wall_ms", ms, "ms", labels);
    json->AddMetric("shard_sweep_deals_per_sec", per_second, "1/s", labels);
    json->AddMetric("shard_sweep_committed",
                    static_cast<double>(report.committed), "", labels);
    json->AddMetric("shard_sweep_deals_per_ktick", report.deals_per_ktick,
                    "1/kt", labels);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 3: open-loop arrival-rate sweep — the latency/goodput knee, with
// the admission controller off and on at every rate.
// ---------------------------------------------------------------------------
bool RunRateSweep(int argc, char** argv, uint64_t base_seed,
                  bench::JsonReport* json) {
  std::vector<size_t> rates = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "rates"), {10, 20, 40, 80, 160, 320});
  const char* deals_flag = bench::FlagValue(argc, argv, "rate_deals");
  size_t rate_deals = deals_flag != nullptr
                          ? std::strtoull(deals_flag, nullptr, 10)
                          : 300;
  if (rate_deals == 0) rate_deals = 300;

  std::printf("\n=== open-loop rate sweep: D=%zu Poisson arrivals at λ "
              "deals/ktick, block capacity 6 on 4 chains, controller "
              "off/on ===\n", rate_deals);
  std::printf("%7s %5s %8s %6s %6s %6s %8s %8s %10s\n", "rate", "ctrl",
              "commit", "shed", "delay", "viol", "lat p50", "lat p99",
              "goodput/kt");

  bool ok = true;
  // Per-rate records for the knee analysis, controller-off and -on.
  struct Cell {
    size_t rate = 0;
    Tick p99_off = 0, p99_on = 0;
    double goodput_off = 0, goodput_on = 0;
    size_t shed_on = 0;
  };
  std::vector<Cell> cells;

  for (size_t rate : rates) {
    if (rate == 0) continue;
    Cell cell;
    cell.rate = rate;
    for (int controlled = 0; controlled <= 1; ++controlled) {
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = rate_deals;
      options.num_chains = 4;
      options.block_capacity = 6;
      options.arrival = ArrivalProcess::kPoisson;
      options.mean_interarrival = 1000.0 / static_cast<double>(rate);
      if (controlled != 0) options.admission = StockController();

      auto start = std::chrono::steady_clock::now();
      TrafficReport report = RunTraffic(options);
      double ms = WallMs(start);

      std::printf("%7zu %5s %8zu %6zu %6zu %6zu %8" PRIu64 " %8" PRIu64
                  " %10.2f\n",
                  rate, controlled != 0 ? "on" : "off", report.committed,
                  report.shed, report.delayed_deals,
                  report.violations.size(), report.latency_p50,
                  report.latency_p99, report.deals_per_ktick);

      bench::JsonReport::Labels labels = {
          {"rate", std::to_string(rate)},
          {"controller", controlled != 0 ? "on" : "off"},
          {"deals", std::to_string(rate_deals)}};
      json->AddMetric("rate_sweep_latency_p50",
                      static_cast<double>(report.latency_p50), "ticks",
                      labels);
      json->AddMetric("rate_sweep_latency_p99",
                      static_cast<double>(report.latency_p99), "ticks",
                      labels);
      json->AddMetric("rate_sweep_goodput_per_ktick", report.deals_per_ktick,
                      "1/kt", labels);
      json->AddMetric("rate_sweep_offered_per_ktick",
                      report.offered_per_ktick, "1/kt", labels);
      json->AddMetric("rate_sweep_committed",
                      static_cast<double>(report.committed), "", labels);
      json->AddMetric("rate_sweep_shed", static_cast<double>(report.shed),
                      "", labels);
      json->AddMetric("rate_sweep_violations",
                      static_cast<double>(report.violations.size()), "",
                      labels);
      json->AddMetric("rate_sweep_wall_ms", ms, "ms", labels);

      if (controlled == 0) {
        cell.p99_off = report.latency_p99;
        cell.goodput_off = report.deals_per_ktick;
        // The lowest rate must be a clean baseline: open-loop arrivals at
        // a trickle are just a sparser version of the conformant stagger.
        if (rate == rates.front() &&
            (report.committed != rate_deals || !report.violations.empty())) {
          std::printf("  RATE SWEEP FAILURE: not conformant at the lowest "
                      "rate λ=%zu\n%s", rate, report.Summary().c_str());
          ok = false;
        }
      } else {
        cell.p99_on = report.latency_p99;
        cell.goodput_on = report.deals_per_ktick;
        cell.shed_on = report.shed;
      }
    }
    cells.push_back(cell);
  }

  if (cells.size() >= 2) {
    // Knee: the first rate whose controller-off P99 exceeds 2x the P99 at
    // the lowest (uncongested) rate. All simulated ticks — deterministic.
    const Tick base_p99 = cells.front().p99_off;
    size_t knee_rate = 0;
    for (const Cell& cell : cells) {
      if (cell.p99_off > 2 * base_p99) {
        knee_rate = cell.rate;
        break;
      }
    }
    json->AddMetric("rate_sweep_knee_rate",
                    static_cast<double>(knee_rate), "1/kt",
                    {{"deals", std::to_string(rate_deals)}});
    if (knee_rate == 0) {
      std::printf("RATE SWEEP FAILURE: no latency knee found — P99 never "
                  "exceeded 2x the low-rate baseline (%" PRIu64
                  " ticks); the sweep is not reaching congestion\n",
                  base_p99);
      ok = false;
    } else {
      std::printf("latency knee at λ=%zu deals/ktick (low-rate P99 %" PRIu64
                  " ticks)\n", knee_rate, base_p99);
    }

    // Past the knee the controller must earn its keep: bounded tail
    // latency, load actually shed, and better goodput than the
    // uncontrolled collapse. Deterministic in simulated time.
    const Cell& top = cells.back();
    if (knee_rate != 0) {
      if (top.shed_on == 0) {
        std::printf("RATE SWEEP FAILURE: controller shed nothing at "
                    "λ=%zu\n", top.rate);
        ok = false;
      }
      if (top.p99_on >= top.p99_off) {
        std::printf("RATE SWEEP FAILURE: controller did not bound P99 at "
                    "λ=%zu (%" PRIu64 " >= %" PRIu64 " ticks)\n",
                    top.rate, top.p99_on, top.p99_off);
        ok = false;
      }
      if (top.goodput_on <= top.goodput_off) {
        std::printf("RATE SWEEP FAILURE: controller did not improve "
                    "goodput at λ=%zu (%.2f <= %.2f per ktick)\n",
                    top.rate, top.goodput_on, top.goodput_off);
        ok = false;
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 4: block-capacity × Δ conformance frontier (Property 3).
// ---------------------------------------------------------------------------
bool RunFrontier(int argc, char** argv, uint64_t base_seed,
                 bench::JsonReport* json) {
  std::vector<size_t> caps = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "frontier_caps"), {2, 3, 4, 6, 8});
  std::vector<size_t> deltas = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "frontier_deltas"),
      {120, 240, 480, 960});
  const char* deals_flag = bench::FlagValue(argc, argv, "frontier_deals");
  size_t frontier_deals = deals_flag != nullptr
                              ? std::strtoull(deals_flag, nullptr, 10)
                              : 60;
  if (frontier_deals == 0) frontier_deals = 60;

  std::printf("\n=== capacity × Δ frontier: D=%zu timelock deals on 2 "
              "chains, 20-tick stagger — where Property 3 starts failing "
              "===\n", frontier_deals);
  std::printf("%5s", "cap");
  for (size_t delta : deltas) std::printf("  Δ=%-10zu", delta);
  std::printf("%14s\n", "min safe Δ");

  bool ok = true;
  size_t corner_safe_violations = SIZE_MAX;     // largest cap, smallest Δ
  size_t corner_starved_violations = 0;         // smallest cap, smallest Δ
  for (size_t cap : caps) {
    std::printf("%5zu", cap);
    size_t min_safe_delta = 0;
    for (size_t delta : deltas) {
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = frontier_deals;
      options.num_chains = 2;
      options.block_capacity = cap;
      options.admission_gap = 20;
      options.delta = delta;
      options.protocol_mix = {Protocol::kTimelock};
      TrafficReport report = RunTraffic(options);

      size_t violations = report.violations.size();
      std::printf("  %3zu/%-3zu%s", report.committed, violations,
                  violations == 0 ? "ok " : "   ");
      if (violations == 0 && min_safe_delta == 0) min_safe_delta = delta;
      if (cap == caps.back() && delta == deltas.front()) {
        corner_safe_violations = violations;
      }
      if (cap == caps.front() && delta == deltas.front()) {
        corner_starved_violations = violations;
      }

      bench::JsonReport::Labels labels = {
          {"capacity", std::to_string(cap)},
          {"delta", std::to_string(delta)},
          {"deals", std::to_string(frontier_deals)}};
      json->AddMetric("frontier_committed",
                      static_cast<double>(report.committed), "", labels);
      json->AddMetric("frontier_violations",
                      static_cast<double>(violations), "", labels);
      json->AddMetric("frontier_latency_p99",
                      static_cast<double>(report.latency_p99), "ticks",
                      labels);
    }
    std::printf("%10zu\n", min_safe_delta);
    json->AddMetric("frontier_min_safe_delta",
                    static_cast<double>(min_safe_delta), "ticks",
                    {{"capacity", std::to_string(cap)},
                     {"deals", std::to_string(frontier_deals)}});
  }
  std::printf("(cells are committed/violations; 'ok' = Property 3 held; "
              "min safe Δ = 0 means no swept Δ rescues that capacity)\n");

  // The frontier must actually be a frontier: ample capacity safe at the
  // stock Δ, starved capacity unsafe — both deterministic.
  if (corner_safe_violations != 0) {
    std::printf("FRONTIER FAILURE: %zu violations at the ample-capacity "
                "corner (cap=%zu, Δ=%zu) — the safe region vanished\n",
                corner_safe_violations, caps.back(), deltas.front());
    ok = false;
  }
  if (corner_starved_violations == 0) {
    std::printf("FRONTIER FAILURE: zero violations at the starved corner "
                "(cap=%zu, Δ=%zu) — the sweep no longer reaches the "
                "unsafe region\n", caps.front(), deltas.front());
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 5: broker capital-contention sweep — (brokers × capital × λ) on a
// fully brokered workload; chain capacity is fixed and ample, so the knee
// this section locates is where WORKING CAPITAL becomes the bottleneck.
// ---------------------------------------------------------------------------
bool RunBrokerSweep(int argc, char** argv, uint64_t base_seed,
                    bench::JsonReport* json) {
  std::vector<size_t> broker_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "broker_counts"), {4, 8});
  std::vector<size_t> capitals = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "broker_capitals"),
      {3200, 1600, 800, 400});
  // The gates compare against the most generous capital and knee_capital
  // means "largest capital at which the gate shed" — both require a
  // descending sweep, so enforce it regardless of flag order.
  std::sort(capitals.begin(), capitals.end(),
            [](size_t a, size_t b) { return a > b; });
  std::vector<size_t> rates = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "broker_rates"), {40, 80});
  const char* deals_flag = bench::FlagValue(argc, argv, "broker_deals");
  size_t broker_deals = deals_flag != nullptr
                            ? std::strtoull(deals_flag, nullptr, 10)
                            : 240;
  if (broker_deals == 0) broker_deals = 240;

  std::printf("\n=== broker sweep: D=%zu brokered Poisson deals, block "
              "capacity 24 on 4 chains (ample), admission gated on broker "
              "capital/inventory only ===\n", broker_deals);
  std::printf("%8s %8s %6s %8s %6s %6s %8s %8s %10s %8s\n", "brokers",
              "capital", "rate", "commit", "shed", "delay", "lat p50",
              "lat p99", "goodput/kt", "viol");

  bool ok = true;
  for (size_t brokers : broker_counts) {
    for (size_t rate : rates) {
      if (rate == 0) continue;
      // Capitals are swept largest-first (sorted above): the first cell
      // is the ample corner the gates compare against.
      Tick ample_p99 = 0;
      double ample_goodput = 0.0;
      size_t knee_capital = 0;  // largest capital at which the gate shed
      Tick last_p99 = 0;
      double last_goodput = 0.0;
      size_t last_shed = 0;
      for (size_t capital : capitals) {
        TrafficOptions options;
        options.base_seed = base_seed;
        options.num_deals = broker_deals;
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

        auto start = std::chrono::steady_clock::now();
        TrafficReport report = RunTraffic(options);
        double ms = WallMs(start);

        std::printf("%8zu %8zu %6zu %8zu %6zu %6zu %8" PRIu64 " %8" PRIu64
                    " %10.2f %8zu\n",
                    brokers, capital, rate, report.committed, report.shed,
                    report.delayed_deals, report.latency_p50,
                    report.latency_p99, report.deals_per_ktick,
                    report.violations.size());

        if (capital == capitals.front()) {
          ample_p99 = report.latency_p99;
          ample_goodput = report.deals_per_ktick;
          // The ample corner must be clean: with enough capital the broker
          // gate never fires, so any shed/violation here means the
          // contention is NOT coming from capital.
          if (report.shed != 0 || report.committed != broker_deals ||
              !report.violations.empty()) {
            std::printf("  BROKER SWEEP FAILURE: ample-capital corner not "
                        "clean at B=%zu λ=%zu\n%s",
                        brokers, rate, report.Summary().c_str());
            ok = false;
          }
        }
        if (report.shed > 0 && knee_capital == 0) knee_capital = capital;
        last_p99 = report.latency_p99;
        last_goodput = report.deals_per_ktick;
        last_shed = report.shed;

        // Compliant brokers must end whole in every cell — the portfolio
        // check is the cross-deal conformance gate of this section.
        if (report.broker_portfolio_violations != 0) {
          std::printf("  BROKER SWEEP FAILURE: %zu portfolio violations at "
                      "B=%zu capital=%zu λ=%zu\n%s",
                      report.broker_portfolio_violations, brokers, capital,
                      rate, report.Summary().c_str());
          ok = false;
        }

        bench::JsonReport::Labels labels = {
            {"brokers", std::to_string(brokers)},
            {"capital", std::to_string(capital)},
            {"rate", std::to_string(rate)},
            {"deals", std::to_string(broker_deals)}};
        json->AddMetric("broker_sweep_committed",
                        static_cast<double>(report.committed), "", labels);
        json->AddMetric("broker_sweep_shed",
                        static_cast<double>(report.shed), "", labels);
        json->AddMetric("broker_sweep_delayed",
                        static_cast<double>(report.delayed_deals), "",
                        labels);
        json->AddMetric("broker_sweep_latency_p50",
                        static_cast<double>(report.latency_p50), "ticks",
                        labels);
        json->AddMetric("broker_sweep_latency_p99",
                        static_cast<double>(report.latency_p99), "ticks",
                        labels);
        json->AddMetric("broker_sweep_goodput_per_ktick",
                        report.deals_per_ktick, "1/kt", labels);
        json->AddMetric("broker_sweep_violations",
                        static_cast<double>(report.violations.size()), "",
                        labels);
        json->AddMetric("broker_sweep_portfolio_violations",
                        static_cast<double>(report.broker_portfolio_violations),
                        "", labels);
        json->AddMetric("broker_sweep_blocked_decisions",
                        static_cast<double>(report.broker_blocked), "",
                        labels);
        json->AddMetric("broker_sweep_wall_ms", ms, "ms", labels);
      }

      bench::JsonReport::Labels pair_labels = {
          {"brokers", std::to_string(brokers)},
          {"rate", std::to_string(rate)},
          {"deals", std::to_string(broker_deals)}};
      json->AddMetric("broker_sweep_knee_capital",
                      static_cast<double>(knee_capital), "coins",
                      pair_labels);
      if (knee_capital == 0) {
        std::printf("BROKER SWEEP FAILURE: no capital knee at B=%zu λ=%zu "
                    "— even the smallest capital never forced a shed; the "
                    "sweep is not reaching capital contention\n",
                    brokers, rate);
        ok = false;
      } else {
        std::printf("capital knee at B=%zu λ=%zu: contention begins at "
                    "capital=%zu\n", brokers, rate, knee_capital);
      }
      // Shrinking capital must degrade the workload: at the scarcest
      // capital the gate sheds, the tail stretches (admission waits count
      // toward sojourn latency), and goodput drops below the ample corner.
      if (last_shed == 0 || last_p99 <= ample_p99 ||
          last_goodput >= ample_goodput) {
        std::printf("BROKER SWEEP FAILURE: capital scarcity did not "
                    "degrade B=%zu λ=%zu (shed=%zu, P99 %" PRIu64
                    " vs ample %" PRIu64 ", goodput %.2f vs ample %.2f)\n",
                    brokers, rate, last_shed, last_p99, ample_p99,
                    last_goodput, ample_goodput);
        ok = false;
      }
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
bool RunXShardSweep(int argc, char** argv, uint64_t base_seed,
                    bench::JsonReport* json) {
  std::vector<size_t> everies = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "xshard_every"), {0, 4, 2, 1});
  const char* deals_flag = bench::FlagValue(argc, argv, "xshard_deals");
  size_t xshard_deals = deals_flag != nullptr
                            ? std::strtoull(deals_flag, nullptr, 10)
                            : 200;
  if (xshard_deals == 0) xshard_deals = 200;

  std::printf("\n=== cross-shard sweep: D=%zu all-CBC deals on 4 shards, "
              "every k-th deal's assets placed across shard chains "
              "(k=0: off) ===\n", xshard_deals);
  std::printf("%7s %8s %8s %8s %8s %8s %10s\n", "every", "commit", "xshard",
              "frac %", "lat p50", "lat p99", "viol");

  bool ok = true;
  for (size_t every : everies) {
    TrafficOptions options;
    options.base_seed = base_seed;
    options.num_deals = xshard_deals;
    options.num_chains = 4;
    options.cbc_shards = 4;
    options.cbc_xshard_every = every;
    options.min_assets = 2;  // spanning deals really span >= 2 shards
    options.protocol_mix = {Protocol::kCbc};

    auto start = std::chrono::steady_clock::now();
    TrafficReport report = RunTraffic(options);
    double ms = WallMs(start);
    double fraction = 100.0 * static_cast<double>(report.cross_shard_deals) /
                      static_cast<double>(xshard_deals);
    std::printf("%7zu %8zu %8zu %7.1f%% %8" PRIu64 " %8" PRIu64 " %10zu\n",
                every, report.committed, report.cross_shard_deals, fraction,
                report.latency_p50, report.latency_p99,
                report.violations.size());

    // Cross-shard settlement must be conformance-invisible: every deal
    // commits at every fraction, and a benign run never trips the
    // stale-proof defense.
    if (report.committed != xshard_deals || !report.violations.empty() ||
        report.stale_decide_rejections != 0) {
      std::printf("  XSHARD SWEEP FAILURE at every=%zu\n%s", every,
                  report.Summary().c_str());
      ok = false;
    }
    if (every == 0 && report.cross_shard_deals != 0) {
      std::printf("  XSHARD SWEEP FAILURE: cross-shard deals reported with "
                  "placement off\n");
      ok = false;
    }
    // The stock setting (every=2) is the issue's acceptance quorum: at
    // least 25%% of CBC deals span >= 2 shards.
    if (every == 2 && report.cross_shard_deals * 4 < report.cbc_deals) {
      std::printf("  XSHARD SWEEP FAILURE: cross-shard quorum lost at "
                  "every=2 (%zu of %zu CBC deals)\n",
                  report.cross_shard_deals, report.cbc_deals);
      ok = false;
    }

    bench::JsonReport::Labels labels = {
        {"every", std::to_string(every)},
        {"deals", std::to_string(xshard_deals)}};
    json->AddMetric("xshard_committed",
                    static_cast<double>(report.committed), "", labels);
    json->AddMetric("xshard_cross_deals",
                    static_cast<double>(report.cross_shard_deals), "",
                    labels);
    json->AddMetric("xshard_violations",
                    static_cast<double>(report.violations.size()), "",
                    labels);
    json->AddMetric("xshard_stale_rejections",
                    static_cast<double>(report.stale_decide_rejections), "",
                    labels);
    json->AddMetric("xshard_latency_p50",
                    static_cast<double>(report.latency_p50), "ticks",
                    labels);
    json->AddMetric("xshard_latency_p99",
                    static_cast<double>(report.latency_p99), "ticks",
                    labels);
    json->AddMetric("xshard_gas_p99", static_cast<double>(report.gas_p99),
                    "gas", labels);
    json->AddMetric("xshard_wall_ms", ms, "ms", labels);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 7: hop-chain sweep — multi-hop broker chains with priced capital.
// Hop depth H ∈ hop_depths, margins flat (slope 0) and occupancy-priced
// (slope hopchain_slope) at each depth; the priced cells chart the
// margin-vs-occupancy market-clearing curve from the per-hop price points.
// ---------------------------------------------------------------------------
bool RunHopChainSweep(int argc, char** argv, uint64_t base_seed,
                      bench::JsonReport* json) {
  std::vector<size_t> depths = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "hop_depths"), {1, 2, 3});
  const char* deals_flag = bench::FlagValue(argc, argv, "hopchain_deals");
  size_t chain_deals = deals_flag != nullptr
                           ? std::strtoull(deals_flag, nullptr, 10)
                           : 160;
  if (chain_deals == 0) chain_deals = 160;
  const char* slope_flag = bench::FlagValue(argc, argv, "hopchain_slope");
  uint64_t priced_slope = slope_flag != nullptr
                              ? std::strtoull(slope_flag, nullptr, 10)
                              : 300;
  if (priced_slope == 0) priced_slope = 300;

  std::printf("\n=== hop-chain sweep: D=%zu brokered Poisson deals, 4 "
              "brokers, depth-H resale chains, margins flat vs "
              "occupancy-priced (slope %" PRIu64 ") ===\n",
              chain_deals, priced_slope);
  std::printf("%6s %7s %8s %6s %6s %8s %8s %8s %10s\n", "depth", "slope",
              "commit", "shed", "viol", "margins", "lat p99", "points",
              "goodput/kt");

  const uint64_t working_capital = 3000;
  const uint64_t flat_margin = BrokerOptions{}.unit_margin;
  bool ok = true;
  for (size_t depth : depths) {
    if (depth == 0) continue;
    for (int priced = 0; priced <= 1; ++priced) {
      const uint64_t slope = priced != 0 ? priced_slope : 0;
      TrafficOptions options;
      options.base_seed = base_seed;
      options.num_deals = chain_deals;
      options.num_chains = 4;
      options.block_capacity = 24;  // ample: capital is the only contention
      options.arrival = ArrivalProcess::kPoisson;
      options.mean_interarrival = 20.0;
      options.brokers.num_brokers = 4;
      options.brokers.working_capital = working_capital;
      options.brokers.inventory = 200;
      options.brokers.hop_depth = depth;
      options.brokers.margin_slope = slope;
      options.admission.enabled = true;  // hop-capital gate + live pricing
      options.admission.retry_delay = 25;
      options.admission.max_retries = 8;

      auto start = std::chrono::steady_clock::now();
      TrafficReport report = RunTraffic(options);
      double ms = WallMs(start);

      // The market-clearing chart: every admitted hop's (occupancy at
      // pricing time, margin charged) point, bucketed by occupancy decile
      // of the working capital.
      constexpr size_t kBuckets = 10;
      struct Bucket {
        double margin_sum = 0;
        size_t count = 0;
      };
      std::vector<Bucket> curve(kBuckets);
      uint64_t margin_min = UINT64_MAX, margin_max = 0;
      size_t points = 0;
      for (const TrafficDealRecord& rec : report.deals) {
        if (rec.shed) continue;
        for (const BrokerPool::PricePoint& point : rec.price_points) {
          size_t bucket = static_cast<size_t>(
              point.occupancy * kBuckets / working_capital);
          if (bucket >= kBuckets) bucket = kBuckets - 1;
          curve[bucket].margin_sum += static_cast<double>(point.margin);
          ++curve[bucket].count;
          margin_min = std::min(margin_min, point.margin);
          margin_max = std::max(margin_max, point.margin);
          ++points;
        }
      }
      if (points == 0) margin_min = 0;

      std::printf("%6zu %7" PRIu64 " %8zu %6zu %6zu %3" PRIu64 "-%-4" PRIu64
                  " %8" PRIu64 " %8zu %10.2f\n",
                  depth, slope, report.committed, report.shed,
                  report.violations.size(), margin_min, margin_max,
                  report.latency_p99, points, report.deals_per_ktick);

      // Conformance everywhere: zero property violations, zero portfolio
      // violations — every compliant hop ends whole at every depth/price.
      if (!report.violations.empty() ||
          report.broker_portfolio_violations != 0 ||
          !report.double_spends.empty() || report.committed == 0) {
        std::printf("  HOPCHAIN SWEEP FAILURE at depth=%zu slope=%" PRIu64
                    "\n%s", depth, slope, report.Summary().c_str());
        ok = false;
      }
      if (report.broker_hop_depth != depth) {
        std::printf("  HOPCHAIN SWEEP FAILURE: effective depth %zu != %zu\n",
                    report.broker_hop_depth, depth);
        ok = false;
      }
      // Flat cells price every hop at the stock margin; priced cells must
      // produce a genuinely rising curve (the market clears: occupancy
      // pushes margins above flat).
      if (priced == 0 && points > 0 &&
          (margin_min != flat_margin || margin_max != flat_margin)) {
        std::printf("  HOPCHAIN SWEEP FAILURE: flat run priced margins "
                    "%" PRIu64 "-%" PRIu64 " (expected %" PRIu64 ")\n",
                    margin_min, margin_max, flat_margin);
        ok = false;
      }
      if (priced != 0 && margin_max <= flat_margin) {
        std::printf("  HOPCHAIN SWEEP FAILURE: priced run never cleared "
                    "above the flat margin at depth=%zu — no occupancy "
                    "pressure reached the price\n", depth);
        ok = false;
      }

      bench::JsonReport::Labels labels = {
          {"depth", std::to_string(depth)},
          {"slope", std::to_string(slope)},
          {"deals", std::to_string(chain_deals)}};
      json->AddMetric("hopchain_committed",
                      static_cast<double>(report.committed), "", labels);
      json->AddMetric("hopchain_shed", static_cast<double>(report.shed), "",
                      labels);
      json->AddMetric("hopchain_violations",
                      static_cast<double>(report.violations.size()), "",
                      labels);
      json->AddMetric("hopchain_portfolio_violations",
                      static_cast<double>(report.broker_portfolio_violations),
                      "", labels);
      json->AddMetric("hopchain_latency_p99",
                      static_cast<double>(report.latency_p99), "ticks",
                      labels);
      json->AddMetric("hopchain_goodput_per_ktick", report.deals_per_ktick,
                      "1/kt", labels);
      json->AddMetric("hopchain_price_points", static_cast<double>(points),
                      "", labels);
      json->AddMetric("hopchain_margin_min",
                      static_cast<double>(margin_min), "coins", labels);
      json->AddMetric("hopchain_margin_max",
                      static_cast<double>(margin_max), "coins", labels);
      json->AddMetric("hopchain_wall_ms", ms, "ms", labels);
      if (priced != 0) {
        for (size_t b = 0; b < kBuckets; ++b) {
          if (curve[b].count == 0) continue;
          bench::JsonReport::Labels point_labels = labels;
          point_labels.push_back(
              {"occupancy_pct", std::to_string(b * 100 / kBuckets)});
          json->AddMetric("hopchain_curve_margin",
                          curve[b].margin_sum /
                              static_cast<double>(curve[b].count),
                          "coins", point_labels);
          json->AddMetric("hopchain_curve_points",
                          static_cast<double>(curve[b].count), "",
                          point_labels);
        }
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
bool RunBigD(int argc, char** argv, uint64_t base_seed,
             bench::JsonReport* json) {
  std::vector<size_t> sizes = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "bigd_deals"), {1000, 10000, 100000});

  std::printf("\n=== big-D scaling: open-loop Poisson deals, indexed "
              "observation, 8 CBC shards, controller on ===\n");
  std::printf("%8s %10s %10s %9s %6s %6s %12s %10s\n", "deals", "wall (ms)",
              "deals/s", "commit", "shed", "viol", "deals/ktick",
              "makespan");

  bool ok = true;
  std::vector<std::pair<size_t, double>> rates;  // (D, deals/sec)
  for (size_t deals : sizes) {
    if (deals == 0) continue;
    TrafficOptions options;
    options.base_seed = base_seed;
    options.num_deals = deals;
    // Chains scale with D so per-chain asset load stays bounded, but the 8
    // CBC shard chains are shared by EVERY CBC deal — the former O(D²)
    // observation hot spot this section exists to measure.
    options.num_chains = deals / 8 < 8 ? 8 : deals / 8;
    options.cbc_shards = 8;
    options.arrival = ArrivalProcess::kPoisson;
    options.mean_interarrival = 20.0;
    options.admission = StockController();

    auto start = std::chrono::steady_clock::now();
    TrafficReport report = RunTraffic(options);
    double ms = WallMs(start);
    double per_second = deals / (ms / 1000.0);
    rates.emplace_back(deals, per_second);

    std::printf("%8zu %10.1f %10.0f %9zu %6zu %6zu %12.2f %10" PRIu64 "\n",
                deals, ms, per_second, report.committed, report.shed,
                report.violations.size(), report.deals_per_ktick,
                report.makespan);

    // Conformance: every deal admitted and committed, zero violations —
    // all deterministic counters, exact-gated against the baseline.
    if (report.committed != deals || report.shed != 0 ||
        !report.violations.empty() || !report.double_spends.empty()) {
      std::printf("  BIG-D FAILURE: non-conformant at D=%zu\n%s", deals,
                  report.Summary().c_str());
      ok = false;
    }

    bench::JsonReport::Labels labels = {{"deals", std::to_string(deals)}};
    json->AddMetric("bigd_wall_ms", ms, "ms", labels);
    json->AddMetric("bigd_deals_per_sec", per_second, "1/s", labels);
    json->AddMetric("bigd_committed", static_cast<double>(report.committed),
                    "", labels);
    json->AddMetric("bigd_shed", static_cast<double>(report.shed), "",
                    labels);
    json->AddMetric("bigd_violations",
                    static_cast<double>(report.violations.size()), "",
                    labels);
    json->AddMetric("bigd_goodput_per_ktick", report.deals_per_ktick, "1/kt",
                    labels);
  }

  // The scaling gate (in-binary, wall-clock — never baseline-diffed): for
  // every 10x step in D, deals/sec must degrade by less than 2x. A revived
  // O(D²) path fails this by a factor of ~10 at the top step, so the 2x
  // bound has ample headroom for noisy hosts while still being fatal to
  // the regression it guards against.
  for (size_t i = 1; i < rates.size(); ++i) {
    double ratio = rates[i - 1].second / rates[i].second;
    std::printf("scaling D=%zu -> D=%zu: deals/sec ratio %.2fx\n",
                rates[i - 1].first, rates[i].first, ratio);
    json->AddMetric("bigd_scaling_ratio", ratio, "x",
                    {{"from", std::to_string(rates[i - 1].first)},
                     {"to", std::to_string(rates[i].first)}});
    if (ratio >= 2.0) {
      std::printf("BIG-D FAILURE: deals/sec degraded %.2fx from D=%zu to "
                  "D=%zu (gate: < 2x per 10x growth) — a super-linear "
                  "observation path is back\n",
                  ratio, rates[i - 1].first, rates[i].first);
      ok = false;
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Soak mode (--soak=N): one long open-loop run, controller on, gated on
// full conformance + cross-thread-count fingerprint equality.
// ---------------------------------------------------------------------------
bool RunSoak(size_t soak_deals, uint64_t base_seed,
             bench::JsonReport* json) {
  std::printf("=== nightly soak: D=%zu open-loop Poisson deals, admission "
              "controller on ===\n", soak_deals);
  bool ok = true;
  uint64_t reference_fp = 0;
  for (size_t threads : {1u, 8u}) {
    TrafficOptions options = OptionsFor(soak_deals, base_seed, threads);
    options.arrival = ArrivalProcess::kPoisson;
    options.mean_interarrival = 20.0;
    // Controller armed with the stock policy: on this uncapped pool it
    // must never fire — a shed here means spurious backpressure.
    options.admission = StockController();

    auto start = std::chrono::steady_clock::now();
    TrafficReport report = RunTraffic(options);
    double ms = WallMs(start);
    double per_second = soak_deals / (ms / 1000.0);
    std::printf("threads=%zu: %.1f ms (%.0f deals/s)\n%s", threads, ms,
                per_second, report.Summary().c_str());

    if (threads == 1) {
      reference_fp = report.fingerprint;
    } else if (report.fingerprint != reference_fp) {
      std::printf("SOAK FAILURE: fingerprint mismatch across thread "
                  "counts\n");
      ok = false;
    }
    if (report.committed != soak_deals || !report.violations.empty() ||
        report.shed != 0 || !report.double_spends.empty()) {
      std::printf("SOAK FAILURE at threads=%zu: non-conformant run\n",
                  threads);
      ok = false;
    }

    bench::JsonReport::Labels labels = {
        {"deals", std::to_string(soak_deals)},
        {"threads", std::to_string(threads)}};
    json->AddMetric("soak_wall_ms", ms, "ms", labels);
    json->AddMetric("soak_deals_per_sec", per_second, "1/s", labels);
    json->AddMetric("soak_committed", static_cast<double>(report.committed),
                    "", labels);
    json->AddMetric("soak_violations",
                    static_cast<double>(report.violations.size()), "",
                    labels);
    json->AddMetric("soak_shed", static_cast<double>(report.shed), "",
                    labels);
    json->AddMetric("soak_latency_p99",
                    static_cast<double>(report.latency_p99), "ticks",
                    labels);
    json->AddMetric("soak_goodput_per_ktick", report.deals_per_ktick,
                    "1/kt", labels);
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Section 9: epoch service — TrafficService checkpoint cadence sweep. One
// straight-through reference run, then one run per cadence k that
// serializes, destroys, and restores the service at every k-th epoch
// boundary. Parity and per-epoch conformance are exact-gated; snapshot
// size and checkpoint/restore cycle times are charted.
// ---------------------------------------------------------------------------

/// The epoch-mode workload every epoch cell runs: Poisson traffic with
/// watchtowers (including crash + recovery injection), brokers, and a
/// 2-shard CBC service with cross-shard placement.
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

bool RunEpochSection(int argc, char** argv, uint64_t base_seed,
                     bench::JsonReport* json) {
  std::vector<size_t> cadences = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "epoch_cadences"), {1, 2, 4});
  const char* count_flag = bench::FlagValue(argc, argv, "epoch_count");
  size_t epochs = count_flag != nullptr
                      ? std::strtoull(count_flag, nullptr, 10)
                      : 6;
  if (epochs < 2) epochs = 2;
  const char* deals_flag = bench::FlagValue(argc, argv, "epoch_deals");
  size_t per_epoch = deals_flag != nullptr
                         ? std::strtoull(deals_flag, nullptr, 10)
                         : 30;
  if (per_epoch == 0) per_epoch = 30;

  std::printf("\n=== epoch service: %zu epochs x %zu Poisson deals, towers "
              "(with crash+recover), brokers, 2 CBC shards; checkpoint "
              "cadences {",
              epochs, per_epoch);
  for (size_t i = 0; i < cadences.size(); ++i) {
    std::printf("%s%zu", i == 0 ? "" : ",", cadences[i]);
  }
  std::printf("} ===\n");

  const TrafficOptions options = EpochOptions(base_seed, per_epoch);
  bool ok = true;

  // --- straight-through reference ---
  auto straight_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<TrafficService>> straight =
      TrafficService::Create(options);
  if (!straight.ok()) {
    std::printf("EPOCH FAILURE: Create: %s\n",
                straight.status().ToString().c_str());
    return false;
  }
  for (size_t e = 0; e < epochs; ++e) {
    EpochReport epoch = straight.value()->RunEpoch();
    bench::JsonReport::Labels labels = {
        {"epoch", std::to_string(e)},
        {"per_epoch", std::to_string(per_epoch)}};
    json->AddMetric("epoch_committed",
                    static_cast<double>(epoch.committed), "", labels);
    json->AddMetric("epoch_violations",
                    static_cast<double>(epoch.violations), "", labels);
    json->AddMetric("epoch_double_spends",
                    static_cast<double>(epoch.double_spends), "", labels);
    json->AddMetric("epoch_untagged_gas",
                    static_cast<double>(epoch.untagged_gas), "gas", labels);
    json->AddMetric("epoch_latency_p50",
                    static_cast<double>(epoch.latency_p50), "ticks", labels);
    json->AddMetric("epoch_latency_p99",
                    static_cast<double>(epoch.latency_p99), "ticks", labels);
    if (epoch.violations != 0) {
      std::printf("EPOCH FAILURE: %zu violations in epoch %zu\n",
                  epoch.violations, e);
      ok = false;
    }
  }
  ServiceReport reference = straight.value()->Finish();
  double straight_ms = WallMs(straight_start);
  std::printf("straight-through: %.1f ms, fp=%016" PRIx64 "\n%s",
              straight_ms, reference.final_fingerprint,
              reference.Summary().c_str());
  json->AddMetric("epoch_straight_wall_ms", straight_ms, "ms",
                  {{"epochs", std::to_string(epochs)},
                   {"per_epoch", std::to_string(per_epoch)}});

  // --- cadence sweep: checkpoint + kill + restore at every k-th boundary ---
  std::vector<double> cycle_ms;  // full serialize -> destroy -> restore
  for (size_t cadence : cadences) {
    if (cadence == 0) continue;
    auto run_start = std::chrono::steady_clock::now();
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options);
    if (!service.ok()) {
      std::printf("EPOCH FAILURE: Create(cadence=%zu): %s\n", cadence,
                  service.status().ToString().c_str());
      ok = false;
      continue;
    }
    size_t restores = 0;
    double snapshot_bytes = 0;
    for (size_t e = 0; e < epochs; ++e) {
      service.value()->RunEpoch();
      if ((e + 1) % cadence != 0 || e + 1 >= epochs) continue;
      auto cycle_start = std::chrono::steady_clock::now();
      Result<Bytes> snapshot = service.value()->Checkpoint();
      if (!snapshot.ok()) {
        std::printf("EPOCH FAILURE: Checkpoint(cadence=%zu, epoch=%zu): "
                    "%s\n", cadence, e,
                    snapshot.status().ToString().c_str());
        ok = false;
        break;
      }
      snapshot_bytes = static_cast<double>(snapshot.value().size());
      service.value().reset();  // the old process dies here
      Result<std::unique_ptr<TrafficService>> restored =
          TrafficService::FromSnapshot(options, snapshot.value());
      if (!restored.ok()) {
        std::printf("EPOCH FAILURE: FromSnapshot(cadence=%zu, epoch=%zu): "
                    "%s\n", cadence, e,
                    restored.status().ToString().c_str());
        ok = false;
        break;
      }
      service = std::move(restored);
      ++restores;
      cycle_ms.push_back(WallMs(cycle_start));
    }
    if (!service.ok()) continue;
    ServiceReport report = service.value()->Finish();
    double run_ms = WallMs(run_start);
    const bool parity =
        report.final_fingerprint == reference.final_fingerprint &&
        report.Summary() == reference.Summary();
    std::printf("cadence %zu: %zu restores, %.1f ms, fp=%016" PRIx64
                " parity=%s\n",
                cadence, restores, run_ms, report.final_fingerprint,
                parity ? "ok" : "MISMATCH");
    if (!parity) {
      std::printf("EPOCH FAILURE: restored run diverged from the "
                  "straight-through reference at cadence %zu\n", cadence);
      ok = false;
    }

    bench::JsonReport::Labels labels = {
        {"cadence", std::to_string(cadence)},
        {"epochs", std::to_string(epochs)},
        {"per_epoch", std::to_string(per_epoch)}};
    json->AddMetric("epoch_restore_parity", parity ? 1 : 0, "", labels);
    json->AddMetric("epoch_restores", static_cast<double>(restores), "",
                    labels);
    json->AddMetric("epoch_checkpoint_bytes", snapshot_bytes, "bytes",
                    labels);
    json->AddMetric("epoch_run_wall_ms", run_ms, "ms", labels);
  }

  // Recovery-cycle wall-time percentiles across every cadence's cycles
  // (serialize + destroy + restore, the full crash-recovery path).
  if (!cycle_ms.empty()) {
    std::sort(cycle_ms.begin(), cycle_ms.end());
    double p50 = cycle_ms[cycle_ms.size() / 2];
    double p99 = cycle_ms[cycle_ms.size() * 99 / 100];
    std::printf("recovery cycle (checkpoint+restore): p50 %.2f ms, p99 "
                "%.2f ms over %zu cycles\n", p50, p99, cycle_ms.size());
    bench::JsonReport::Labels labels = {
        {"epochs", std::to_string(epochs)},
        {"per_epoch", std::to_string(per_epoch)}};
    json->AddMetric("epoch_recovery_wall_ms_p50", p50, "ms", labels);
    json->AddMetric("epoch_recovery_wall_ms_p99", p99, "ms", labels);
  }

  // --- corrupted snapshot must be rejected, never restored ---
  bool reject_ok = false;
  {
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options);
    if (service.ok()) {
      service.value()->RunEpoch();
      Result<Bytes> snapshot = service.value()->Checkpoint();
      if (snapshot.ok()) {
        Bytes corrupt = snapshot.value();
        corrupt[corrupt.size() / 2] ^= 0xFF;
        reject_ok = !TrafficService::FromSnapshot(options, corrupt).ok() &&
                    TrafficService::FromSnapshot(options, snapshot.value())
                        .ok();
      }
    }
  }
  if (!reject_ok) {
    std::printf("EPOCH FAILURE: corrupted snapshot was not rejected (or an "
                "intact one failed to restore)\n");
    ok = false;
  }
  json->AddMetric("epoch_snapshot_reject_ok", reject_ok ? 1 : 0, "",
                  {{"per_epoch", std::to_string(per_epoch)}});
  return ok;
}

// ---------------------------------------------------------------------------
// Epoch-soak mode (--epoch_soak=E): the long-lived service at nightly
// scale. Two runs of E epochs x --epoch_deals deals: straight through, and
// with a forced kill + restore at the midpoint boundary. Exact parity gate.
// ---------------------------------------------------------------------------
bool RunEpochSoak(int argc, char** argv, size_t epochs, uint64_t base_seed,
                  bench::JsonReport* json) {
  const char* deals_flag = bench::FlagValue(argc, argv, "epoch_deals");
  size_t per_epoch = deals_flag != nullptr
                         ? std::strtoull(deals_flag, nullptr, 10)
                         : 5000;
  if (per_epoch == 0) per_epoch = 5000;
  if (epochs < 2) epochs = 2;
  const size_t total = epochs * per_epoch;

  std::printf("=== epoch soak: %zu epochs x %zu deals (%zu cumulative), "
              "forced kill+restore at the midpoint boundary ===\n",
              epochs, per_epoch, total);

  TrafficOptions options = EpochOptions(base_seed, per_epoch);
  // Scale the pool with the per-epoch load (≈8 concurrent deals per chain)
  // and validate on all cores; the fingerprint is thread-count-invariant.
  options.num_chains = per_epoch / 8 < 4 ? 4 : per_epoch / 8;
  options.num_threads = 0;

  bool ok = true;
  auto straight_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<TrafficService>> straight =
      TrafficService::Create(options);
  if (!straight.ok()) {
    std::printf("EPOCH SOAK FAILURE: Create: %s\n",
                straight.status().ToString().c_str());
    return false;
  }
  for (size_t e = 0; e < epochs; ++e) straight.value()->RunEpoch();
  ServiceReport reference = straight.value()->Finish();
  straight.value().reset();
  double straight_ms = WallMs(straight_start);
  std::printf("straight-through: %.1f ms\n%s", straight_ms,
              reference.Summary().c_str());

  const size_t kill_at = epochs / 2;
  auto restored_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  if (!service.ok()) return false;
  for (size_t e = 0; e < kill_at; ++e) service.value()->RunEpoch();
  Result<Bytes> snapshot = service.value()->Checkpoint();
  if (!snapshot.ok()) {
    std::printf("EPOCH SOAK FAILURE: Checkpoint: %s\n",
                snapshot.status().ToString().c_str());
    return false;
  }
  service.value().reset();  // forced kill
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options, snapshot.value());
  if (!restored.ok()) {
    std::printf("EPOCH SOAK FAILURE: FromSnapshot: %s\n",
                restored.status().ToString().c_str());
    return false;
  }
  for (size_t e = kill_at; e < epochs; ++e) restored.value()->RunEpoch();
  ServiceReport report = restored.value()->Finish();
  double restored_ms = WallMs(restored_start);

  const bool parity =
      report.final_fingerprint == reference.final_fingerprint &&
      report.Summary() == reference.Summary();
  std::printf("kill+restore at epoch %zu: %.1f ms (snapshot %zu bytes), "
              "parity=%s\n",
              kill_at, restored_ms, snapshot.value().size(),
              parity ? "ok" : "MISMATCH");
  if (!parity) {
    std::printf("EPOCH SOAK FAILURE: restored run diverged from the "
                "straight-through reference\n");
    ok = false;
  }
  if (report.deals != total || !report.violations.empty() ||
      report.broker_portfolio_violations != 0) {
    std::printf("EPOCH SOAK FAILURE: non-conformant service run\n%s",
                report.Summary().c_str());
    ok = false;
  }

  bench::JsonReport::Labels labels = {
      {"epochs", std::to_string(epochs)},
      {"per_epoch", std::to_string(per_epoch)}};
  json->AddMetric("epoch_soak_parity", parity ? 1 : 0, "", labels);
  json->AddMetric("epoch_soak_committed",
                  static_cast<double>(report.committed), "", labels);
  json->AddMetric("epoch_soak_violations",
                  static_cast<double>(report.violations.size()), "", labels);
  json->AddMetric("epoch_soak_checkpoint_bytes",
                  static_cast<double>(snapshot.value().size()), "bytes",
                  labels);
  json->AddMetric("epoch_soak_straight_wall_ms", straight_ms, "ms", labels);
  json->AddMetric("epoch_soak_restored_wall_ms", restored_ms, "ms", labels);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = bench::FlagValue(argc, argv, "json");
  const char* seed_flag = bench::FlagValue(argc, argv, "seed");
  uint64_t base_seed = seed_flag != nullptr
                           ? std::strtoull(seed_flag, nullptr, 10)
                           : 1;
  if (base_seed == 0) base_seed = 1;

  bench::JsonReport json("bench_traffic");
  json.AddConfig("base_seed", base_seed);
  json.AddConfig("hardware_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));

  bool ok = true;
  const char* soak_flag = bench::FlagValue(argc, argv, "soak");
  const char* epoch_soak_flag = bench::FlagValue(argc, argv, "epoch_soak");
  if (epoch_soak_flag != nullptr) {
    size_t soak_epochs = std::strtoull(epoch_soak_flag, nullptr, 10);
    json.AddConfig("mode", "epoch_soak");
    ok = RunEpochSoak(argc, argv, soak_epochs, base_seed, &json);
  } else if (soak_flag != nullptr) {
    size_t soak_deals = std::strtoull(soak_flag, nullptr, 10);
    if (soak_deals < 100) soak_deals = 100;
    json.AddConfig("mode", "soak");
    ok = RunSoak(soak_deals, base_seed, &json);
  } else {
    std::printf("=== traffic engine: shared-chain contention workloads, "
                "hardware threads: %u ===\n",
                std::thread::hardware_concurrency());
    ok = RunScaleSweep(argc, argv, base_seed, &json) && ok;
    ok = RunShardSweep(argc, argv, base_seed, &json) && ok;
    ok = RunRateSweep(argc, argv, base_seed, &json) && ok;
    ok = RunFrontier(argc, argv, base_seed, &json) && ok;
    ok = RunBrokerSweep(argc, argv, base_seed, &json) && ok;
    ok = RunXShardSweep(argc, argv, base_seed, &json) && ok;
    ok = RunHopChainSweep(argc, argv, base_seed, &json) && ok;
    ok = RunBigD(argc, argv, base_seed, &json) && ok;
    ok = RunEpochSection(argc, argv, base_seed, &json) && ok;
  }

  json.AddMetric("conformance_ok", ok ? 1 : 0);

  if (json_path != nullptr && !json.WriteFile(json_path)) ok = false;
  if (!ok) {
    std::printf("\nTRAFFIC FAILED: violations, nondeterminism, missing "
                "knee/frontier, or an ineffective admission controller\n");
    return 1;
  }
  std::printf("\nall gates passed: thread counts agree bit-for-bit, benign "
              "workloads conform, the knee and frontier are where the "
              "engine can chart them\n");
  return 0;
}
