// Exhaustive interleaving verification bench: optimal-DPOR model checking
// over a curated cell set (2-party timelock + CBC deals on one and two
// chains, synchronous and §5.3 DoS-window networks), via ScenarioSweep's
// kExhaustive mode.
//
// Unlike the sampled benches, every reported count is a property of the
// deal itself, not of a seed: the number of inequivalent delivery orders
// and the number of violating orders are deterministic, so CI exact-gates
// them in BENCH_baseline.json. The bench also verifies the explorer
// invariants on every configuration:
//   - the exhaustive report fingerprint is identical at every thread count
//     (one search per cell, cells folded in matrix order);
//   - every run is a new order: no cell has a blocked run (`pruned` is 0)
//     and each cell's executions equal its orders;
//   - every cell completes (no cell hits the execution budget), honest
//     cells have zero violating orders, every cross-chain timelock
//     DoS-window cell rediscovers the §5.3 safety violation exhaustively,
//     and the single-chain DoS cell stays safe (no vote forwarding to
//     attack — the window is harmless without a cross-chain dependency).
//
// Exit status is nonzero if any invariant fails, so this binary doubles as
// the exhaustive conformance gate.
//
// Usage:  bench_explore [--threads=1,4] [--json=BENCH_explore.json]
//                       [--seed=1] [--max-runs=250000]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/scenario_sweep.h"

using namespace xdeal;

namespace {

SweepAxes ExploreAxes() {
  SweepAxes axes;
  axes.shapes = {
      {2, 1, 2, 1, 0},  // 2 parties, 1 asset, 2 transfers, 1 chain
      {2, 2, 3, 2, 0},  // 2 parties swapping 2 assets across 2 chains
  };
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc};
  axes.adversaries = {SweepAdversary::kNone};
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kDosWindow};
  // DoS beneficiary position: with the beneficiary at 1 its incoming chain
  // completes while the blinded party's refunds — the §5.3 mixed outcome.
  axes.positions = {1};
  axes.seeds_per_cell = 1;
  return axes;
}

std::string CellLabel(const ScenarioSpec& sc) {
  return std::string(ToString(sc.protocol)) + "/" + ToString(sc.network) +
         "/n" + std::to_string(sc.shape.n_parties) + "c" +
         std::to_string(sc.shape.num_chains);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> thread_counts = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "threads"), {1, 4});
  const char* json_path = bench::FlagValue(argc, argv, "json");
  const char* seed_flag = bench::FlagValue(argc, argv, "seed");
  const char* max_runs_flag = bench::FlagValue(argc, argv, "max-runs");
  uint64_t base_seed =
      seed_flag != nullptr ? std::strtoull(seed_flag, nullptr, 10) : 1;
  if (base_seed == 0) base_seed = 1;

  SweepAxes axes = ExploreAxes();
  std::printf("=== exhaustive interleaving verification, hardware "
              "threads: %u ===\n",
              std::thread::hardware_concurrency());

  bench::JsonReport json("bench_explore");
  json.AddConfig("base_seed", base_seed);
  json.AddConfig("hardware_threads",
                 static_cast<uint64_t>(std::thread::hardware_concurrency()));

  struct Row {
    size_t threads;
    double ms;
    ExhaustiveSweepReport report;
  };
  std::vector<Row> rows;
  for (size_t threads : thread_counts) {
    SweepOptions opts;
    opts.base_seed = base_seed;
    opts.num_threads = threads;
    opts.mode = SweepMode::kExhaustive;
    if (max_runs_flag != nullptr) {
      opts.max_runs_per_cell = std::strtoull(max_runs_flag, nullptr, 10);
    }
    auto start = std::chrono::steady_clock::now();
    ExhaustiveSweepReport report = RunExhaustiveSweep(axes, opts);
    auto end = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count() /
        1000.0;
    rows.push_back(Row{threads, ms, std::move(report)});
  }

  std::printf("%8s %12s %9s %10s %10s %11s\n", "threads", "wall (ms)",
              "speedup", "orders", "pruned", "violations");
  bool ok = true;
  for (const Row& row : rows) {
    double speedup = rows[0].ms / row.ms;
    std::printf("%8zu %12.1f %8.2fx %10" PRIu64 " %10" PRIu64 " %11" PRIu64
                "\n",
                row.threads, row.ms, speedup, row.report.orders,
                row.report.sleep_blocked, row.report.violations);
    if (row.report.fingerprint != rows[0].report.fingerprint) {
      std::printf("  FINGERPRINT MISMATCH at %zu threads: %016" PRIx64
                  " != %016" PRIx64 "\n",
                  row.threads, row.report.fingerprint,
                  rows[0].report.fingerprint);
      ok = false;
    }
    if (!row.report.complete) {
      std::printf("  INCOMPLETE at %zu threads: a branch hit the budget\n",
                  row.threads);
      ok = false;
    }
    bench::JsonReport::Labels labels = {
        {"threads", std::to_string(row.threads)}};
    json.AddMetric("wall_ms", row.ms, "ms", labels);
    json.AddMetric("orders_per_sec", row.report.orders / (row.ms / 1000.0),
                   "1/s", labels);
    json.AddMetric("speedup", speedup, "x", labels);
  }

  // Per-cell exact metrics (first configuration; all configurations agree
  // bit-for-bit or the fingerprint check above already failed).
  const ExhaustiveSweepReport& report = rows[0].report;
  std::printf("\n--- exhaustive cells ---\n%s", report.Summary().c_str());
  for (const ExhaustiveCellOutcome& cell : report.cells) {
    bench::JsonReport::Labels labels = {{"cell", CellLabel(cell.spec)}};
    json.AddMetric("explore_orders",
                   static_cast<double>(cell.report.stats.orders), "",
                   labels);
    json.AddMetric("explore_pruned",
                   static_cast<double>(cell.report.stats.sleep_blocked), "",
                   labels);
    json.AddMetric("explore_executions",
                   static_cast<double>(cell.report.stats.executions), "",
                   labels);
    json.AddMetric("explore_root_branches",
                   static_cast<double>(cell.report.stats.root_branches), "",
                   labels);
    json.AddMetric("explore_violations",
                   static_cast<double>(cell.report.violation_count), "",
                   labels);
    if (cell.report.stats.sleep_blocked != 0 ||
        cell.report.stats.executions != cell.report.stats.orders) {
      std::printf("  REDUNDANT RUNS in %s: %" PRIu64 " blocked, %" PRIu64
                  " executions for %" PRIu64 " orders\n",
                  CellLabel(cell.spec).c_str(),
                  cell.report.stats.sleep_blocked,
                  cell.report.stats.executions, cell.report.stats.orders);
      ok = false;
    }
    // §5.3 needs a cross-chain dependency to break: the attack cuts off
    // vote *forwarding*, so the timelock DoS cell on two chains must
    // violate in every order, while the single-chain DoS cell (nothing to
    // forward) and all honest cells must be violation-free.
    const bool dos = cell.spec.network == SweepNetwork::kDosWindow;
    const bool cross_chain = cell.spec.shape.num_chains >= 2;
    if (dos && cross_chain && cell.report.violation_count == 0) {
      std::printf("  DOS CELL %s: expected the §5.3 violation, found none\n",
                  CellLabel(cell.spec).c_str());
      ok = false;
    }
    if ((!dos || !cross_chain) && cell.report.violation_count != 0) {
      std::printf("  SAFE CELL %s: %" PRIu64 " violating orders\n",
                  CellLabel(cell.spec).c_str(), cell.report.violation_count);
      ok = false;
    }
  }
  json.AddMetric("explore_orders_total", static_cast<double>(report.orders));
  json.AddMetric("explore_pruned_total",
                 static_cast<double>(report.sleep_blocked));
  json.AddMetric("explore_violations_total",
                 static_cast<double>(report.violations));
  json.AddMetric("explore_violation_cells",
                 static_cast<double>(report.violation_cells));
  json.AddMetric("explore_complete", report.complete ? 1 : 0);
  json.AddMetric("conformance_ok", ok ? 1 : 0);

  if (json_path != nullptr && !json.WriteFile(json_path)) ok = false;
  if (!ok) {
    std::printf("\nEXPLORE FAILED: violations, nondeterminism, redundant "
                "runs, or an exhausted budget\n");
    return 1;
  }
  std::printf("\nall thread counts agree bit-for-bit; every cell proved "
              "exhaustively\n");
  return 0;
}
