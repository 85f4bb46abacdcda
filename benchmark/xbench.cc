// xbench: the workload driver of the xdeal benchmark (see README.md).
//
// One process runs one workload as a closed loop: a single caller makes the
// workload's call, waits for it to return, checks its outputs, and calls
// again until --seconds have been spent. Inside a call, deals arrive as the
// engine's seeded open-loop Poisson process in simulated ticks. The driver
// prints one JSON line of raw measurements on stdout; run.py turns it into
// metrics. Progress and gate failures go to stderr.
//
//   xbench --workload bigd|contended|service|check --seed N --seconds S
//          [--smoke] [--setup-only]
//
// --setup-only stops after set-up and prints the CLOCK_MONOTONIC instant the
// first timed call would have started, so run.py can time set-up from its
// own spawn instant. --smoke runs each workload at about 1/20 scale.
//
// xbench_traced is this file plus shims.cc; it appends the shims' per-layer
// table ("trace") to the JSON line, taken when the measured loop ends.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario_sweep.h"
#include "core/traffic_engine.h"

// Defined by shims.cc in xbench_traced only.
extern "C" const char* xbench_trace_report() __attribute__((weak));
extern "C" void xbench_trace_reset() __attribute__((weak));

namespace {

using namespace xdeal;

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}
uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
double SecondsSince(uint64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonNumber(values[i]);
  }
  return out + "]";
}

// Every workload uses indexed observation delivery. Once indexed delivery is
// the only path and TrafficOptions::indexed_observation is gone, this
// helper compiles to nothing and the workloads stay the same.
template <typename T>
auto UseIndexedObservation(T& options, int)
    -> decltype(options.indexed_observation = true, void()) {
  options.indexed_observation = true;
}
template <typename T>
void UseIndexedObservation(T&, long) {}

size_t BenchThreads() {
  size_t hw = std::thread::hardware_concurrency();
  return std::max<size_t>(1, std::min<size_t>(hw, 4));
}

/// What the measured loop produced, summed over iterations unless noted.
struct Outcome {
  size_t iterations = 0;
  /// Wall time of each timed call (the workload's headline operation).
  std::vector<double> call_ms;
  /// Deals (scenarios for `check`) per wall second, one sample per timed
  /// unit of deal work: a RunTraffic call, a straight service pass, a
  /// RunSweep call.
  std::vector<double> deal_rates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  /// First iteration's deterministic outputs; equal across iterations and
  /// between xbench and xbench_traced.
  std::map<std::string, std::string> det;
  /// Report counters of one iteration (per-layer counts).
  std::map<std::string, double> counts;

  void Check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  /// Records `value` as a deterministic output, or checks it against the
  /// first iteration's.
  void Det(const std::string& key, const std::string& value) {
    auto it = det.find(key);
    if (it == det.end()) {
      det[key] = value;
    } else if (it->second != value) {
      errors.push_back(key + " differs between iterations: " + it->second +
                       " vs " + value);
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One closed-loop iteration; iterations repeat identical work.
  virtual void Iterate(Outcome* out) = 0;
  /// Untimed gates run after the measured loop.
  virtual void Finish(Outcome*) {}
};

// --- bigd / contended: one RunTraffic call per iteration -------------------

class TrafficWorkload : public Workload {
 public:
  explicit TrafficWorkload(TrafficOptions options) : options_(options) {}

  void Iterate(Outcome* out) override {
    const uint64_t start = NowNs();
    TrafficReport r = RunTraffic(options_);
    const double seconds = SecondsSince(start);
    out->call_ms.push_back(seconds * 1e3);
    out->deal_rates.push_back(static_cast<double>(r.num_deals) / seconds);
    out->attempted += r.num_deals;
    out->failed += r.num_deals - r.committed;

    out->Check(r.committed + r.shed == r.num_deals,
               "a deal neither committed nor was shed");
    out->Check(r.violations.empty(), "property violations: " +
                                         std::to_string(r.violations.size()));
    out->Check(r.double_spends.empty(), "double spends");
    out->Check(r.broker_portfolio_violations == 0, "portfolio violations");
    out->Check(r.untagged_gas == 0, "untagged gas");

    out->Det("fingerprint", Hex(r.fingerprint));
    out->Det("events", std::to_string(r.events_executed));
    out->Det("gas", std::to_string(r.total_gas));
    out->Det("receipts", std::to_string(r.total_messages));
    out->Det("committed", std::to_string(r.committed));
    out->Det("sim_latency_p50_ticks", std::to_string(r.latency_p50));
    out->Det("sim_latency_p99_ticks", std::to_string(r.latency_p99));
    out->counts = {
        {"chain.receipts", static_cast<double>(r.total_messages)},
        {"chain.gas", static_cast<double>(r.total_gas)},
        {"admission.delayed", static_cast<double>(r.delayed_deals)},
        {"admission.shed", static_cast<double>(r.shed)},
        {"admission.retries", static_cast<double>(r.admission_retries)},
        {"broker.blocked_decisions", static_cast<double>(r.broker_blocked)},
        {"broker.portfolio_violations",
         static_cast<double>(r.broker_portfolio_violations)},
    };
  }

 private:
  TrafficOptions options_;
};

TrafficOptions BigdOptions(uint64_t seed, bool smoke) {
  TrafficOptions o;
  o.base_seed = seed;
  o.num_deals = smoke ? 200 : 4000;
  o.num_chains = o.num_deals / 8;
  o.cbc_shards = 8;
  o.arrival = ArrivalProcess::kPoisson;
  o.mean_interarrival = 20.0;
  o.admission.enabled = true;
  o.admission.max_chain_occupancy = 24;
  o.admission.retry_delay = 20;
  o.admission.max_retries = 3;
  o.num_threads = 1;
  UseIndexedObservation(o, 0);
  return o;
}

TrafficOptions ContendedOptions(uint64_t seed, bool smoke) {
  TrafficOptions o;
  o.base_seed = seed;
  o.num_deals = smoke ? 100 : 2000;
  o.num_chains = 4;
  o.block_capacity = 24;
  o.cbc_shards = 2;
  o.arrival = ArrivalProcess::kPoisson;
  o.mean_interarrival = 12.5;  // λ = 80 deals per kilotick
  // Capital and retry budget are sized so the broker gate delays 1-2% of
  // deals and sheds none: a shed deal is a refused operation. At capital
  // 800 and 8 retries about 2% are shed, and occupancy-priced hop chains
  // keep starving the same deals however many retries they get.
  o.brokers.num_brokers = 4;
  o.brokers.broker_every = 2;
  o.brokers.working_capital = 3000;
  o.brokers.inventory = 64;
  o.brokers.hop_depth = 2;
  o.brokers.margin_slope = 300;
  o.admission.enabled = true;
  o.admission.max_chain_occupancy = 24;
  o.admission.retry_delay = 25;
  o.admission.max_retries = 40;
  o.num_threads = 1;
  UseIndexedObservation(o, 0);
  return o;
}

// --- service: straight-through pass, then a checkpoint/restore pass --------

class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(uint64_t seed, bool smoke) : epochs_(smoke ? 3 : 50) {
    options_.base_seed = seed;
    options_.num_chains = 4;
    options_.deals_per_epoch = 20;
    options_.arrival = ArrivalProcess::kPoisson;
    options_.mean_interarrival = 20.0;
    options_.watchtower_every = 5;
    options_.tower_crash_every = 3;
    options_.tower_crash_after = 15;
    options_.tower_recover_after = 300;
    options_.brokers.num_brokers = 2;
    options_.brokers.broker_every = 4;
    options_.cbc_shards = 2;
    options_.cbc_xshard_every = 2;
    UseIndexedObservation(options_, 0);
  }

  void Iterate(Outcome* out) override {
    std::unique_ptr<TrafficService> straight = Create(out);
    std::unique_ptr<TrafficService> service = Create(out);
    if (straight == nullptr || service == nullptr) return;

    // (a) straight through: deals_per_s is the pass's deals over its time in
    // RunEpoch. (Epochs of 20 deals differ too much in content for a median
    // of per-epoch rates to be steady across seeds.)
    double epoch_seconds = 0;
    for (size_t e = 0; e < epochs_; ++e) {
      const uint64_t start = NowNs();
      EpochReport epoch = straight->RunEpoch();
      epoch_seconds += SecondsSince(start);
      out->Check(epoch.violations == 0 && epoch.double_spends == 0 &&
                     epoch.untagged_gas == 0,
                 "epoch " + std::to_string(e) + " not conformant");
    }
    const ServiceReport reference = straight->Finish();
    straight.reset();
    out->deal_rates.push_back(static_cast<double>(reference.deals) /
                              epoch_seconds);

    // (b) the same epochs, with checkpoint + destroy + FromSnapshot at every
    // boundary; a call is one such recovery, the time without service.
    uint64_t snapshot_bytes = 0;
    for (size_t e = 0; e < epochs_; ++e) {
      service->RunEpoch();
      if (e + 1 == epochs_) break;
      const uint64_t start = NowNs();
      Result<Bytes> snapshot = service->Checkpoint();
      if (!snapshot.ok()) {
        out->Check(false, "Checkpoint: " + snapshot.status().ToString());
        return;
      }
      snapshot_bytes += snapshot.value().size();
      service.reset();
      Result<std::unique_ptr<TrafficService>> restored =
          TrafficService::FromSnapshot(options_, snapshot.value());
      if (!restored.ok()) {
        out->Check(false, "FromSnapshot: " + restored.status().ToString());
        return;
      }
      service = std::move(restored.value());
      out->call_ms.push_back(SecondsSince(start) * 1e3);
    }
    const ServiceReport report = service->Finish();

    out->Check(report.final_fingerprint == reference.final_fingerprint &&
                   report.Summary() == reference.Summary(),
               "restored pass diverged from the straight-through pass");
    for (const ServiceReport* r : {&reference, &report}) {
      out->attempted += r->deals;
      out->failed += r->deals - r->committed;
      out->Check(r->violations.empty() && r->double_spends == 0 &&
                     r->broker_portfolio_violations == 0 &&
                     r->untagged_gas == 0,
                 "service run not conformant");
    }
    out->Det("fingerprint", Hex(reference.final_fingerprint));
    out->Det("gas", std::to_string(reference.total_gas));
    out->Det("receipts", std::to_string(reference.total_messages));
    out->Det("committed", std::to_string(reference.committed));
    out->Det("snapshot_bytes", std::to_string(snapshot_bytes));
    out->counts = {
        {"chain.receipts",
         static_cast<double>(reference.total_messages + report.total_messages)},
        {"chain.gas", static_cast<double>(reference.total_gas + report.total_gas)},
        {"snapshot.bytes", static_cast<double>(snapshot_bytes)},
        {"broker.portfolio_violations",
         static_cast<double>(reference.broker_portfolio_violations)},
    };
  }

 private:
  std::unique_ptr<TrafficService> Create(Outcome* out) {
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options_);
    if (!service.ok()) {
      out->Check(false, "Create: " + service.status().ToString());
      return nullptr;
    }
    return std::move(service.value());
  }

  TrafficOptions options_;
  size_t epochs_;
};

// --- check: exhaustive DPOR matrix, then the sampled conformance sweep ------

class CheckWorkload : public Workload {
 public:
  CheckWorkload(uint64_t seed, bool smoke)
      : seed_(seed), sweep_seeds_(smoke ? 1 : 4), threads_(BenchThreads()) {
    // bench_explore's 6-cell matrix: 2-party timelock and CBC deals on one
    // and two chains, synchronous and §5.3 DoS-window networks.
    explore_axes_.shapes = {{2, 1, 2, 1, 0}, {2, 2, 3, 2, 0}};
    explore_axes_.protocols = {Protocol::kTimelock, Protocol::kCbc};
    explore_axes_.adversaries = {SweepAdversary::kNone};
    explore_axes_.networks = {SweepNetwork::kSynchronous,
                              SweepNetwork::kDosWindow};
    explore_axes_.positions = {1};
    if (smoke) explore_axes_.shapes.resize(1);
    // The stock conformance matrix without pre-GST asynchrony: at many
    // seeds other than 1, some CBC scenario under pre-GST asynchrony fails
    // weak liveness (an open finding), and a benchmark input must not fail.
    sweep_axes_ = DefaultSweepAxes();
    sweep_axes_.networks = {SweepNetwork::kSynchronous,
                            SweepNetwork::kPostGstSync};
    if (smoke) sweep_axes_.seeds_per_cell = 1;
  }

  void Iterate(Outcome* out) override {
    SweepOptions eo;
    eo.base_seed = seed_;
    eo.num_threads = 1;
    eo.mode = SweepMode::kExhaustive;
    const uint64_t start = NowNs();
    ExhaustiveSweepReport ex = RunExhaustiveSweep(explore_axes_, eo);
    out->call_ms.push_back(SecondsSince(start) * 1e3);
    out->attempted += ex.cells.size();
    out->failed += CheckExplore(ex, out);
    out->Det("explore_fingerprint", Hex(ex.fingerprint));
    out->Det("explore_orders", std::to_string(ex.orders));

    double scenarios = 0, receipts = 0, gas = 0;
    for (size_t s = 0; s < sweep_seeds_; ++s) {
      SweepOptions so;
      so.base_seed = seed_ + s;
      so.num_threads = threads_;
      const uint64_t sweep_start = NowNs();
      SweepReport r = RunSweep(sweep_axes_, so);
      out->deal_rates.push_back(static_cast<double>(r.num_scenarios) /
                                SecondsSince(sweep_start));
      out->attempted += r.num_scenarios;
      out->failed += r.violations.size();
      out->Check(r.violations.empty(),
                 "sweep violations: " + std::to_string(r.violations.size()));
      out->Det("sweep_fingerprint_" + std::to_string(s), Hex(r.fingerprint));
      scenarios += static_cast<double>(r.num_scenarios);
      receipts += static_cast<double>(r.total_messages);
      gas += static_cast<double>(r.total_gas);
    }
    out->counts = {
        {"chain.receipts", receipts},
        {"chain.gas", gas},
        {"explore.executions", static_cast<double>(ex.executions)},
        {"explore.orders", static_cast<double>(ex.orders)},
        {"explore.sleep_blocked", static_cast<double>(ex.sleep_blocked)},
        {"sweep.scenarios", scenarios},
    };
  }

  // bench_explore and bench_sweep's determinism gate: reports are
  // bit-identical across thread counts.
  void Finish(Outcome* out) override {
    SweepOptions eo;
    eo.base_seed = seed_;
    eo.num_threads = threads_;
    eo.mode = SweepMode::kExhaustive;
    out->Check(Hex(RunExhaustiveSweep(explore_axes_, eo).fingerprint) ==
                   out->det["explore_fingerprint"],
               "exhaustive report differs across thread counts");
    SweepOptions so;
    so.base_seed = seed_;
    so.num_threads = 1;
    out->Check(Hex(RunSweep(sweep_axes_, so).fingerprint) ==
                   out->det["sweep_fingerprint_0"],
               "sweep report differs across thread counts");
  }

 private:
  // bench_explore's verdicts: every cell completes; the cross-chain
  // DoS-window cell violates (§5.3; the matrix pairs that network with
  // timelock deals only) and every other cell is clean.
  static uint64_t CheckExplore(const ExhaustiveSweepReport& ex, Outcome* out) {
    uint64_t bad = 0;
    for (const ExhaustiveCellOutcome& cell : ex.cells) {
      const bool expect_violation =
          cell.spec.network == SweepNetwork::kDosWindow &&
          cell.spec.shape.num_chains >= 2;
      const bool ok = cell.report.stats.complete &&
                      (cell.report.violation_count != 0) == expect_violation;
      if (!ok) ++bad;
    }
    out->Check(ex.complete, "an exhaustive cell hit its execution budget");
    out->Check(bad == 0, std::to_string(bad) + " exhaustive cells wrong");
    return bad;
  }

  uint64_t seed_;
  size_t sweep_seeds_;
  size_t threads_;
  SweepAxes explore_axes_;
  SweepAxes sweep_axes_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke) {
  if (name == "bigd") {
    return std::make_unique<TrafficWorkload>(BigdOptions(seed, smoke));
  }
  if (name == "contended") {
    return std::make_unique<TrafficWorkload>(ContendedOptions(seed, smoke));
  }
  if (name == "service") return std::make_unique<ServiceWorkload>(seed, smoke);
  if (name == "check") return std::make_unique<CheckWorkload>(seed, smoke);
  return nullptr;
}

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload_flag = Flag(argc, argv, "--workload");
  const char* seed_flag = Flag(argc, argv, "--seed");
  const char* seconds_flag = Flag(argc, argv, "--seconds");
  const bool smoke = HasFlag(argc, argv, "--smoke");
  const std::string name = workload_flag != nullptr ? workload_flag : "";
  const uint64_t seed =
      seed_flag != nullptr ? std::strtoull(seed_flag, nullptr, 10) : 1;
  const double seconds =
      seconds_flag != nullptr ? std::strtod(seconds_flag, nullptr) : 0;

  std::unique_ptr<Workload> workload = MakeWorkload(name, seed, smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "xbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  Outcome out;
  if (!smoke) {
    // Warm-up: one iteration at smoke scale lets lazy statics, allocator
    // pools and page faults settle before timing. It counts as set-up, so
    // work a change moves into first use shows in setup_s.
    Outcome warm;
    MakeWorkload(name, seed, true)->Iterate(&warm);
    out.errors.insert(out.errors.end(), warm.errors.begin(),
                      warm.errors.end());
  }
  if (xbench_trace_reset != nullptr) xbench_trace_reset();
  const uint64_t ready_ns = NowNs();
  if (HasFlag(argc, argv, "--setup-only")) {
    std::printf("{\"ready_ns\": %" PRIu64 "}\n", ready_ns);
    return out.errors.empty() ? 0 : 1;
  }
  const uint64_t cpu_ready_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID);

  // Closed loop: start another iteration only if one more of the mean
  // length still fits in the budget; always run at least one.
  double peak_rss_mb = 0;
  while (out.iterations == 0 ||
         SecondsSince(ready_ns) * (out.iterations + 1) / out.iterations <=
             seconds) {
    workload->Iterate(&out);
    // Peak RSS through set-up and one iteration: later iterations repeat the
    // same work, and how many fit in --seconds depends on the host.
    if (out.iterations++ == 0) peak_rss_mb = PeakRssMb();
    std::fprintf(stderr, "xbench %s: iteration %zu done at %.1f s\n",
                 name.c_str(), out.iterations, SecondsSince(ready_ns));
    if (!out.errors.empty()) break;
  }
  const double wall_s = SecondsSince(ready_ns);
  // The measured loop's CPU time on every thread.
  const double cpu_s =
      (ClockNs(CLOCK_PROCESS_CPUTIME_ID) - cpu_ready_ns) / 1e9;
  const std::string trace =
      xbench_trace_report != nullptr ? xbench_trace_report() : "";
  if (out.errors.empty()) workload->Finish(&out);
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "xbench %s: GATE FAILED: %s\n", name.c_str(),
                 e.c_str());
  }

  std::string json = "{\"workload\": " + JsonString(name) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"ready_ns\": " + std::to_string(ready_ns) +
                     ", \"iterations\": " + std::to_string(out.iterations) +
                     ", \"threads\": " + std::to_string(BenchThreads()) +
                     ", \"wall_s\": " + JsonNumber(wall_s) +
                     ", \"cpu_s\": " + JsonNumber(cpu_s) +
                     ", \"peak_rss_mb\": " + JsonNumber(peak_rss_mb) +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"call_ms\": " + JsonArray(out.call_ms) +
                     ", \"deal_rates\": " + JsonArray(out.deal_rates) +
                     ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    json += (i == 0 ? "" : ", ") + JsonString(out.errors[i]);
  }
  json += "], \"det\": {";
  const char* sep = "";
  for (const auto& [key, value] : out.det) {
    json += sep + JsonString(key) + ": " + JsonString(value);
    sep = ", ";
  }
  json += "}, \"counts\": {";
  sep = "";
  for (const auto& [key, value] : out.counts) {
    json += sep + JsonString(key) + ": " + JsonNumber(value);
    sep = ", ";
  }
  json += "}, \"build\": {\"compiler\": " + JsonString(XBENCH_COMPILER) +
          ", \"build_type\": " + JsonString(XBENCH_BUILD_TYPE) +
          ", \"flags\": " + JsonString(XBENCH_FLAGS) + "}";
  if (!trace.empty()) json += ", \"trace\": " + trace;
  json += "}";
  std::printf("%s\n", json.c_str());
  return out.errors.empty() ? 0 : 1;
}
