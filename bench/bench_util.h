// Shared helpers for the benchmark binaries: run a generated (n, m, t) deal
// under either protocol and report per-phase gas and timing, plus the
// machine-readable JSON report writer CI archives as BENCH_*.json artifacts.

#ifndef XDEAL_BENCH_BENCH_UTIL_H_
#define XDEAL_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbc/cbc_service.h"
#include "core/cbc_run.h"
#include "core/deal_gen.h"
#include "core/deal_runtime.h"
#include "core/timelock_run.h"

namespace xdeal {
namespace bench {

// ---------------------------------------------------------------------------
// Machine-readable bench reports
//
// Schema (stable; diffing two BENCH files means diffing metrics[] by name
// and labels):
//   {
//     "bench": "<binary name>",
//     "git_rev": "<GITHUB_SHA / XDEAL_GIT_REV / unknown>",
//     "config": {"key": "value", ...},
//     "metrics": [
//       {"name": "...", "value": 1.5, "unit": "...",
//        "labels": {"deals": "100", "threads": "8"}},
//       ...
//     ]
//   }
// ---------------------------------------------------------------------------

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline std::string JsonNumber(double value) {
  // JSON has no NaN/Infinity literals — "%g" would print `nan`/`inf` and
  // every downstream parser (including the CI regression gate) would choke
  // on the whole file. Degenerate measurements (a rate over a 0 ms wall
  // time, a percentile of an empty set) serialize as 0 instead.
  if (!std::isfinite(value)) return "0";
  char buf[64];
  // %.12g round-trips every value these benches emit (counts, ticks, ms)
  // without float noise like 0.30000000000000004.
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

/// Collects config + metrics and serializes the report above.
class JsonReport {
 public:
  using Labels = std::vector<std::pair<std::string, std::string>>;

  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void AddConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
  }
  void AddConfig(const std::string& key, uint64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void AddConfig(const std::string& key, double value) {
    config_.emplace_back(key, JsonNumber(value));
  }

  void AddMetric(const std::string& name, double value,
                 const std::string& unit = "", const Labels& labels = {}) {
    std::string m = "{\"name\": \"" + JsonEscape(name) +
                    "\", \"value\": " + JsonNumber(value);
    if (!unit.empty()) m += ", \"unit\": \"" + JsonEscape(unit) + "\"";
    if (!labels.empty()) {
      m += ", \"labels\": {";
      for (size_t i = 0; i < labels.size(); ++i) {
        if (i > 0) m += ", ";
        m += "\"" + JsonEscape(labels[i].first) + "\": \"" +
             JsonEscape(labels[i].second) + "\"";
      }
      m += "}";
    }
    m += "}";
    metrics_.push_back(std::move(m));
  }

  /// CI exports GITHUB_SHA; local runs may set XDEAL_GIT_REV.
  static std::string GitRev() {
    const char* rev = std::getenv("GITHUB_SHA");
    if (rev == nullptr || rev[0] == '\0') rev = std::getenv("XDEAL_GIT_REV");
    return rev != nullptr && rev[0] != '\0' ? rev : "unknown";
  }

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + JsonEscape(bench_name_) +
                      "\",\n  \"git_rev\": \"" + JsonEscape(GitRev()) +
                      "\",\n  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + JsonEscape(config_[i].first) +
             "\": " + config_[i].second;
    }
    out += "},\n  \"metrics\": [\n";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += "    " + metrics_[i];
      if (i + 1 < metrics_.size()) out += ",";
      out += "\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    ok = std::fclose(f) == 0 && ok;
    return ok;
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-encoded
  std::vector<std::string> metrics_;
};

/// `--flag=` argv helper: returns the value after "--name=" or nullptr.
inline const char* FlagValue(int argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind(prefix, 0) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

/// Parses "1,2,4,8" into sizes; returns fallback on absence or garbage.
inline std::vector<size_t> ParseSizeList(const char* value,
                                         std::vector<size_t> fallback) {
  if (value == nullptr) return fallback;
  std::vector<size_t> out;
  size_t current = 0;
  bool have_digit = false;
  for (const char* p = value;; ++p) {
    if (*p >= '0' && *p <= '9') {
      current = current * 10 + static_cast<size_t>(*p - '0');
      have_digit = true;
    } else if (*p == ',' || *p == '\0') {
      if (!have_digit) return fallback;
      out.push_back(current);
      current = 0;
      have_digit = false;
      if (*p == '\0') break;
    } else {
      return fallback;
    }
  }
  return out.empty() ? fallback : out;
}

struct DealShape {
  size_t n = 3;       // parties
  size_t m = 2;       // assets
  size_t t = 4;       // transfers (clamped up by the generator)
  size_t chains = 2;  // chains hosting the assets
  uint64_t seed = 1;
};

struct PhaseReport {
  size_t n = 0, m = 0, t = 0;
  uint64_t gas_escrow = 0;
  uint64_t gas_transfer = 0;
  uint64_t gas_commit = 0;       // timelock: votes; CBC: cbc votes + decide
  uint64_t sig_verifies = 0;     // in the commit/decide phase
  uint64_t storage_writes_commit = 0;
  Tick escrow_ticks = 0;         // phase durations measured from receipts
  Tick transfer_ticks = 0;
  Tick commit_ticks = 0;
  bool committed = false;
};

/// Measures phase durations from tagged receipts: duration = last inclusion
/// time within the tag minus the phase's scheduled start.
inline Tick LastInclusion(const World& world, const std::string& tag) {
  Tick last = 0;
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    for (const Receipt& r : world.chain(ChainId{c})->receipts()) {
      if (r.tag == tag && r.status.ok()) {
        last = std::max(last, r.included_at);
      }
    }
  }
  return last;
}

inline uint64_t WritesForTag(const World& world, const std::string& tag) {
  uint64_t writes = 0;
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    for (const Receipt& r : world.chain(ChainId{c})->receipts()) {
      if (r.tag == tag && r.status.ok()) writes += r.storage_writes;
    }
  }
  return writes;
}

/// Knobs for RunProtocolDeal beyond the shape (protocol-specific fields are
/// ignored by the other protocol's run).
struct ProtocolDealOptions {
  Tick delta = 0;  // 0 = the benches' stock Δ of 120
  bool direct_votes = false;        // timelock
  bool parallel_transfers = false;
  size_t f = 1;                     // CBC validator fault budget
  size_t reconfigs = 0;             // CBC mid-deal validator rotations
};

/// Runs one generated deal of the given shape under either commit protocol
/// through the DealRuntime interface; all parties compliant. This is the one
/// deal-execution path every bench shares.
inline PhaseReport RunProtocolDeal(Protocol protocol, const DealShape& shape,
                                   const ProtocolDealOptions& options = {}) {
  EnvConfig env_config;
  env_config.seed = shape.seed;
  DealEnv env(std::move(env_config));
  GenParams gen;
  gen.n_parties = shape.n;
  gen.m_assets = shape.m;
  gen.t_transfers = shape.t;
  gen.num_chains = shape.chains;
  gen.seed = shape.seed;
  DealSpec spec = GenerateRandomDeal(&env, gen);

  DealTimings timings = DealTimings::DefaultsFor(protocol);
  timings.delta = options.delta != 0 ? options.delta : 120;
  timings.parallel_transfers = options.parallel_transfers;

  std::unique_ptr<CbcService> service;
  std::unique_ptr<DealRuntime> runtime;
  if (protocol == Protocol::kCbc) {
    CbcService::Options service_options;
    service_options.f = options.f;
    service_options.validator_seed = "bench-" + std::to_string(shape.seed);
    service = std::make_unique<CbcService>(&env.world(), service_options);
    CbcConfig config(timings);
    config.reconfigs_before_claim = options.reconfigs;
    runtime = std::make_unique<CbcRun>(&env.world(), spec, config,
                                       service.get());
  } else {
    TimelockConfig config(timings);
    config.direct_votes = options.direct_votes;
    runtime = std::make_unique<TimelockRun>(&env.world(), spec, config);
  }

  Status st = runtime->Deploy();
  if (!st.ok()) {
    std::fprintf(stderr, "%s start failed: %s\n", ToString(protocol),
                 st.ToString().c_str());
    return {};
  }
  env.world().scheduler().Run();
  DealResult result = runtime->Collect();

  PhaseReport report;
  report.n = shape.n;
  report.m = spec.NumAssets();
  report.t = spec.NumTransfers();
  report.gas_escrow = result.gas_escrow;
  report.gas_transfer = result.gas_transfer;
  report.gas_commit = result.gas_vote + result.gas_decide;
  report.sig_verifies = result.sig_verifies;
  report.storage_writes_commit =
      protocol == Protocol::kCbc
          ? WritesForTag(env.world(), "decide") +
                WritesForTag(env.world(), "cbc-vote")
          : WritesForTag(env.world(), "commit");
  report.committed = result.committed;
  report.escrow_ticks =
      LastInclusion(env.world(), "escrow") - timings.escrow_time;
  report.transfer_ticks =
      LastInclusion(env.world(), "transfer") - timings.transfer_start;
  report.commit_ticks = result.commit_phase_end - result.decision_open;
  return report;
}

/// Runs one timelock deal of the given shape; all parties compliant.
inline PhaseReport RunTimelockDeal(const DealShape& shape,
                                   bool direct_votes = false,
                                   bool parallel_transfers = false) {
  ProtocolDealOptions options;
  options.direct_votes = direct_votes;
  options.parallel_transfers = parallel_transfers;
  return RunProtocolDeal(Protocol::kTimelock, shape, options);
}

/// Runs one CBC deal of the given shape; all parties compliant.
inline PhaseReport RunCbcDeal(const DealShape& shape, size_t f,
                              size_t reconfigs = 0,
                              bool parallel_transfers = false) {
  ProtocolDealOptions options;
  options.f = f;
  options.reconfigs = reconfigs;
  options.parallel_transfers = parallel_transfers;
  return RunProtocolDeal(Protocol::kCbc, shape, options);
}

/// Builds a k-party ring deal: asset i (on its own chain) moves from party i
/// to party i+1. Each party's only incoming asset lives on one chain, so
/// timelock votes must propagate hop-by-hop around the ring — the worst case
/// behind Figure 7's O(n)Δ commit bound.
struct RingDeal {
  std::unique_ptr<DealEnv> env;
  DealSpec spec;
};

inline RingDeal MakeRingDeal(size_t k, uint64_t seed) {
  RingDeal ring;
  EnvConfig config;
  config.seed = seed;
  ring.env = std::make_unique<DealEnv>(std::move(config));
  ring.spec.deal_id = MakeDealId("ring", seed);
  std::vector<PartyId> parties;
  for (size_t i = 0; i < k; ++i) {
    parties.push_back(ring.env->AddParty("r" + std::to_string(i)));
  }
  ring.spec.parties = parties;
  for (size_t i = 0; i < k; ++i) {
    ChainId chain = ring.env->AddChain("ring-chain-" + std::to_string(i));
    uint32_t asset = ring.env->AddFungibleAsset(
        &ring.spec, chain, "rtok" + std::to_string(i), parties[i]);
    ring.env->Mint(ring.spec, asset, parties[i], 100);
    ring.spec.escrows.push_back({asset, parties[i], 100});
    ring.spec.transfers.push_back(
        {asset, parties[i], parties[(i + 1) % k], 100});
  }
  return ring;
}

/// Runs a ring deal under the timelock protocol and reports the commit
/// phase duration (t0 -> last release).
inline PhaseReport RunTimelockRing(size_t k, uint64_t seed,
                                   bool direct_votes) {
  RingDeal ring = MakeRingDeal(k, seed);
  DealTimings timings = DealTimings::DefaultsFor(Protocol::kTimelock);
  timings.delta = 150;
  timings.parallel_transfers = true;  // transfers are independent legs
  TimelockConfig config(timings);
  config.direct_votes = direct_votes;
  TimelockRun run(&ring.env->world(), ring.spec, config);
  if (!run.Deploy().ok()) return {};
  ring.env->world().scheduler().Run();
  DealResult result = run.Collect();
  PhaseReport report;
  report.n = k;
  report.m = k;
  report.t = k;
  report.gas_commit = result.gas_vote;
  report.sig_verifies = result.sig_verifies;
  report.committed = result.committed;
  report.commit_ticks = result.commit_phase_end - result.decision_open;
  return report;
}

}  // namespace bench
}  // namespace xdeal

#endif  // XDEAL_BENCH_BENCH_UTIL_H_
