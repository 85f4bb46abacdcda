// Experiment E10 — safety/liveness under adversarial sweeps (§5.2-5.3,
// Theorems 5.1-5.3).
//
// Runs generated deals against the full adversary gallery over many seeds
// and reports, per adversary: commit rate, abort rate, safety violations
// for compliant parties (MUST be zero), weak-liveness violations (MUST be
// zero), and the run outcome mix. This is the empirical counterpart of the
// paper's correctness theorems.
//
// Both protocols run through the same DealRuntime loop; the only
// protocol-specific pieces left are the adversary gallery itself and how
// the outcome mix is bucketed (timelock can end mixed, the CBC's failure
// mode is non-atomicity).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/adversaries.h"
#include "core/checker.h"

using namespace xdeal;
using namespace xdeal::bench;

namespace {

struct AdversaryStats {
  std::string name;
  int runs = 0;
  int commits = 0;
  int aborts = 0;
  int mixed = 0;          // timelock: mixed settle; CBC: non-atomic
  int safety_violations = 0;
  int liveness_violations = 0;
};

std::unique_ptr<TimelockParty> MakeTimelock(int kind) {
  switch (kind) {
    case 0: return nullptr;  // compliant baseline
    case 1: return std::make_unique<CrashingTimelockParty>(TlPhase::kEscrow);
    case 2: return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
    case 3: return std::make_unique<VoteWithholdingParty>();
    case 4: return std::make_unique<NonForwardingParty>();
    case 5: return std::make_unique<OfflineAfterVoteParty>();
    case 6: return std::make_unique<DoubleSpendingParty>();
    case 7: return std::make_unique<ShortTransferParty>();
    case 8: return std::make_unique<LateVotingParty>(100000);
    default: return nullptr;
  }
}

const char* kTimelockNames[] = {
    "compliant",       "crash@escrow",   "crash@transfer",
    "vote-withholder", "non-forwarder",  "offline-after-vote",
    "double-spender",  "short-transfer", "late-voter",
};

std::unique_ptr<CbcParty> MakeCbc(int kind) {
  switch (kind) {
    case 0: return nullptr;
    case 1: return std::make_unique<CbcCrashBeforeVoteParty>();
    case 2: return std::make_unique<CbcAlwaysAbortParty>();
    case 3: return std::make_unique<CbcRescindRacerParty>();
    case 4: return std::make_unique<CbcFakeProofParty>();
    default: return nullptr;
  }
}

const char* kCbcNames[] = {
    "compliant", "crash-before-vote", "always-abort", "rescind-racer",
    "fake-proof",
};

AdversaryStats RunGallery(Protocol protocol, int kind, const char* name,
                          int num_seeds, GenParams gen) {
  AdversaryStats stats;
  stats.name = name;
  for (int seed = 1; seed <= num_seeds; ++seed) {
    EnvConfig config;
    config.seed = seed;
    DealEnv env(std::move(config));
    gen.seed = seed * (protocol == Protocol::kTimelock ? 31 : 57) + kind;
    DealSpec spec = GenerateRandomDeal(&env, gen);
    uint32_t deviant = spec.parties[seed % spec.parties.size()].v;

    DealTimings timings = DealTimings::DefaultsFor(protocol);
    timings.delta = 120;
    SingleDeviantFactory factory(
        deviant, kind > 0 ? [kind] { return MakeTimelock(kind); }
                          : SingleDeviantFactory::TimelockMaker(nullptr),
        kind > 0 ? [kind] { return MakeCbc(kind); }
                 : SingleDeviantFactory::CbcMaker(nullptr));
    std::unique_ptr<CbcService> service;
    std::unique_ptr<DealRuntime> runtime;
    if (protocol == Protocol::kCbc) {
      CbcService::Options service_options;
      service_options.validator_seed = "adv-bench";
      service = std::make_unique<CbcService>(&env.world(), service_options);
      runtime = std::make_unique<CbcRun>(&env.world(), spec,
                                         CbcConfig(timings), service.get(),
                                         &factory);
    } else {
      runtime = std::make_unique<TimelockRun>(
          &env.world(), spec, TimelockConfig(timings), &factory);
    }
    if (!runtime->Deploy().ok()) continue;
    DealChecker checker(&env.world(), spec, runtime->escrow_contracts());
    checker.CaptureInitial();
    env.world().scheduler().Run();
    DealResult result = runtime->Collect();

    ++stats.runs;
    if (protocol == Protocol::kTimelock) {
      if (result.released_contracts == spec.NumAssets()) ++stats.commits;
      if (result.refunded_contracts == spec.NumAssets()) ++stats.aborts;
      if (result.released_contracts > 0 && result.refunded_contracts > 0) {
        ++stats.mixed;
      }
    } else {
      if (result.committed) ++stats.commits;
      if (result.aborted) ++stats.aborts;
      if (!result.atomic) ++stats.mixed;
    }
    for (PartyId p : spec.parties) {
      if (kind > 0 && p.v == deviant) continue;
      PartyVerdict v = checker.Evaluate(p);
      if (!v.property1) ++stats.safety_violations;
      if (!v.weak_liveness) ++stats.liveness_violations;
    }
  }
  return stats;
}

void PrintStats(const std::vector<AdversaryStats>& stats, bool cbc) {
  std::printf("%-20s %6s %8s %8s %7s %14s %16s\n", "adversary", "runs",
              "commits", "aborts", cbc ? "nonat" : "mixed",
              "safety_violns", "liveness_violns");
  for (const AdversaryStats& s : stats) {
    std::printf("%-20s %6d %8d %8d %7d %14d %16d\n", s.name.c_str(), s.runs,
                s.commits, s.aborts, s.mixed, s.safety_violations,
                s.liveness_violations);
  }
}

}  // namespace

int main() {
  const int kSeeds = 20;
  GenParams gen;
  gen.n_parties = 4;
  gen.m_assets = 3;
  gen.t_transfers = 8;
  gen.num_chains = 2;

  std::printf("=== Timelock protocol, 4-party deals, %d seeds per "
              "adversary, deviant rotates over parties ===\n", kSeeds);
  std::vector<AdversaryStats> tl_stats;
  for (int kind = 0; kind <= 8; ++kind) {
    tl_stats.push_back(RunGallery(Protocol::kTimelock, kind,
                                  kTimelockNames[kind], kSeeds, gen));
  }
  PrintStats(tl_stats, false);

  std::printf("\n=== CBC protocol, same workloads ===\n");
  std::vector<AdversaryStats> cbc_stats;
  for (int kind = 0; kind <= 4; ++kind) {
    cbc_stats.push_back(
        RunGallery(Protocol::kCbc, kind, kCbcNames[kind], kSeeds, gen));
  }
  PrintStats(cbc_stats, true);

  std::printf("\nexpected: zero safety and liveness violations everywhere "
              "(Theorems 5.1-5.2, §6.1); compliant rows commit 100%%; "
              "disruptive adversaries abort; 'nonat' (non-atomic CBC "
              "outcomes) must be zero.\n");
  return 0;
}
