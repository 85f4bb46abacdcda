#include "core/scenario_sweep.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <tuple>

#include "baseline/htlc_swap.h"
#include "cbc/cbc_service.h"
#include "core/adversaries.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/env.h"
#include "core/protocol_driver.h"
#include "core/timelock_run.h"
#include "sim/worker_pool.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace xdeal {
namespace {

// Δ for the benign sweeps (matches the bench defaults: ample headroom over
// the [1, 10] delay bound plus block inclusion).
constexpr Tick kSweepDelta = 120;
// Δ for the §5.3 DoS window: deliberately small enough that the attack can
// outlast the forwarding deadlines, as in the adversary_gallery example.
constexpr Tick kDosDelta = 80;

uint64_t CountReceipts(const World& world) {
  uint64_t n = 0;
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    n += world.chain(ChainId{c})->receipts().size();
  }
  return n;
}

bool BenignNetwork(SweepNetwork n) {
  return n == SweepNetwork::kSynchronous || n == SweepNetwork::kPostGstSync;
}

// Every message's one-way delay under DelayModel::kFixed.
constexpr Tick kFixedDelay = 3;

/// The network a run delays its messages with, before any §5.3 window is
/// wrapped around it. Null means DealEnv's default, SynchronousNetwork(1, 10).
std::unique_ptr<NetworkModel> BaseNetwork(SweepNetwork kind,
                                          DelayModel delays) {
  if (delays == DelayModel::kFixed) {
    return std::make_unique<SynchronousNetwork>(kFixedDelay, kFixedDelay);
  }
  switch (kind) {
    case SweepNetwork::kSynchronous:
      return nullptr;
    case SweepNetwork::kPostGstSync:
      return std::make_unique<SemiSynchronousNetwork>(
          /*gst=*/0, /*pre_gst_max=*/3000, /*min_delay=*/1, /*max_delay=*/10);
    case SweepNetwork::kPreGstAsync:
      return std::make_unique<SemiSynchronousNetwork>(
          /*gst=*/4000, /*pre_gst_max=*/3000, /*min_delay=*/1,
          /*max_delay=*/10);
    case SweepNetwork::kDosWindow:
      return std::make_unique<SynchronousNetwork>(1, 10);
  }
  return nullptr;
}

std::unique_ptr<TimelockParty> MakeTimelockAdversary(SweepAdversary kind) {
  switch (kind) {
    case SweepAdversary::kCrashAtEscrow:
      return std::make_unique<CrashingTimelockParty>(TlPhase::kEscrow);
    case SweepAdversary::kCrashAtTransfer:
      return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
    case SweepAdversary::kCrashAtCommit:
      return std::make_unique<CrashingTimelockParty>(TlPhase::kCommit);
    case SweepAdversary::kVoteWithholding:
      return std::make_unique<VoteWithholdingParty>();
    case SweepAdversary::kNonForwarding:
      return std::make_unique<NonForwardingParty>();
    case SweepAdversary::kOfflineAfterVote:
      return std::make_unique<OfflineAfterVoteParty>();
    case SweepAdversary::kDoubleSpend:
      return std::make_unique<DoubleSpendingParty>();
    case SweepAdversary::kShortTransfer:
      return std::make_unique<ShortTransferParty>();
    case SweepAdversary::kLateVote:
      return std::make_unique<LateVotingParty>(100000);
    default:
      return nullptr;
  }
}

std::unique_ptr<CbcParty> MakeCbcAdversary(SweepAdversary kind) {
  switch (kind) {
    case SweepAdversary::kCbcCrashBeforeVote:
      return std::make_unique<CbcCrashBeforeVoteParty>();
    case SweepAdversary::kCbcAlwaysAbort:
      return std::make_unique<CbcAlwaysAbortParty>();
    case SweepAdversary::kCbcRescindRacer:
      return std::make_unique<CbcRescindRacerParty>();
    case SweepAdversary::kCbcFakeProof:
      return std::make_unique<CbcFakeProofParty>();
    default:
      return nullptr;
  }
}

GenParams GenParamsFor(const ScenarioSpec& sc) {
  GenParams gen;
  gen.n_parties = sc.shape.n_parties;
  gen.m_assets = sc.shape.m_assets;
  gen.t_transfers = sc.shape.t_transfers;
  gen.num_chains = sc.shape.num_chains;
  gen.nft_every = sc.shape.nft_every;
  gen.seed = sc.seed;
  return gen;
}

/// Sets ScenarioOutcome::fingerprint from the judged outcome.
void SealFingerprint(ScenarioOutcome* out) {
  uint64_t fp = 0x9E3779B97F4A7C15ULL;
  fp = MixFingerprint(fp, out->OutcomeBits());
  fp = MixFingerprint(fp, out->total_gas);
  fp = MixFingerprint(fp, out->messages);
  fp = MixFingerprint(fp, out->settle_time);
  fp = MixFingerprint(fp, FingerprintString(out->violation));
  out->fingerprint = fp;
}

ScenarioOutcome RunHtlcScenario(const ScenarioSpec& sc) {
  ScenarioOutcome out;
  out.index = sc.index;
  out.seed = sc.seed;

  EnvConfig env_config;
  env_config.seed = sc.seed;
  env_config.network = BaseNetwork(sc.network, DelayModel::kSeeded);
  DealEnv env(std::move(env_config));

  // Swaps only express direct pairwise exchanges, so the baseline runs a
  // k-party cycle: asset i (on its own chain) moves from party i to i+1.
  size_t k = std::max<size_t>(2, sc.shape.n_parties);
  DealSpec deal;
  deal.deal_id = MakeDealId("sweep-ring", sc.seed);
  std::vector<PartyId> parties;
  for (size_t i = 0; i < k; ++i) {
    parties.push_back(env.AddParty("p" + std::to_string(i)));
  }
  deal.parties = parties;
  for (size_t i = 0; i < k; ++i) {
    ChainId chain = env.AddChain("chain-" + std::to_string(i));
    uint32_t asset = env.AddFungibleAsset(&deal, chain,
                                          "tok" + std::to_string(i),
                                          parties[i]);
    env.Mint(deal, asset, parties[i], 100);
    deal.escrows.push_back({asset, parties[i], 100});
    deal.transfers.push_back({asset, parties[i], parties[(i + 1) % k], 100});
  }

  Result<SwapSpec> swap = ToSwapSpec(deal);
  if (!swap.ok()) {
    out.violation = "htlc-not-swap-expressible";
    return out;
  }
  HtlcSwapRun run(&env.world(), swap.value(), SwapConfig{});
  if (!run.Start().ok()) {
    out.violation = "htlc-start-failed";
    return out;
  }
  out.started = true;
  env.world().scheduler().Run();
  SwapResult result = run.Collect();

  out.committed = result.all_claimed;
  out.aborted = result.all_refunded;
  out.mixed = result.claimed_legs > 0 && result.refunded_legs > 0;
  out.all_settled = result.claimed_legs + result.refunded_legs == k;
  out.settle_time = result.settle_time;
  out.total_gas = env.world().TotalGas();
  out.messages = CountReceipts(env.world());

  // All parties are compliant: the decreasing-timeout discipline must claim
  // every leg under synchrony, and a mixed outcome is never acceptable.
  out.safety_ok = !out.mixed;
  out.weak_liveness_ok = out.all_settled;
  out.strong_liveness_ok = out.committed;
  out.FillViolation();
  return out;
}

}  // namespace

std::optional<ScenarioOutcome> RunDeal(
    const ScenarioSpec& sc, DelayModel delays,
    const std::function<bool(Scheduler&)>& drain) {
  ScenarioOutcome out;
  out.index = sc.index;
  out.seed = sc.seed;

  GenParams gen = GenParamsFor(sc);
  DealTimings timings = DealTimings::DefaultsFor(sc.protocol);
  timings.delta =
      sc.network == SweepNetwork::kDosWindow ? kDosDelta : kSweepDelta;

  std::unique_ptr<NetworkModel> net = BaseNetwork(sc.network, delays);
  TargetedDosNetwork* dos = nullptr;
  if (sc.network == SweepNetwork::kDosWindow) {
    // The attack window opens just after votes are cast at t0 and closes
    // past every forwarding deadline and refund watchdog. t0 depends only on
    // the transfer count, which we learn from a scratch generation (the
    // generator is deterministic in its params, so the real run below
    // produces the same spec).
    size_t steps;
    {
      EnvConfig scratch_config;
      scratch_config.seed = sc.seed;
      DealEnv scratch(std::move(scratch_config));
      steps = GenerateRandomDeal(&scratch, gen).NumTransfers();
    }
    Tick t0 = timings.ValidationTime(steps);
    Tick attack_start = t0 + 10;
    Tick attack_end =
        t0 + static_cast<Tick>(sc.shape.n_parties + 2) * timings.delta + 1000;
    auto dos_net = std::make_unique<TargetedDosNetwork>(
        std::move(net), attack_start, attack_end);
    dos = dos_net.get();
    net = std::move(dos_net);
  }

  EnvConfig env_config;
  env_config.seed = sc.seed;
  env_config.network = std::move(net);
  DealEnv env(std::move(env_config));
  DealSpec spec = GenerateRandomDeal(&env, gen);

  // The "special" party: the deviator for adversarial runs, the untargeted
  // beneficiary for the DoS window.
  uint32_t special = spec.parties[sc.position % spec.parties.size()].v;
  if (dos != nullptr) {
    for (PartyId p : spec.parties) {
      if (p.v != special) dos->AddTarget(env.world().PartyEndpoint(p));
    }
  }

  const bool adversarial = sc.adversary != SweepAdversary::kNone;
  // A wiring mismatch (an adversary kind this protocol's factory does not
  // know) must fail the scenario, not silently degrade into an honest run.
  if (adversarial) {
    const bool known = sc.protocol == Protocol::kTimelock
                           ? MakeTimelockAdversary(sc.adversary) != nullptr
                           : MakeCbcAdversary(sc.adversary) != nullptr;
    if (!known) {
      out.violation = "adversary-protocol-mismatch";
      SealFingerprint(&out);
      return out;
    }
  }

  // One deviator at the special position, for either protocol.
  SingleDeviantFactory factory(
      special,
      adversarial ? [&sc] { return MakeTimelockAdversary(sc.adversary); }
                  : SingleDeviantFactory::TimelockMaker(nullptr),
      adversarial ? [&sc] { return MakeCbcAdversary(sc.adversary); }
                  : SingleDeviantFactory::CbcMaker(nullptr));
  std::unique_ptr<CbcService> service;
  std::unique_ptr<DealRuntime> runtime;
  if (sc.protocol == Protocol::kCbc) {
    CbcService::Options service_options;
    service_options.validator_seed = "sweep-" + std::to_string(sc.seed);
    service = std::make_unique<CbcService>(&env.world(), service_options);
    runtime = std::make_unique<CbcRun>(&env.world(), spec, CbcConfig(timings),
                                       service.get(), &factory);
  } else {
    runtime = std::make_unique<TimelockRun>(&env.world(), spec,
                                            TimelockConfig(timings), &factory);
  }
  if (!runtime->Deploy().ok()) {
    out.violation = std::string(ToString(sc.protocol)) + "-start-failed";
    SealFingerprint(&out);
    return out;
  }
  out.started = true;
  DealChecker checker(&env.world(), spec, runtime->escrow_contracts());
  checker.CaptureInitial();
  if (!drain(env.world().scheduler())) return std::nullopt;

  DealResult result = runtime->Collect();
  out.settle_time = result.settle_time;
  out.total_gas = env.world().TotalGas();
  out.messages = CountReceipts(env.world());

  // Under the DoS window no *party* deviates, so everyone counts as
  // compliant — which is exactly how the §5.3 mixed outcome surfaces as a
  // Property 1 violation.
  std::vector<PartyId> compliant;
  for (PartyId p : spec.parties) {
    if (!adversarial || p.v != special) compliant.push_back(p);
  }
  // Property 3 is asserted only for honest runs on a network that kept its
  // delay bound: never under the DoS window, and not under pre-GST
  // asynchrony, which only the seeded network expresses.
  const bool synchronous = delays == DelayModel::kFixed
                               ? sc.network != SweepNetwork::kDosWindow
                               : BenignNetwork(sc.network);
  JudgeDeal(result, checker, compliant, !adversarial && synchronous, &out);
  SealFingerprint(&out);
  return out;
}

const char* ToString(SweepAdversary a) {
  switch (a) {
    case SweepAdversary::kNone: return "none";
    case SweepAdversary::kCrashAtEscrow: return "crash-escrow";
    case SweepAdversary::kCrashAtTransfer: return "crash-transfer";
    case SweepAdversary::kCrashAtCommit: return "crash-commit";
    case SweepAdversary::kVoteWithholding: return "vote-withholding";
    case SweepAdversary::kNonForwarding: return "non-forwarding";
    case SweepAdversary::kOfflineAfterVote: return "offline-after-vote";
    case SweepAdversary::kDoubleSpend: return "double-spend";
    case SweepAdversary::kShortTransfer: return "short-transfer";
    case SweepAdversary::kLateVote: return "late-vote";
    case SweepAdversary::kCbcCrashBeforeVote: return "cbc-crash-before-vote";
    case SweepAdversary::kCbcAlwaysAbort: return "cbc-always-abort";
    case SweepAdversary::kCbcRescindRacer: return "cbc-rescind-racer";
    case SweepAdversary::kCbcFakeProof: return "cbc-fake-proof";
  }
  return "?";
}

const char* ToString(SweepNetwork n) {
  switch (n) {
    case SweepNetwork::kSynchronous: return "sync";
    case SweepNetwork::kPostGstSync: return "post-gst";
    case SweepNetwork::kPreGstAsync: return "pre-gst-async";
    case SweepNetwork::kDosWindow: return "dos-window";
  }
  return "?";
}

bool AdversaryAppliesTo(SweepAdversary a, Protocol p) {
  if (a == SweepAdversary::kNone) return true;
  const bool timelock_kind = a >= SweepAdversary::kCrashAtEscrow &&
                             a <= SweepAdversary::kLateVote;
  switch (p) {
    case Protocol::kTimelock: return timelock_kind;
    case Protocol::kCbc: return !timelock_kind;
    case Protocol::kHtlc: return false;  // no swap deviators (yet)
  }
  return false;
}

bool NetworkAppliesTo(SweepNetwork n, Protocol p) {
  switch (n) {
    case SweepNetwork::kSynchronous:
    case SweepNetwork::kPostGstSync:
      return true;
    case SweepNetwork::kPreGstAsync:
      // Only the CBC protocol tolerates pre-GST asynchrony (§6); the
      // timelock protocol and HTLC timeouts assume synchrony outright.
      return p == Protocol::kCbc;
    case SweepNetwork::kDosWindow:
      return p == Protocol::kTimelock;
  }
  return false;
}

bool SweepCellKey::operator<(const SweepCellKey& o) const {
  return std::tie(protocol, adversary, network) <
         std::tie(o.protocol, o.adversary, o.network);
}

uint64_t ScenarioSeed(uint64_t base_seed, uint64_t scenario_index) {
  SplitMix64 base(base_seed);
  SplitMix64 mixed(base.Next() ^
                   (scenario_index * 0x9E3779B97F4A7C15ULL +
                    0xD1B54A32D192ED03ULL));
  uint64_t seed = mixed.Next();
  return seed == 0 ? 1 : seed;
}

std::vector<ScenarioSpec> BuildScenarioMatrix(const SweepAxes& axes,
                                              uint64_t base_seed) {
  std::vector<ScenarioSpec> specs;
  const std::vector<uint32_t> kPositionZero = {0};
  const size_t replicates = std::max<size_t>(1, axes.seeds_per_cell);
  for (const SweepShape& shape : axes.shapes) {
    for (Protocol protocol : axes.protocols) {
      for (SweepNetwork network : axes.networks) {
        if (!NetworkAppliesTo(network, protocol)) continue;
        for (SweepAdversary adversary : axes.adversaries) {
          if (!AdversaryAppliesTo(adversary, protocol)) continue;
          // The DoS window is itself the attack; parties stay compliant.
          if (network == SweepNetwork::kDosWindow &&
              adversary != SweepAdversary::kNone) {
            continue;
          }
          const bool uses_position =
              adversary != SweepAdversary::kNone ||
              network == SweepNetwork::kDosWindow;
          const std::vector<uint32_t>& positions =
              uses_position && !axes.positions.empty() ? axes.positions
                                                       : kPositionZero;
          for (uint32_t position : positions) {
            for (uint64_t r = 0; r < replicates; ++r) {
              ScenarioSpec sc;
              sc.index = specs.size();
              sc.seed = ScenarioSeed(base_seed, sc.index);
              sc.shape = shape;
              sc.protocol = protocol;
              sc.adversary = adversary;
              sc.network = network;
              sc.position = position;
              sc.replicate = r;
              specs.push_back(sc);
            }
          }
        }
      }
    }
  }
  return specs;
}

ScenarioOutcome RunScenario(const ScenarioSpec& spec) {
  if (spec.protocol == Protocol::kHtlc) return RunHtlcScenario(spec);
  return *RunDeal(spec, DelayModel::kSeeded, [](Scheduler& sched) {
    sched.Run();
    return true;
  });
}

SweepReport AggregateOutcomes(const std::vector<ScenarioSpec>& specs,
                              const std::vector<ScenarioOutcome>& outcomes) {
  SweepReport report;
  report.num_scenarios = specs.size();
  uint64_t fp = 0x243F6A8885A308D3ULL;
  for (size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& sc = specs[i];
    const ScenarioOutcome& o = outcomes[i];

    const bool honest = sc.adversary == SweepAdversary::kNone &&
                        BenignNetwork(sc.network);
    if (honest) {
      ++report.honest_runs;
    } else {
      ++report.adversarial_runs;
    }
    if (o.committed) ++report.committed;
    if (o.aborted) ++report.aborted;
    if (o.mixed) ++report.mixed;
    report.total_gas += o.total_gas;
    report.total_messages += o.messages;

    SweepCellStats& cell =
        report.cells[SweepCellKey{sc.protocol, sc.adversary, sc.network}];
    ++cell.runs;
    if (o.committed) ++cell.committed;
    if (o.aborted) ++cell.aborted;
    if (o.mixed) ++cell.mixed;
    cell.gas += o.total_gas;
    cell.messages += o.messages;
    if (!o.violation.empty()) {
      ++cell.violations;
      report.violations.push_back(SweepViolation{
          sc.index, sc.seed, sc.protocol, sc.adversary, sc.network,
          o.violation});
    }

    fp = MixFingerprint(fp, o.index);
    fp = MixFingerprint(fp, o.seed);
    fp = MixFingerprint(fp, o.OutcomeBits());
    fp = MixFingerprint(fp, o.total_gas);
    fp = MixFingerprint(fp, o.messages);
    fp = MixFingerprint(fp, o.settle_time);
    fp = MixFingerprint(fp, FingerprintString(o.violation));
  }
  report.fingerprint = fp;
  return report;
}

bool ExhaustivelyExplorable(const ScenarioSpec& sc) {
  if (sc.protocol != Protocol::kTimelock && sc.protocol != Protocol::kCbc) {
    return false;
  }
  if (sc.network != SweepNetwork::kSynchronous &&
      sc.network != SweepNetwork::kDosWindow) {
    return false;
  }
  return sc.shape.n_parties >= 2 && sc.shape.n_parties <= 4;
}

ExhaustiveSweepReport RunExhaustiveSweep(const SweepAxes& axes,
                                         const SweepOptions& options) {
  ExhaustiveSweepReport report;
  for (const ScenarioSpec& sc : BuildScenarioMatrix(axes, options.base_seed)) {
    if (ExhaustivelyExplorable(sc)) report.cells.push_back({sc, {}});
  }
  ExploreOptions explore_options;
  explore_options.max_runs_per_cell = options.max_runs_per_cell;
  WorkerPool pool(options.num_threads);
  pool.ParallelFor(report.cells.size(), [&](size_t i) {
    report.cells[i].report = ExploreDeal(report.cells[i].spec,
                                         explore_options);
  });
  uint64_t fp = 0x243F6A8885A308D3ULL;
  for (const ExhaustiveCellOutcome& cell : report.cells) {
    report.orders += cell.report.stats.orders;
    report.executions += cell.report.stats.executions;
    report.sleep_blocked += cell.report.stats.sleep_blocked;
    report.violations += cell.report.violation_count;
    if (cell.report.violation_count > 0) ++report.violation_cells;
    report.complete = report.complete && cell.report.stats.complete;
    fp = MixFingerprint(fp, cell.report.fingerprint);
  }
  report.fingerprint = fp;
  return report;
}

std::string ExhaustiveSweepReport::Summary() const {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof(line),
                "cells=%zu orders=%llu blocked=%llu executions=%llu "
                "violations=%llu violation_cells=%llu complete=%d "
                "fingerprint=%016llx\n",
                cells.size(), static_cast<unsigned long long>(orders),
                static_cast<unsigned long long>(sleep_blocked),
                static_cast<unsigned long long>(executions),
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(violation_cells),
                complete ? 1 : 0,
                static_cast<unsigned long long>(fingerprint));
  s += line;
  for (const ExhaustiveCellOutcome& c : cells) {
    std::snprintf(line, sizeof(line),
                  "%-9s %-22s %-14s n=%zu seed=%llu %s\n",
                  ToString(c.spec.protocol), ToString(c.spec.adversary),
                  ToString(c.spec.network), c.spec.shape.n_parties,
                  static_cast<unsigned long long>(c.spec.seed),
                  c.report.Summary().c_str());
    s += line;
  }
  return s;
}

SweepReport RunSweep(const SweepAxes& axes, const SweepOptions& options) {
  std::vector<ScenarioSpec> specs = BuildScenarioMatrix(axes,
                                                        options.base_seed);
  std::vector<ScenarioOutcome> outcomes(specs.size());
  WorkerPool pool(options.num_threads);
  pool.ParallelFor(specs.size(), [&specs, &outcomes](size_t i) {
    outcomes[i] = RunScenario(specs[i]);
  });
  return AggregateOutcomes(specs, outcomes);
}

std::string SweepReport::Summary() const {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof(line),
                "scenarios=%zu honest=%zu adversarial=%zu committed=%zu "
                "aborted=%zu mixed=%zu violations=%zu\n"
                "total_gas=%llu total_messages=%llu fingerprint=%016llx\n",
                num_scenarios, honest_runs, adversarial_runs, committed,
                aborted, mixed, violations.size(),
                static_cast<unsigned long long>(total_gas),
                static_cast<unsigned long long>(total_messages),
                static_cast<unsigned long long>(fingerprint));
  s += line;
  std::snprintf(line, sizeof(line), "%-9s %-22s %-14s %5s %5s %5s %5s %5s\n",
                "protocol", "adversary", "network", "runs", "commt", "abort",
                "mixed", "viol");
  s += line;
  for (const auto& [key, cell] : cells) {
    std::snprintf(line, sizeof(line),
                  "%-9s %-22s %-14s %5zu %5zu %5zu %5zu %5zu\n",
                  ToString(key.protocol), ToString(key.adversary),
                  ToString(key.network), cell.runs, cell.committed,
                  cell.aborted, cell.mixed, cell.violations);
    s += line;
  }
  for (const SweepViolation& v : violations) {
    std::snprintf(line, sizeof(line),
                  "VIOLATION scenario=%zu seed=%llu %s/%s/%s: %s\n",
                  v.scenario_index, static_cast<unsigned long long>(v.seed),
                  ToString(v.protocol), ToString(v.adversary),
                  ToString(v.network), v.what.c_str());
    s += line;
  }
  return s;
}

SweepAxes DefaultSweepAxes() {
  SweepAxes axes;
  axes.shapes = {
      {2, 1, 2, 1, 0},
      {3, 2, 5, 2, 0},
      {4, 3, 8, 2, 3},   // every 3rd asset an NFT
      {5, 4, 10, 3, 0},
  };
  axes.protocols = {Protocol::kTimelock, Protocol::kCbc,
                    Protocol::kHtlc};
  axes.adversaries = {
      SweepAdversary::kNone,
      SweepAdversary::kCrashAtEscrow,
      SweepAdversary::kCrashAtTransfer,
      SweepAdversary::kCrashAtCommit,
      SweepAdversary::kVoteWithholding,
      SweepAdversary::kNonForwarding,
      SweepAdversary::kOfflineAfterVote,
      SweepAdversary::kDoubleSpend,
      SweepAdversary::kShortTransfer,
      SweepAdversary::kLateVote,
      SweepAdversary::kCbcCrashBeforeVote,
      SweepAdversary::kCbcAlwaysAbort,
      SweepAdversary::kCbcRescindRacer,
      SweepAdversary::kCbcFakeProof,
  };
  // kPreGstAsync applies to the CBC protocol only (the matrix filter skips
  // it elsewhere): deals may abort under pre-GST asynchrony, but atomically
  // and without hurting compliant parties.
  axes.networks = {SweepNetwork::kSynchronous, SweepNetwork::kPostGstSync,
                   SweepNetwork::kPreGstAsync};
  // {0, 1} stays distinct modulo every shape's party count (positions are
  // taken mod n, so {0, 2} would collapse to party 0 on 2-party deals).
  axes.positions = {0, 1};
  axes.seeds_per_cell = 3;
  return axes;
}

}  // namespace xdeal
