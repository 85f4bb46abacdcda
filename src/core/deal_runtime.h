// The one deal-execution API both commit protocols sit behind, and the
// protocol-independent half of a deal, written once.
//
//   Protocol        one enum for {timelock, cbc, htlc-baseline}, shared by
//                   traffic, sweeps, and bench reports.
//   DealTimings     ONE phase schedule (setup/startDeal/escrow/transfers/
//                   validation/Δ), the base of both protocol configs; per-
//                   protocol defaults come from DealTimings::DefaultsFor and
//                   multi-deal harnesses shift a whole schedule with ShiftBy
//                   instead of mirroring offsets.
//   PartyFactory    the uniform plug-in point for deviating strategies AND
//                   non-party observers: Make*Party supplies per-party
//                   strategies, OnDeployed fires once contracts exist (where
//                   watchtowers arm).
//   DealRuntime     one live deal: Deploy (contracts + schedule + wiring),
//                   Collect (a protocol-independent DealResult). The two
//                   protocol engines derive from it: TimelockRun
//                   (core/timelock_run.h) and CbcRun (core/cbc_run.h), which
//                   executes against a CbcService shard. A harness builds the
//                   engine its protocol needs and drives it through this
//                   interface.
//   DealParty       the base of both protocols' party strategies.
//
// DealRuntime and DealParty hold what every deal does the same way (§4.1):
// the parties, one escrow per asset, setup approvals, the transfer steps,
// validation with its backing check, and Collect's escrow tally. Each engine
// keeps its clearing, escrow calls, escrow identity check, commit protocol
// (§5 or §6) and the order in which it schedules its phases.

#ifndef XDEAL_CORE_DEAL_RUNTIME_H_
#define XDEAL_CORE_DEAL_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cbc/types.h"
#include "chain/world.h"
#include "core/deal_spec.h"

namespace xdeal {

class CbcParty;
class DealRuntime;
class TimelockParty;
class TimelockRun;

/// The one protocol enum shared by traffic, sweeps, and bench reports.
enum class Protocol : uint8_t {
  kTimelock = 0,
  kCbc,
  kHtlc,  // §8 baseline; swap-expressible ring deals only, no DealRuntime
};

/// Display name ("timelock" / "cbc" / "htlc") for reports and logs.
const char* ToString(Protocol p);

/// The phase schedule of one deal — the single source of truth both protocol
/// configs extend. Times are absolute ticks; a harness admitting deal after
/// deal shifts a default schedule with ShiftBy(admitted_at).
struct DealTimings {
  Tick setup_time = 0;         // token approvals
  Tick start_deal_time = 20;   // CBC clearing: startDeal recording
  Tick escrow_time = 80;
  Tick transfer_start = 180;
  Tick step_gap = 40;          // between sequential transfer steps
  bool parallel_transfers = false;
  Tick validation_slack = 50;  // after the last transfer step
  Tick delta = 200;            // the synchrony bound Δ
  /// Labels every transaction the run submits, so multi-deal worlds can
  /// attribute receipts/gas per deal. 0 = untagged (single-deal world).
  uint64_t deal_tag = 0;

  /// The stock schedule each protocol's config historically defaulted to
  /// (timelock escrows at 50 and transfers at 150; the CBC records startDeal
  /// at 20 first and runs each phase 30 ticks later).
  static DealTimings DefaultsFor(Protocol p);

  /// Shifts every absolute phase time by `offset` (Δ and the step gap are
  /// durations and stay put). Returns *this for chaining.
  DealTimings& ShiftBy(Tick offset);

  /// When validation (and voting) opens: transfer_start plus the sequential
  /// transfer window plus the slack.
  Tick ValidationTime(size_t num_transfer_steps) const {
    size_t sequential_steps = parallel_transfers ? 1 : num_transfer_steps;
    return transfer_start + static_cast<Tick>(sequential_steps) * step_gap +
           validation_slack;
  }
};

/// Protocol-independent result of one deal, collected after the scheduler
/// drains. Commit/abort/mixed partition the runs the same way for both
/// protocols; the gas fields cover the union of what the benches chart.
struct DealResult {
  Protocol protocol = Protocol::kTimelock;
  DealOutcome outcome = kDealActive;  // decisive outcome, if any
  bool committed = false;   // every escrow released / CBC log says commit
  bool aborted = false;     // nothing released / CBC log says abort
  bool mixed = false;       // neither, with both settles present
  bool all_settled = false;
  bool atomic = true;       // CBC: same outcome on every chain
  size_t released_contracts = 0;
  size_t refunded_contracts = 0;
  Tick settle_time = 0;       // last settlement (inclusion time)
  Tick decision_open = 0;     // timelock t0 / CBC vote time
  Tick commit_phase_end = 0;  // last commit-vote (timelock) / decide (CBC)

  uint64_t gas_escrow = 0;
  uint64_t gas_transfer = 0;
  uint64_t gas_vote = 0;    // timelock commit votes / CBC startDeal + votes
  uint64_t gas_decide = 0;  // CBC proof checking on asset chains
  uint64_t gas_refund = 0;
  uint64_t sig_verifies = 0;  // in the commit/decide phase
};

/// Supplies the parties (and hangers-on) of one deal. The default factory is
/// all-compliant; adversarial harnesses override Make*Party for the
/// deviating position, and watchtower-style observers attach in OnDeployed
/// — the same hook for either protocol.
class PartyFactory {
 public:
  virtual ~PartyFactory();

  /// Strategy for `p` under the timelock protocol (nullptr = compliant).
  virtual std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId p);
  /// Strategy for `p` under the CBC protocol (nullptr = compliant).
  virtual std::unique_ptr<CbcParty> MakeCbcParty(PartyId p);
  /// Called once per deal, after contracts are deployed and phases are
  /// scheduled but before the scheduler runs — the place to arm watchtowers
  /// or other non-party observers.
  virtual void OnDeployed(DealRuntime& runtime);
};

/// The one-deviant pattern every adversarial harness needs: exactly one
/// party id gets a strategy from the supplied maker (per protocol; a null
/// maker means that protocol's parties all stay compliant), everyone else
/// is compliant.
class SingleDeviantFactory : public PartyFactory {
 public:
  using TimelockMaker = std::function<std::unique_ptr<TimelockParty>()>;
  using CbcMaker = std::function<std::unique_ptr<CbcParty>()>;

  SingleDeviantFactory(uint32_t deviant, TimelockMaker timelock_maker,
                       CbcMaker cbc_maker = nullptr)
      : deviant_(deviant),
        timelock_maker_(std::move(timelock_maker)),
        cbc_maker_(std::move(cbc_maker)) {}

  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId p) override;
  std::unique_ptr<CbcParty> MakeCbcParty(PartyId p) override;

 private:
  uint32_t deviant_;
  TimelockMaker timelock_maker_;
  CbcMaker cbc_maker_;
};

/// The §4.1 backing check ("properly escrowed (so they cannot be
/// double-spent)"): true iff the escrow contract `escrow` on `asset`'s chain
/// records `p` as the onCommit owner of exactly what `expect` promises, and
/// the asset's token ledger shows the escrow itself holding it.
bool EscrowBacksExpectation(const World& world, const AssetRef& asset,
                            ContractId escrow, PartyId p,
                            const DealSpec::Expectation& expect);

/// The protocol-independent half of a party's strategy; TimelockParty and
/// CbcParty derive from it. Strategies act only through `Submit*` helpers
/// and public chain state — the same interface a real party would have.
class DealParty {
 public:
  virtual ~DealParty() = default;

  PartyId self() const { return self_; }
  /// Validation verdict reached by this party (valid after validation).
  bool satisfied() const { return satisfied_; }

  /// Transfer step `step_index` of the spec, if this party is its sender.
  virtual void OnTransferStep(size_t step_index);
  /// Validation: records whether the incoming escrows satisfy us.
  virtual void OnValidatePhase();

 protected:
  friend class DealRuntime;

  /// The World the deal lives in.
  World& world() const;
  /// The deal being executed.
  const DealSpec& spec() const;
  /// Submits a "transfer" call for one TransferStep (must be ours).
  void SubmitTransfer(const TransferStep& step);
  /// The §4.1 validation checks: every incoming asset's escrow is this
  /// deal's (EscrowIsForThisDeal) and backs what the spec promises us.
  virtual bool RunValidationChecks() const;
  /// The protocol's own check that asset `asset`'s escrow is deployed and
  /// was initialized for this very deal.
  virtual bool EscrowIsForThisDeal(uint32_t asset) const = 0;

  DealRuntime* runtime_ = nullptr;
  PartyId self_;
  bool satisfied_ = false;
};

/// One live deal: the base of TimelockRun and CbcRun. It holds the World,
/// the spec and the parties, and runs the phases both protocols share; each
/// engine adds its own commit protocol.
class DealRuntime {
 public:
  virtual ~DealRuntime();

  /// Deploys contracts, schedules all phases, and wires subscriptions; then
  /// fires the factory's OnDeployed hook. Call once, then drive the World's
  /// scheduler. Fails (without scheduling anything) on invalid specs or
  /// unsafe configs, e.g. CBC abort_patience < Δ.
  virtual Status Deploy() = 0;
  /// Aggregates the outcome after the scheduler has drained.
  virtual DealResult Collect() const = 0;

  /// The deal being executed.
  const DealSpec& spec() const { return spec_; }
  /// The World this deal lives in.
  World& world() const { return *world_; }
  /// The phase schedule this run executes (its protocol config's base).
  virtual const DealTimings& timings() const = 0;
  /// Escrow contract per asset index (parallel to spec().assets); valid
  /// after Deploy.
  virtual const std::vector<ContractId>& escrow_contracts() const = 0;
  /// The strategy object of party `p` (nullptr if `p` is not in the deal).
  DealParty* party(PartyId p);

  /// Every contract the run deployed, as (chain, contract): the escrows
  /// Deploy got to (one per asset once it succeeds) and, for a CBC run, its
  /// log. A multi-deal engine retires each of them when the deal retires.
  virtual std::vector<std::pair<ChainId, ContractId>> DeployedContracts()
      const;

  /// Non-null only for the timelock protocol: watchtowers need its
  /// deployment.
  virtual TimelockRun* timelock_run() { return nullptr; }

 protected:
  /// `spec` must Validate() by Deploy time. `factory` supplies each party's
  /// strategy and gets the OnDeployed hook (nullptr = all compliant); it
  /// must outlive Deploy().
  DealRuntime(World* world, DealSpec spec, PartyFactory* factory);

  /// Gives every party of the spec its strategy: `make` on the factory, or a
  /// compliant `Party` when there is no factory or it returns null.
  template <class Party>
  void AddParties(std::unique_ptr<Party> (PartyFactory::*make)(PartyId));
  /// Deploys one `Escrow` per asset, on that asset's chain, into `escrows`.
  template <class Escrow>
  Status DeployEscrows(std::vector<ContractId>* escrows);
  /// Setup: each depositor approves the escrow contract to pull its outgoing
  /// assets, at setup_time.
  void SetupApprovals();
  /// Transfer phase: each step at its sender, step_gap apart (or all at
  /// transfer_start when transfers are parallel).
  void ScheduleTransferSteps();
  /// Counts released and refunded escrows into `result` and sets
  /// all_settled (an escrow nobody deposited into is vacuously settled).
  void TallyEscrows(DealResult* result) const;

  World* world_;
  DealSpec spec_;
  PartyFactory* factory_;
  std::map<uint32_t, std::unique_ptr<DealParty>> parties_;
};

template <class Party>
void DealRuntime::AddParties(
    std::unique_ptr<Party> (PartyFactory::*make)(PartyId)) {
  for (PartyId p : spec_.parties) {
    std::unique_ptr<Party> strategy;
    if (factory_ != nullptr) strategy = (factory_->*make)(p);
    if (!strategy) strategy = std::make_unique<Party>();
    strategy->runtime_ = this;
    strategy->self_ = p;
    parties_[p.v] = std::move(strategy);
  }
}

template <class Escrow>
Status DealRuntime::DeployEscrows(std::vector<ContractId>* escrows) {
  escrows->clear();
  for (const AssetRef& asset : spec_.assets) {
    Blockchain* chain = world_->chain(asset.chain);
    if (chain == nullptr) return Status::NotFound("asset chain missing");
    escrows->push_back(
        chain->Deploy(std::make_unique<Escrow>(asset.kind, asset.token)));
  }
  return Status::OK();
}

}  // namespace xdeal

#endif  // XDEAL_CORE_DEAL_RUNTIME_H_
