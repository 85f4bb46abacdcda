// TimelockRun: executes a deal under the timelock commit protocol (§5); the
// DealRuntime every harness builds for a timelock deal.
//
// The run deploys one TimelockEscrowContract per asset, computes the deal
// schedule (phase times, t0, Δ), and drives each party's *strategy object*
// through the five phases (§4.1):
//
//   clearing -> escrow -> transfer -> validation -> commit
//
// Compliant strategy (§5.1, incentive-minimal):
//   - escrows its outgoing assets, performs its transfer steps in order,
//   - validates its incoming assets against the agreed spec,
//   - votes commit on the escrow contracts of its *incoming* assets,
//   - monitors its *outgoing* assets' chains and forwards newly observed
//     votes (path-signature extended with its own signature) to its
//     incoming assets' contracts,
//   - claims a refund after t0 + N·Δ if an escrow it funded never settled.
//
// Deviating behaviours are subclasses overriding individual hooks (see
// adversaries.h). Phase timings are deterministic; all nondeterminism comes
// from the World's network model and seed.

#ifndef XDEAL_CORE_TIMELOCK_RUN_H_
#define XDEAL_CORE_TIMELOCK_RUN_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/world.h"
#include "contracts/timelock_escrow.h"
#include "core/deal_spec.h"
#include "core/protocol_driver.h"
#include "util/det.h"

namespace xdeal {

/// Phase schedule (inherited — one source of truth in DealTimings) plus the
/// timelock protocol's own knobs.
struct TimelockConfig : DealTimings {
  TimelockConfig() : DealTimings(DefaultsFor(Protocol::kTimelock)) {}
  /// Adopts a harness-built schedule (e.g. one shifted by ShiftBy).
  explicit TimelockConfig(const DealTimings& timings)
      : DealTimings(timings) {}

  bool direct_votes = false;    // altruistic: vote on every asset's chain
  Tick refund_margin = 20;      // watchdog fires at t0 + N·Δ + margin
};

/// Where the deal's contracts live: escrow contract per asset index.
struct TimelockDeployment {
  DealInfo info;  // deal id, plist, t0, Δ
  std::vector<ContractId> escrow_contracts;  // parallel to spec.assets

  Tick validation_time = 0;
};

class TimelockRun;

/// Per-party strategy. The default implementation is the compliant party;
/// adversaries override hooks. Strategies act only through `Submit*` helpers
/// and public chain state — the same interface a real party would have.
class TimelockParty {
 public:
  virtual ~TimelockParty() = default;

  PartyId self() const { return self_; }

  // --- phase hooks (called by the run at scheduled times) ---
  /// Escrow phase: escrows this party's outgoing assets.
  virtual void OnEscrowPhase();
  /// Transfer step `step_index` of the spec, if this party is its sender.
  virtual void OnTransferStep(size_t step_index);
  /// Validation at t0: records whether the incoming escrows satisfy us.
  virtual void OnValidatePhase();
  /// Commit vote at t0, on incoming assets (every asset if direct_votes).
  virtual void OnCommitPhase();
  /// Observation of a receipt on a chain this party monitors.
  virtual void OnObservedReceipt(const Receipt& receipt);
  /// Refund watchdog at t0 + N·Δ + margin.
  virtual void OnRefundWatch();

  /// Validation verdict reached by this party (valid after validation).
  bool satisfied() const { return satisfied_; }

 protected:
  friend class TimelockRun;

  // --- helpers available to strategies ---
  World& world();
  const DealSpec& spec() const;
  const TimelockDeployment& deployment() const;
  const TimelockConfig& config() const;
  Blockchain* ChainOfAsset(uint32_t asset) const;
  TimelockEscrowContract* EscrowOfAsset(uint32_t asset) const;

  /// Submits an "escrow" call for one EscrowStep of this party.
  void SubmitEscrow(const EscrowStep& step);
  /// Submits a "transfer" call for one TransferStep (must be ours).
  void SubmitTransfer(const TransferStep& step);
  /// Builds this party's own commit vote (path length 1).
  PathVote MakeOwnVote() const;
  /// Extends `vote` with our signature at the next depth.
  PathVote ExtendVote(const PathVote& vote) const;
  /// Submits a commit vote to asset `a`'s escrow contract.
  void SubmitVote(uint32_t asset, const PathVote& vote);
  /// Runs the §4.1 validation checks; true if everything is satisfactory.
  bool RunValidationChecks() const;

  TimelockRun* run_ = nullptr;
  PartyId self_;
  bool satisfied_ = false;
  // (voter, asset) pairs we have already sent/forwarded, to avoid duplicates.
  std::set<std::pair<uint32_t, uint32_t>> sent_votes_;
};

/// The §5 timelock engine: one deal's contracts, schedule and party
/// strategies, driven through the DealRuntime interface.
class TimelockRun : public DealRuntime {
 public:
  /// `spec` must Validate() by Deploy time. `factory` supplies each party's
  /// strategy (nullptr, or a null strategy, means compliant) and gets the
  /// OnDeployed hook; it must outlive Deploy().
  TimelockRun(World* world, DealSpec spec, TimelockConfig config,
              PartyFactory* factory = nullptr);

  /// Deploys contracts, schedules all phases, and wires subscriptions, then
  /// fires the factory's OnDeployed hook. Call once, then
  /// world->scheduler().Run().
  XDEAL_DETERMINISTIC Status Deploy() override;

  /// Collects results after the scheduler has drained: committed iff every
  /// escrow released; votes are the commit calls.
  XDEAL_DETERMINISTIC DealResult Collect() const override;

  const DealSpec& spec() const override { return spec_; }
  const std::vector<ContractId>& escrow_contracts() const override {
    return deployment_.escrow_contracts;
  }
  TimelockRun* timelock_run() override { return this; }

  /// Deal info and escrow contracts; valid after Deploy.
  const TimelockDeployment& deployment() const { return deployment_; }
  /// The phase schedule and protocol knobs this run executes.
  const TimelockConfig& config() const { return config_; }
  /// The World this deal lives in.
  World& world() { return *world_; }
  /// The strategy object of party `p` (nullptr if `p` is not in the deal).
  TimelockParty* party(PartyId p);

 private:
  void SetupApprovals();
  void SchedulePhases();

  World* world_;
  DealSpec spec_;
  TimelockConfig config_;
  PartyFactory* factory_;
  TimelockDeployment deployment_;
  std::map<uint32_t, std::unique_ptr<TimelockParty>> parties_;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_TIMELOCK_RUN_H_
