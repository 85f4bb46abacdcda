// CbcRun: executes a deal under the certified-blockchain commit protocol
// (§6); the DealRuntime every harness builds for a CBC deal.
//
// A designated party records startDeal(D, plist) on the CBC; parties escrow
// their outgoing assets (pinning the CBC's validator set and the startDeal
// hash h), perform tentative transfers, validate, then vote commit or abort
// *on the CBC* (not per asset). The CBC log's total order decides the deal;
// parties extract status certificates from the validators and present them
// to escrow contracts, which verify 2f+1 signatures and settle.
//
// There are no per-asset timeouts: a party whose deal is taking too long
// votes abort (rescinding its earlier commit vote if necessary, after
// waiting at least Δ, §6). This protocol tolerates pre-GST asynchrony: the
// deal may abort, but it aborts *everywhere* — never a mixed outcome.

#ifndef XDEAL_CORE_CBC_RUN_H_
#define XDEAL_CORE_CBC_RUN_H_

#include <set>
#include <utility>
#include <vector>

#include "cbc/cbc_service.h"
#include "cbc/validators.h"
#include "chain/world.h"
#include "contracts/cbc_escrow.h"
#include "core/deal_spec.h"
#include "core/deal_runtime.h"
#include "util/det.h"

namespace xdeal {

/// Phase schedule (inherited — one source of truth in DealTimings) plus the
/// CBC protocol's own knobs.
struct CbcConfig : DealTimings {
  CbcConfig() : DealTimings(DefaultsFor(Protocol::kCbc)) {}
  explicit CbcConfig(const DealTimings& timings) : DealTimings(timings) {}

  /// How long after its commit vote a party waits before rescinding with an
  /// abort vote if the deal is still undecided. Must be >= Δ (§6); Deploy()
  /// rejects configs that violate the precondition.
  Tick abort_patience = 400;
  /// Number of validator-set reconfigurations to perform mid-deal (between
  /// escrow and claim) — exercises the (k+1)(2f+1) proof chain.
  size_t reconfigs_before_claim = 0;
  Tick reconfig_time = 260;
};

/// Where the deal's contracts live: the log on the home shard's CBC chain and
/// one escrow per asset.
struct CbcDeployment {
  DealId deal_id;
  ChainId cbc_chain;
  ContractId cbc_log;
  std::vector<ContractId> escrow_contracts;  // parallel to spec.assets
  Tick validation_time = 0;
  Tick vote_time = 0;
};

class CbcRun;

/// Per-party strategy for the CBC protocol; default is compliant.
class CbcParty : public DealParty {
 public:
  bool voted_commit() const { return voted_commit_; }
  bool voted_abort() const { return voted_abort_; }

  // --- phase hooks ---
  virtual void OnStartDealPhase();     // only the starter acts
  /// Escrow phase: escrows this party's outgoing assets once startDeal is
  /// known.
  virtual void OnEscrowPhase();
  virtual void OnVotePhase();          // commit if satisfied, abort otherwise
  /// Observation of this deal's receipt on the CBC chain.
  virtual void OnObservedCbcReceipt(const Receipt& receipt);
  virtual void OnAbortDeadline();      // rescind if still undecided

 protected:
  const CbcDeployment& deployment() const;
  /// The run this party belongs to.
  CbcRun& run() const;
  const CbcLogContract* Log() const;
  CbcEscrowContract* EscrowOfAsset(uint32_t asset) const;

  void SubmitStartDeal();
  void SubmitEscrow(const EscrowStep& step);
  void SubmitCbcVote(bool abort);
  /// Wraps `proof` into a DecideProof declaring this deal's home shard and
  /// presents it to asset `a`'s escrow.
  void SubmitDecide(uint32_t asset, const CbcProof& proof);
  /// Presents an explicit DecideProof (adversaries use this to declare the
  /// wrong shard; compliant code goes through SubmitDecide).
  void SubmitDecideProof(uint32_t asset, const DecideProof& proof);
  /// Nothing validates before this party has learned startDeal's hash.
  bool RunValidationChecks() const override;
  /// The escrow pins this deal's id, startDeal hash and the CBC's real
  /// validator set.
  bool EscrowIsForThisDeal(uint32_t asset) const override;
  /// Claims every escrow this party cares about, given a decisive outcome.
  void ClaimAll(DealOutcome outcome);
  /// Whether this party's own escrow call into `asset` has a receipt.
  bool OwnEscrowLanded(uint32_t asset) const;
  /// Every Δ until our own escrow into `asset` lands, then decides `asset`
  /// again unless it has settled meanwhile.
  void RetryDecideAfterOwnEscrow(uint32_t asset);

  bool start_hash_known_ = false;
  Hash256 start_hash_;
  bool voted_commit_ = false;
  bool voted_abort_ = false;
  bool escrowed_ = false;
  bool abort_pending_ = false;  // deadline passed before we learned h
  std::set<uint32_t> decided_assets_;  // where we already sent a proof
};

/// The §6 CBC engine: one deal's log, escrows, schedule and party
/// strategies against a CbcService shard, driven through the DealRuntime
/// interface.
class CbcRun : public DealRuntime {
 public:
  /// `service` hosts the certified logs; CbcService::PlaceAssets resolves
  /// the deal's placement — the *home* shard (hashed from the deal id) hosts
  /// the log and certifies the deal, while each asset settles on the shard
  /// hosting its chain (possibly a different one: its escrow then consumes a
  /// portable DecideProof from the home shard). The service must outlive the
  /// run. `factory` supplies each party's strategy (nullptr, or a null
  /// strategy, means compliant) and gets the OnDeployed hook; it must
  /// outlive Deploy().
  CbcRun(World* world, DealSpec spec, CbcConfig config, CbcService* service,
         PartyFactory* factory = nullptr);

  /// Records the log, pins the validators, deploys the escrows, schedules
  /// all phases and wires subscriptions, then fires the factory's
  /// OnDeployed hook. Rejects abort_patience < Δ. Call once, then
  /// world->scheduler().Run().
  XDEAL_DETERMINISTIC Status Deploy() override;
  /// Collects results after the scheduler has drained: the outcome is the
  /// log's; votes are the CBC's startDeal and vote writes.
  XDEAL_DETERMINISTIC DealResult Collect() const override;

  const DealTimings& timings() const override { return config_; }
  const std::vector<ContractId>& escrow_contracts() const override {
    return deployment_.escrow_contracts;
  }
  /// The escrows plus the deal's CBC log.
  std::vector<std::pair<ChainId, ContractId>> DeployedContracts()
      const override;

  /// The log and escrow contracts; valid after Deploy.
  const CbcDeployment& deployment() const { return deployment_; }
  /// The phase schedule and protocol knobs this run executes.
  const CbcConfig& config() const { return config_; }
  /// The certified backend this deal runs against.
  CbcService& service() { return *service_; }
  /// This deal's home-shard validators (via the service).
  ValidatorSet& validators() { return *validators_; }
  /// Where the deal's log and assets landed (from CbcService::PlaceAssets).
  const CbcService::Placement& placement() const { return placement_; }
  /// The shard whose log certifies this deal.
  size_t home_shard() const { return placement_.home_shard; }

  /// Validator keys pinned by escrows (epoch at escrow time).
  const std::vector<PublicKey>& escrow_validators() const {
    return escrow_validators_;
  }
  /// The validator epoch those keys belong to.
  uint32_t escrow_epoch() const { return escrow_epoch_; }

  /// Reconfiguration certificates issued since escrow (parties attach these
  /// to their proofs).
  const std::vector<ReconfigCertificate>& reconfig_chain() const {
    return reconfig_chain_;
  }

 private:
  void SchedulePhases();

  CbcConfig config_;
  CbcService* service_;
  CbcService::Placement placement_;
  ChainId cbc_chain_;
  ValidatorSet* validators_;
  CbcDeployment deployment_;
  std::vector<PublicKey> escrow_validators_;
  uint32_t escrow_epoch_ = 0;
  std::vector<ReconfigCertificate> reconfig_chain_;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_CBC_RUN_H_
