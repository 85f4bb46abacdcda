#include "core/cbc_run.h"

namespace xdeal {

// ---------------------------------------------------------------------------
// CbcParty (compliant behaviour)
// ---------------------------------------------------------------------------

CbcRun& CbcParty::run() const { return static_cast<CbcRun&>(*runtime_); }
const CbcDeployment& CbcParty::deployment() const {
  return run().deployment();
}

const CbcLogContract* CbcParty::Log() const {
  return world()
      .chain(deployment().cbc_chain)
      ->As<CbcLogContract>(deployment().cbc_log);
}

CbcEscrowContract* CbcParty::EscrowOfAsset(uint32_t asset) const {
  return world()
      .chain(spec().assets[asset].chain)
      ->As<CbcEscrowContract>(deployment().escrow_contracts[asset]);
}

void CbcParty::SubmitStartDeal() {
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.U32(static_cast<uint32_t>(spec().parties.size()));
  for (PartyId p : spec().parties) w.U32(p.v);
  world().Submit(self_, deployment().cbc_chain, deployment().cbc_log,
                 CallData{"startDeal", w.Take()}, "cbc-start",
                 run().config().deal_tag);
}

void CbcParty::SubmitEscrow(const EscrowStep& step) {
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.U32(static_cast<uint32_t>(spec().parties.size()));
  for (PartyId p : spec().parties) w.U32(p.v);
  w.Raw(start_hash_.bytes.data(), 32);
  const auto& validators = run().escrow_validators();
  w.U32(static_cast<uint32_t>(validators.size()));
  for (const PublicKey& v : validators) w.Raw(v.Serialize());
  w.U32(run().escrow_epoch());
  w.U64(step.value);
  // Bind the escrow to the deal's home shard: decide proofs replayed from
  // any other shard are rejected before signature verification.
  w.U32(static_cast<uint32_t>(run().home_shard()));
  world().Submit(self_, spec().assets[step.asset].chain,
                 deployment().escrow_contracts[step.asset],
                 CallData{"escrow", w.Take()}, "escrow",
                 run().config().deal_tag);
}

void CbcParty::SubmitCbcVote(bool abort) {
  if (!start_hash_known_) return;
  if (abort && voted_abort_) return;
  if (!abort && voted_commit_) return;
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.Raw(start_hash_.bytes.data(), 32);
  world().Submit(self_, deployment().cbc_chain, deployment().cbc_log,
                 CallData{abort ? "abort" : "commit", w.Take()}, "cbc-vote",
                 run().config().deal_tag);
  if (abort) {
    voted_abort_ = true;
  } else {
    voted_commit_ = true;
  }
}

void CbcParty::SubmitDecide(uint32_t asset, const CbcProof& proof) {
  DecideProof dp;
  dp.shard = static_cast<uint32_t>(run().home_shard());
  dp.proof = proof;
  SubmitDecideProof(asset, dp);
}

void CbcParty::SubmitDecideProof(uint32_t asset, const DecideProof& proof) {
  if (!decided_assets_.insert(asset).second) return;
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.Blob(proof.Serialize());
  world().Submit(self_, spec().assets[asset].chain,
                 deployment().escrow_contracts[asset],
                 CallData{"decide", w.Take()}, "decide",
                 run().config().deal_tag);
  // Under pre-GST asynchrony our own escrow into this asset can still be in
  // flight. A decide that lands first is rejected ("unknown deal"), and once
  // the deposit lands nobody would decide again, so decide once more after
  // it does. A deposit already on chain precedes this decide: no retry.
  if (escrowed_ && spec().Deposits(self_, asset) && !OwnEscrowLanded(asset)) {
    RetryDecideAfterOwnEscrow(asset);
  }
}

bool CbcParty::OwnEscrowLanded(uint32_t asset) const {
  const Blockchain* chain = world().chain(spec().assets[asset].chain);
  for (const Receipt& r : chain->ContractReceipts(
           run().config().deal_tag, deployment().escrow_contracts[asset])) {
    if (r.sender == self_ && r.function == "escrow") return true;
  }
  return false;
}

void CbcParty::RetryDecideAfterOwnEscrow(uint32_t asset) {
  world().scheduler().ScheduleAfter(
      run().config().delta,
      EventLabel::Timer(self_.v, run().config().deal_tag), [this, asset] {
        const CbcEscrowContract* esc = EscrowOfAsset(asset);
        if (esc == nullptr || esc->Settled()) return;
        if (!OwnEscrowLanded(asset)) {
          RetryDecideAfterOwnEscrow(asset);
          return;
        }
        decided_assets_.erase(asset);
        ClaimAll(Log()->OutcomeOf(deployment().deal_id));
      });
}

bool CbcParty::RunValidationChecks() const {
  return start_hash_known_ && DealParty::RunValidationChecks();
}

bool CbcParty::EscrowIsForThisDeal(uint32_t asset) const {
  const CbcEscrowContract* esc = EscrowOfAsset(asset);
  if (esc == nullptr || !esc->initialized()) return false;
  if (!(esc->deal_id() == deployment().deal_id)) return false;
  if (!(esc->start_hash() == start_hash_)) return false;
  // "they must check their correctness before voting to commit" — the
  // pinned validators must match the CBC's real validator set.
  return esc->validators() == run().escrow_validators();
}

void CbcParty::ClaimAll(DealOutcome outcome) {
  // Collect the escrows still needing a decision before building any proof:
  // a status certificate costs 2f+1 validator signatures, and on a shared
  // CBC chain ClaimAll is re-triggered by every observed receipt — including
  // other deals' — long after everything of ours has settled.
  std::vector<uint32_t> todo;
  if (outcome == kDealCommitted) {
    // Motivated to claim incoming assets.
    for (uint32_t a : spec().IncomingAssetsOf(self_)) {
      if (decided_assets_.count(a) > 0) continue;
      const CbcEscrowContract* esc = EscrowOfAsset(a);
      if (esc != nullptr && !esc->Settled()) todo.push_back(a);
    }
  } else {
    // Motivated to recover deposits.
    for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
      if (decided_assets_.count(a) > 0 || !spec().Deposits(self_, a)) {
        continue;
      }
      const CbcEscrowContract* esc = EscrowOfAsset(a);
      if (esc != nullptr && !esc->Settled()) todo.push_back(a);
    }
  }
  if (todo.empty()) return;

  // The proof: reconfig chain from the epoch our escrows pinned (the
  // service records every rotation, including ones scheduled outside this
  // run) + a fresh status certificate from the current validator set,
  // stamped with the home shard so escrows on other shards accept it.
  DecideProof proof = run().service().IssueDecideProof(
      *Log(), deployment().deal_id, run().escrow_epoch());
  if (proof.proof.status.outcome != outcome) return;  // view changed; stale
  for (uint32_t a : todo) SubmitDecideProof(a, proof);
}

void CbcParty::OnStartDealPhase() { SubmitStartDeal(); }

void CbcParty::OnEscrowPhase() {
  if (!start_hash_known_) return;  // never observed startDeal: do nothing
  if (escrowed_) return;
  escrowed_ = true;
  for (const EscrowStep& step : spec().escrows) {
    if (step.party == self_) SubmitEscrow(step);
  }
}

void CbcParty::OnVotePhase() {
  // "they vote to commit if validation succeeds, and they vote to abort if
  //  validation fails" (§6).
  SubmitCbcVote(/*abort=*/!satisfied_);
}

void CbcParty::OnObservedCbcReceipt(const Receipt& receipt) {
  if (!receipt.status.ok()) return;
  if (receipt.function == "startDeal") {
    const CbcLogContract* log = Log();
    if (log == nullptr) return;
    Hash256 h = log->StartHashOf(deployment().deal_id);
    if (!h.IsZero()) {
      start_hash_ = h;
      start_hash_known_ = true;
      // If our abort deadline already passed while we were partitioned and
      // could not even learn h, vote abort now so escrows come home.
      if (abort_pending_ &&
          log->OutcomeOf(deployment().deal_id) == kDealActive) {
        SubmitCbcVote(/*abort=*/true);
        return;
      }
      // If the escrow phase already passed while we were partitioned,
      // escrow now — late escrows at worst make validation fail and the
      // deal abort consistently. But never escrow into a deal that is
      // already decided: under pre-GST asynchrony the decisive outcome can
      // be observed before startDeal, and a deposit made after everyone
      // else claimed would have no one left to refund it.
      if (world().now() >= run().config().escrow_time && !escrowed_ &&
          log->OutcomeOf(deployment().deal_id) == kDealActive) {
        OnEscrowPhase();
      }
    }
    return;
  }
  if (receipt.function == "commit" || receipt.function == "abort") {
    const CbcLogContract* log = Log();
    if (log == nullptr) return;
    DealOutcome outcome = log->OutcomeOf(deployment().deal_id);
    if (outcome != kDealActive) ClaimAll(outcome);
  }
}

void CbcParty::OnAbortDeadline() {
  const CbcLogContract* log = Log();
  if (log == nullptr) return;
  if (!start_hash_known_) {
    // We have not even seen the deal start; abort the moment we do.
    abort_pending_ = true;
    return;
  }
  DealOutcome outcome = log->OutcomeOf(deployment().deal_id);
  if (outcome != kDealActive) return;  // already decided
  // Too much time has passed: rescind/abort so escrowed assets come home.
  SubmitCbcVote(/*abort=*/true);
}

// ---------------------------------------------------------------------------
// CbcRun
// ---------------------------------------------------------------------------

CbcRun::CbcRun(World* world, DealSpec spec, CbcConfig config,
               CbcService* service, PartyFactory* factory)
    : DealRuntime(world, std::move(spec), factory),
      config_(config),
      service_(service) {
  std::vector<ChainId> asset_chains;
  asset_chains.reserve(spec_.assets.size());
  for (const AssetRef& asset : spec_.assets) {
    asset_chains.push_back(asset.chain);
  }
  placement_ = service->PlaceAssets(spec_.deal_id, asset_chains);
  cbc_chain_ = service->chain(placement_.home_shard);
  validators_ = &service->validators(placement_.home_shard);
  AddParties(&PartyFactory::MakeCbcParty);
}

Status CbcRun::Deploy() {
  XDEAL_RETURN_IF_ERROR(spec_.Validate());
  // §6: a party may rescind its commit vote only "after waiting at least Δ".
  // A patience below Δ would let compliant parties rescind while their own
  // votes are still legitimately in flight — reject it outright instead of
  // silently running an unsafe schedule.
  if (config_.abort_patience < config_.delta) {
    return Status::InvalidArgument(
        "CbcConfig.abort_patience (" +
        std::to_string(config_.abort_patience) + ") must be >= delta (" +
        std::to_string(config_.delta) + ")");
  }

  deployment_.deal_id = spec_.deal_id;
  deployment_.cbc_chain = cbc_chain_;
  Blockchain* cbc = world_->chain(cbc_chain_);
  if (cbc == nullptr) return Status::NotFound("CBC chain missing");
  deployment_.cbc_log = cbc->Deploy(std::make_unique<CbcLogContract>());

  escrow_validators_ = validators_->CurrentPublicKeys();
  escrow_epoch_ = validators_->epoch();

  XDEAL_RETURN_IF_ERROR(
      DeployEscrows<CbcEscrowContract>(&deployment_.escrow_contracts));

  deployment_.validation_time =
      config_.ValidationTime(spec_.transfers.size());
  deployment_.vote_time = deployment_.validation_time;

  // Every party watches the CBC — scoped to this deal's tag, so a party on
  // a shared CBC chain is woken only by its own deal's startDeal/vote
  // receipts, not by every deal's. The decisive
  // receipt of our deal (the vote that flips the log's outcome) always
  // carries our tag, so claim liveness is preserved.
  for (const auto& [pid, strategy] : parties_) {
    auto* raw = static_cast<CbcParty*>(strategy.get());
    cbc->Subscribe(world_->PartyEndpoint(PartyId{pid}), config_.deal_tag,
                   [raw](const Receipt& r) { raw->OnObservedCbcReceipt(r); });
  }

  SetupApprovals();
  SchedulePhases();
  if (factory_ != nullptr) factory_->OnDeployed(*this);
  return Status::OK();
}

void CbcRun::SchedulePhases() {
  // Clearing: the first party records startDeal.
  auto* starter =
      static_cast<CbcParty*>(parties_.at(spec_.parties.front().v).get());
  world_->scheduler().ScheduleAt(config_.start_deal_time,
                                 EventLabel::Timer(spec_.parties.front().v,
                                                   config_.deal_tag),
                                 [starter] { starter->OnStartDealPhase(); });

  for (const auto& [pid, strategy] : parties_) {
    auto* raw = static_cast<CbcParty*>(strategy.get());
    world_->scheduler().ScheduleAt(config_.escrow_time,
                                   EventLabel::Timer(pid, config_.deal_tag),
                                   [raw] { raw->OnEscrowPhase(); });
    world_->scheduler().ScheduleAt(deployment_.validation_time,
                                   EventLabel::Timer(pid, config_.deal_tag),
                                   [raw] {
      raw->OnValidatePhase();
      raw->OnVotePhase();
    });
    world_->scheduler().ScheduleAt(
        deployment_.vote_time + config_.abort_patience,
        EventLabel::Timer(pid, config_.deal_tag),
        [raw] { raw->OnAbortDeadline(); });
  }
  ScheduleTransferSteps();
  // Optional mid-deal validator reconfigurations — routed through the
  // service so its per-shard history (the source of decide-proof chains)
  // records them.
  for (size_t k = 0; k < config_.reconfigs_before_claim; ++k) {
    world_->scheduler().ScheduleAt(config_.reconfig_time + k,
                                   EventLabel::Internal(config_.deal_tag),
                                   [this] {
      reconfig_chain_.push_back(service_->Reconfigure(home_shard()));
    });
  }
}

std::vector<std::pair<ChainId, ContractId>> CbcRun::DeployedContracts()
    const {
  std::vector<std::pair<ChainId, ContractId>> deployed =
      DealRuntime::DeployedContracts();
  if (deployment_.cbc_log.valid()) {
    deployed.emplace_back(cbc_chain_, deployment_.cbc_log);
  }
  return deployed;
}

DealResult CbcRun::Collect() const {
  DealResult result;
  result.protocol = Protocol::kCbc;
  const Blockchain* cbc = world_->chain(cbc_chain_);
  const auto* log = cbc->As<CbcLogContract>(deployment_.cbc_log);
  if (log != nullptr) result.outcome = log->OutcomeOf(deployment_.deal_id);
  result.committed = result.outcome == kDealCommitted;
  result.aborted = result.outcome == kDealAborted;

  TallyEscrows(&result);
  const bool any_released = result.released_contracts > 0;
  const bool any_refunded = result.refunded_contracts > 0;
  result.atomic = !(any_released && any_refunded);
  result.mixed = !result.committed && !result.aborted && any_released &&
                 any_refunded;
  result.decision_open = deployment_.vote_time;

  // Phase gas + timing from the per-tag receipt index: O(this deal's own
  // receipts) per chain. On a shared CBC chain carrying 10^5 deals' votes
  // the old full scan was the quadratic hot path.
  std::set<uint32_t> deal_chains = {cbc_chain_.v};
  for (const AssetRef& asset : spec_.assets) deal_chains.insert(asset.chain.v);
  for (uint32_t c : deal_chains) {
    const Blockchain* chain = world_->chain(ChainId{c});
    if (chain == nullptr) continue;
    for (const Receipt& r : chain->TaggedReceipts(config_.deal_tag)) {
      if (!r.status.ok()) continue;
      if (r.tag == "escrow") result.gas_escrow += r.gas_used;
      if (r.tag == "transfer") result.gas_transfer += r.gas_used;
      if (r.tag == "cbc-vote" || r.tag == "cbc-start") {
        result.gas_vote += r.gas_used;
      }
      if (r.tag == "decide") {
        result.gas_decide += r.gas_used;
        result.sig_verifies += r.sig_verifies;
        result.settle_time = std::max(result.settle_time, r.included_at);
      }
    }
  }
  result.commit_phase_end = result.settle_time;  // last decide inclusion
  return result;
}

}  // namespace xdeal
