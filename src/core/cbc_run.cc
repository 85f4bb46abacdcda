#include "core/cbc_run.h"

#include <cassert>

namespace xdeal {

// ---------------------------------------------------------------------------
// CbcParty (compliant behaviour)
// ---------------------------------------------------------------------------

World& CbcParty::world() { return run_->world(); }
const DealSpec& CbcParty::spec() const { return run_->spec(); }
const CbcDeployment& CbcParty::deployment() const {
  return run_->deployment();
}

const CbcLogContract* CbcParty::Log() const {
  return run_->world()
      .chain(run_->deployment().cbc_chain)
      ->As<CbcLogContract>(run_->deployment().cbc_log);
}

CbcEscrowContract* CbcParty::EscrowOfAsset(uint32_t asset) const {
  return run_->world()
      .chain(run_->spec().assets[asset].chain)
      ->As<CbcEscrowContract>(run_->deployment().escrow_contracts[asset]);
}

void CbcParty::SubmitStartDeal() {
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.U32(static_cast<uint32_t>(spec().parties.size()));
  for (PartyId p : spec().parties) w.U32(p.v);
  world().Submit(self_, deployment().cbc_chain, deployment().cbc_log,
                 CallData{"startDeal", w.Take()}, "cbc-start",
                 run_->config().deal_tag);
}

void CbcParty::SubmitEscrow(const EscrowStep& step) {
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.U32(static_cast<uint32_t>(spec().parties.size()));
  for (PartyId p : spec().parties) w.U32(p.v);
  w.Raw(start_hash_.bytes.data(), 32);
  const auto& validators = run_->escrow_validators();
  w.U32(static_cast<uint32_t>(validators.size()));
  for (const PublicKey& v : validators) w.Raw(v.Serialize());
  w.U32(run_->escrow_epoch());
  w.U64(step.value);
  // Bind the escrow to the deal's home shard: decide proofs replayed from
  // any other shard are rejected before signature verification.
  w.U32(static_cast<uint32_t>(run_->home_shard()));
  world().Submit(self_, spec().assets[step.asset].chain,
                 deployment().escrow_contracts[step.asset],
                 CallData{"escrow", w.Take()}, "escrow",
                 run_->config().deal_tag);
}

void CbcParty::SubmitTransfer(const TransferStep& step) {
  ByteWriter w;
  w.Raw(deployment().deal_id.bytes.data(), 32);
  w.U32(step.to.v);
  w.U64(step.value);
  world().Submit(self_, spec().assets[step.asset].chain,
                 deployment().escrow_contracts[step.asset],
                 CallData{"transfer", w.Take()}, "transfer",
                 run_->config().deal_tag);
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
                 run_->config().deal_tag);
  if (abort) {
    voted_abort_ = true;
  } else {
    voted_commit_ = true;
  }
}

void CbcParty::SubmitDecide(uint32_t asset, const CbcProof& proof) {
  DecideProof dp;
  dp.shard = static_cast<uint32_t>(run_->home_shard());
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
                 run_->config().deal_tag);
  // Under pre-GST asynchrony our own escrow into this asset can still be in
  // flight. A decide that lands first is rejected ("unknown deal"), and once
  // the deposit lands nobody would decide again, so decide once more after
  // it does. A deposit already on chain precedes this decide: no retry.
  if (escrowed_ && spec().Deposits(self_, asset) && !OwnEscrowLanded(asset)) {
    RetryDecideAfterOwnEscrow(asset);
  }
}

bool CbcParty::OwnEscrowLanded(uint32_t asset) const {
  const Blockchain* chain = run_->world().chain(spec().assets[asset].chain);
  for (const Receipt& r : chain->ContractReceipts(
           run_->config().deal_tag, deployment().escrow_contracts[asset])) {
    if (r.sender == self_ && r.function == "escrow") return true;
  }
  return false;
}

void CbcParty::RetryDecideAfterOwnEscrow(uint32_t asset) {
  world().scheduler().ScheduleAfter(
      run_->config().delta, EventLabel::Timer(self_.v), [this, asset] {
        const CbcEscrowContract* esc = EscrowOfAsset(asset);
        if (esc == nullptr || esc->settled()) return;
        if (!OwnEscrowLanded(asset)) {
          RetryDecideAfterOwnEscrow(asset);
          return;
        }
        decided_assets_.erase(asset);
        ClaimAll(Log()->OutcomeOf(deployment().deal_id));
      });
}

bool CbcParty::RunValidationChecks() const {
  if (!start_hash_known_) return false;
  const DealSpec& s = spec();
  std::vector<DealSpec::Expectation> expect = s.ExpectationsOf(self_);
  for (uint32_t a : s.IncomingAssetsOf(self_)) {
    const CbcEscrowContract* esc = EscrowOfAsset(a);
    if (esc == nullptr || !esc->initialized()) return false;
    if (!(esc->deal_id() == deployment().deal_id)) return false;
    if (!(esc->start_hash() == start_hash_)) return false;
    // "they must check their correctness before voting to commit" — the
    // pinned validators must match the CBC's real validator set.
    const auto& pinned = esc->validators();
    const auto& real = run_->escrow_validators();
    if (pinned.size() != real.size()) return false;
    for (size_t i = 0; i < pinned.size(); ++i) {
      if (!(pinned[i] == real[i])) return false;
    }
    const AssetRef& asset = s.assets[a];
    Blockchain* chain = run_->world().chain(asset.chain);
    Holder escrow_holder = Holder::OfContract(esc->self_id());
    if (asset.kind == AssetKind::kFungible) {
      if (esc->core().OnCommitOf(self_) != expect[a].fungible_amount) {
        return false;
      }
      const auto* token = chain->As<FungibleToken>(asset.token);
      if (token == nullptr ||
          token->BalanceOf(escrow_holder) < expect[a].fungible_amount) {
        return false;
      }
    } else {
      const auto* registry = chain->As<TicketRegistry>(asset.token);
      if (registry == nullptr) return false;
      for (uint64_t ticket : expect[a].tickets) {
        if (!(esc->core().NftCommitOwner(ticket) == self_)) return false;
        if (!(registry->OwnerOf(ticket) == escrow_holder)) return false;
      }
    }
  }
  return true;
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
      if (esc != nullptr && !esc->settled()) todo.push_back(a);
    }
  } else {
    // Motivated to recover deposits.
    for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
      if (decided_assets_.count(a) > 0 || !spec().Deposits(self_, a)) {
        continue;
      }
      const CbcEscrowContract* esc = EscrowOfAsset(a);
      if (esc != nullptr && !esc->settled()) todo.push_back(a);
    }
  }
  if (todo.empty()) return;

  // The proof: reconfig chain from the epoch our escrows pinned (the
  // service records every rotation, including ones scheduled outside this
  // run) + a fresh status certificate from the current validator set,
  // stamped with the home shard so escrows on other shards accept it.
  DecideProof proof = run_->service().IssueDecideProof(
      *Log(), deployment().deal_id, run_->escrow_epoch());
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

void CbcParty::OnTransferStep(size_t step_index) {
  const TransferStep& step = spec().transfers[step_index];
  if (step.from == self_) SubmitTransfer(step);
}

void CbcParty::OnValidatePhase() { satisfied_ = RunValidationChecks(); }

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
      if (world().now() >= run_->config().escrow_time && !escrowed_ &&
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
    : world_(world),
      spec_(std::move(spec)),
      config_(config),
      service_(service),
      factory_(factory) {
  std::vector<ChainId> asset_chains;
  asset_chains.reserve(spec_.assets.size());
  for (const AssetRef& asset : spec_.assets) {
    asset_chains.push_back(asset.chain);
  }
  placement_ = service->PlaceAssets(spec_.deal_id, asset_chains);
  cbc_chain_ = service->chain(placement_.home_shard);
  validators_ = &service->validators(placement_.home_shard);
  for (PartyId p : spec_.parties) {
    std::unique_ptr<CbcParty> strategy;
    if (factory_ != nullptr) strategy = factory_->MakeCbcParty(p);
    if (!strategy) strategy = std::make_unique<CbcParty>();
    strategy->run_ = this;
    strategy->self_ = p;
    parties_[p.v] = std::move(strategy);
  }
}

CbcParty* CbcRun::party(PartyId p) {
  auto it = parties_.find(p.v);
  return it == parties_.end() ? nullptr : it->second.get();
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

  for (const AssetRef& asset : spec_.assets) {
    Blockchain* chain = world_->chain(asset.chain);
    if (chain == nullptr) return Status::NotFound("asset chain missing");
    deployment_.escrow_contracts.push_back(chain->Deploy(
        std::make_unique<CbcEscrowContract>(asset.kind, asset.token)));
  }

  deployment_.validation_time =
      config_.ValidationTime(spec_.transfers.size());
  deployment_.vote_time = deployment_.validation_time;

  // Every party watches the CBC — scoped to this deal's tag, so a party on
  // a shared CBC chain is woken only by its own deal's startDeal/vote
  // receipts, not by every deal's. The decisive
  // receipt of our deal (the vote that flips the log's outcome) always
  // carries our tag, so claim liveness is preserved.
  for (const auto& [pid, strategy] : parties_) {
    CbcParty* raw = strategy.get();
    cbc->Subscribe(world_->PartyEndpoint(PartyId{pid}), config_.deal_tag,
                   [raw](const Receipt& r) { raw->OnObservedCbcReceipt(r); });
  }

  SetupApprovals();
  SchedulePhases();
  if (factory_ != nullptr) factory_->OnDeployed(*this);
  return Status::OK();
}

void CbcRun::SetupApprovals() {
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> fungible_totals;
  for (const EscrowStep& e : spec_.escrows) {
    const AssetRef& asset = spec_.assets[e.asset];
    Holder spender = Holder::OfContract(deployment_.escrow_contracts[e.asset]);
    if (asset.kind == AssetKind::kFungible) {
      fungible_totals[{e.asset, e.party.v}] += e.value;
    } else {
      ByteWriter w;
      w.U64(e.value);
      w.U8(static_cast<uint8_t>(spender.kind));
      w.U32(spender.id);
      world_->scheduler().ScheduleAt(
          config_.setup_time, EventLabel::Timer(e.party.v),
          [this, e, args = w.Take()]() mutable {
            world_->Submit(e.party, spec_.assets[e.asset].chain,
                           spec_.assets[e.asset].token,
                           CallData{"approve", std::move(args)}, "setup",
                           config_.deal_tag);
          });
    }
  }
  for (const auto& [key, total] : fungible_totals) {
    auto [asset_index, party_id] = key;
    Holder spender =
        Holder::OfContract(deployment_.escrow_contracts[asset_index]);
    ByteWriter w;
    w.U8(static_cast<uint8_t>(spender.kind));
    w.U32(spender.id);
    w.U64(total);
    uint32_t asset_copy = asset_index;
    uint32_t party_copy = party_id;
    world_->scheduler().ScheduleAt(
        config_.setup_time, EventLabel::Timer(party_copy),
        [this, asset_copy, party_copy, args = w.Take()]() mutable {
          world_->Submit(PartyId{party_copy}, spec_.assets[asset_copy].chain,
                         spec_.assets[asset_copy].token,
                         CallData{"approve", std::move(args)}, "setup",
                         config_.deal_tag);
        });
  }
}

void CbcRun::SchedulePhases() {
  // Clearing: the first party records startDeal.
  CbcParty* starter = parties_.at(spec_.parties.front().v).get();
  world_->scheduler().ScheduleAt(config_.start_deal_time,
                                 EventLabel::Timer(spec_.parties.front().v),
                                 [starter] { starter->OnStartDealPhase(); });

  for (const auto& [pid, strategy] : parties_) {
    CbcParty* raw = strategy.get();
    world_->scheduler().ScheduleAt(config_.escrow_time, EventLabel::Timer(pid),
                                   [raw] { raw->OnEscrowPhase(); });
    world_->scheduler().ScheduleAt(deployment_.validation_time,
                                   EventLabel::Timer(pid), [raw] {
      raw->OnValidatePhase();
      raw->OnVotePhase();
    });
    world_->scheduler().ScheduleAt(
        deployment_.vote_time + config_.abort_patience, EventLabel::Timer(pid),
        [raw] { raw->OnAbortDeadline(); });
  }
  for (size_t i = 0; i < spec_.transfers.size(); ++i) {
    Tick when = config_.transfer_start +
                (config_.parallel_transfers
                     ? 0
                     : static_cast<Tick>(i) * config_.step_gap);
    CbcParty* actor = parties_.at(spec_.transfers[i].from.v).get();
    world_->scheduler().ScheduleAt(when,
                                   EventLabel::Timer(spec_.transfers[i].from.v),
                                   [actor, i] { actor->OnTransferStep(i); });
  }
  // Optional mid-deal validator reconfigurations — routed through the
  // service so its per-shard history (the source of decide-proof chains)
  // records them.
  for (size_t k = 0; k < config_.reconfigs_before_claim; ++k) {
    world_->scheduler().ScheduleAt(config_.reconfig_time + k, [this] {
      reconfig_chain_.push_back(service_->Reconfigure(home_shard()));
    });
  }
}

DealResult CbcRun::Collect() const {
  DealResult result;
  result.protocol = Protocol::kCbc;
  const Blockchain* cbc = world_->chain(cbc_chain_);
  const auto* log = cbc->As<CbcLogContract>(deployment_.cbc_log);
  if (log != nullptr) result.outcome = log->OutcomeOf(deployment_.deal_id);
  result.committed = result.outcome == kDealCommitted;
  result.aborted = result.outcome == kDealAborted;

  result.all_settled = true;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const Blockchain* chain = world_->chain(spec_.assets[a].chain);
    const auto* esc =
        chain->As<CbcEscrowContract>(deployment_.escrow_contracts[a]);
    if (esc == nullptr) continue;
    if (esc->Released()) ++result.released_contracts;
    if (esc->Refunded()) ++result.refunded_contracts;
    // A contract nobody deposited into is vacuously settled.
    bool vacuous = esc->core().Depositors().empty();
    result.all_settled = result.all_settled && (esc->settled() || vacuous);
  }
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
