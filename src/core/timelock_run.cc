#include "core/timelock_run.h"

namespace xdeal {

// ---------------------------------------------------------------------------
// TimelockParty (compliant behaviour)
// ---------------------------------------------------------------------------

TimelockRun& TimelockParty::run() const {
  return static_cast<TimelockRun&>(*runtime_);
}
const TimelockDeployment& TimelockParty::deployment() const {
  return run().deployment();
}
const TimelockConfig& TimelockParty::config() const { return run().config(); }

TimelockEscrowContract* TimelockParty::EscrowOfAsset(uint32_t asset) const {
  return world()
      .chain(spec().assets[asset].chain)
      ->As<TimelockEscrowContract>(deployment().escrow_contracts[asset]);
}

void TimelockParty::SubmitEscrow(const EscrowStep& step) {
  const DealInfo& info = deployment().info;
  ByteWriter w;
  w.Raw(info.deal_id.bytes.data(), 32);
  w.U32(static_cast<uint32_t>(info.plist.size()));
  for (PartyId p : info.plist) w.U32(p.v);
  w.U64(info.t0);
  w.U64(info.delta);
  w.U64(step.value);
  world().Submit(self_, spec().assets[step.asset].chain,
                 deployment().escrow_contracts[step.asset],
                 CallData{"escrow", w.Take()}, "escrow", config().deal_tag);
}

PathVote TimelockParty::MakeOwnVote() const {
  const KeyPair& keys = world().KeyPairOf(self_);
  PathVote vote;
  vote.voter = self_;
  vote.path.emplace_back(
      self_, keys.Sign(TimelockVoteMessage(deployment().info.deal_id, self_,
                                           /*depth=*/0)));
  return vote;
}

PathVote TimelockParty::ExtendVote(const PathVote& vote) const {
  const KeyPair& keys = world().KeyPairOf(self_);
  PathVote extended = vote;
  extended.path.emplace_back(
      self_, keys.Sign(TimelockVoteMessage(
                 deployment().info.deal_id, vote.voter,
                 static_cast<uint32_t>(vote.path.size()))));
  return extended;
}

void TimelockParty::SubmitVote(uint32_t asset, const PathVote& vote) {
  if (!sent_votes_.insert({asset, vote.voter.v}).second) return;
  ByteWriter w;
  w.Raw(deployment().info.deal_id.bytes.data(), 32);
  vote.AppendTo(&w);
  world().Submit(self_, spec().assets[asset].chain,
                 deployment().escrow_contracts[asset],
                 CallData{"commit", w.Take()}, "commit", config().deal_tag);
}

bool TimelockParty::EscrowIsForThisDeal(uint32_t asset) const {
  const TimelockEscrowContract* esc = EscrowOfAsset(asset);
  return esc != nullptr && esc->initialized() &&
         esc->deal() == deployment().info;
}

void TimelockParty::OnEscrowPhase() {
  for (const EscrowStep& step : spec().escrows) {
    if (step.party == self_) SubmitEscrow(step);
  }
}

void TimelockParty::OnCommitPhase() {
  if (!satisfied_) return;  // validation failed: simply never vote (§5)
  PathVote own = MakeOwnVote();
  if (config().direct_votes) {
    // Altruistic: vote on every asset's chain directly.
    for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
      SubmitVote(a, own);
    }
    return;
  }
  // Incentive-minimal: vote only where we are to be paid.
  for (uint32_t a : spec().IncomingAssetsOf(self_)) {
    SubmitVote(a, own);
  }
}

void TimelockParty::OnObservedReceipt(const Receipt& receipt) {
  if (receipt.function != "commit" || !receipt.status.ok()) return;
  // Locate the asset whose escrow contract this receipt touched.
  const DealSpec& s = spec();
  uint32_t observed_asset = kInvalidId;
  for (uint32_t a = 0; a < s.NumAssets(); ++a) {
    if (s.assets[a].chain == receipt.chain &&
        deployment().escrow_contracts[a] == receipt.contract) {
      observed_asset = a;
      break;
    }
  }
  if (observed_asset == kInvalidId) return;
  // Only votes on our outgoing assets' chains interest us (we monitor those
  // and are motivated to forward to where we get paid).
  std::set<uint32_t> outgoing = s.OutgoingAssetsOf(self_);
  if (outgoing.count(observed_asset) == 0) return;

  const TimelockEscrowContract* esc = EscrowOfAsset(observed_asset);
  if (esc == nullptr) return;
  std::set<uint32_t> incoming = s.IncomingAssetsOf(self_);
  for (const auto& [voter_id, vote] : esc->accepted_votes()) {
    if (vote.voter == self_) continue;  // our own vote traveled already
    // We cannot extend a path we already appear in (unique-signer rule).
    bool in_path = false;
    for (const auto& [signer, sig] : vote.path) {
      in_path = in_path || signer == self_;
    }
    if (in_path) continue;
    for (uint32_t b : incoming) {
      if (b == observed_asset) continue;
      const TimelockEscrowContract* target = EscrowOfAsset(b);
      if (target != nullptr && target->HasVoted(vote.voter)) continue;
      SubmitVote(b, ExtendVote(vote));
    }
  }
}

void TimelockParty::OnRefundWatch() {
  for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
    if (!spec().Deposits(self_, a)) continue;
    const TimelockEscrowContract* esc = EscrowOfAsset(a);
    if (esc == nullptr || esc->Settled()) continue;
    ByteWriter w;
    w.Raw(deployment().info.deal_id.bytes.data(), 32);
    world().Submit(self_, spec().assets[a].chain,
                   deployment().escrow_contracts[a],
                   CallData{"claimRefund", w.Take()}, "refund",
                   config().deal_tag);
  }
}

// ---------------------------------------------------------------------------
// TimelockRun
// ---------------------------------------------------------------------------

TimelockRun::TimelockRun(World* world, DealSpec spec, TimelockConfig config,
                         PartyFactory* factory)
    : DealRuntime(world, std::move(spec), factory), config_(config) {
  AddParties(&PartyFactory::MakeTimelockParty);
}

Status TimelockRun::Deploy() {
  XDEAL_RETURN_IF_ERROR(spec_.Validate());

  // Clearing phase: fix the schedule and broadcast DealInfo (the
  // market-clearing service, §4.1 — centralized but untrusted; every party
  // independently re-checks everything against it).
  Tick validation_time = config_.ValidationTime(spec_.transfers.size());
  deployment_.info.deal_id = spec_.deal_id;
  deployment_.info.plist = spec_.parties;
  deployment_.info.t0 = validation_time;
  deployment_.info.delta = config_.delta;
  deployment_.validation_time = validation_time;

  XDEAL_RETURN_IF_ERROR(
      DeployEscrows<TimelockEscrowContract>(&deployment_.escrow_contracts));

  // Wire observation: each party subscribes to every chain hosting one of
  // its outgoing assets (and, for simplicity, incoming too — parties may
  // watch any public chain; strategies filter). The subscription is scoped
  // to this deal's tag, so a party is only woken for its own deal's
  // receipts instead of every receipt on a shared chain.
  for (const auto& [pid, strategy] : parties_) {
    std::set<ChainId> chains;
    for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
      chains.insert(spec_.assets[a].chain);
    }
    for (ChainId c : chains) {
      auto* raw = static_cast<TimelockParty*>(strategy.get());
      world_->chain(c)->Subscribe(
          world_->PartyEndpoint(PartyId{pid}), config_.deal_tag,
          [raw](const Receipt& r) { raw->OnObservedReceipt(r); });
    }
  }

  SetupApprovals();
  SchedulePhases();
  if (factory_ != nullptr) factory_->OnDeployed(*this);
  return Status::OK();
}

void TimelockRun::SchedulePhases() {
  // Escrow phase.
  for (const auto& [pid, strategy] : parties_) {
    auto* raw = static_cast<TimelockParty*>(strategy.get());
    world_->scheduler().ScheduleAt(config_.escrow_time,
                                   EventLabel::Timer(pid, config_.deal_tag),
                                   [raw] { raw->OnEscrowPhase(); });
  }
  ScheduleTransferSteps();
  // Validation + commit phases.
  for (const auto& [pid, strategy] : parties_) {
    auto* raw = static_cast<TimelockParty*>(strategy.get());
    world_->scheduler().ScheduleAt(deployment_.validation_time,
                                   EventLabel::Timer(pid, config_.deal_tag),
                                   [raw] {
      raw->OnValidatePhase();
      raw->OnCommitPhase();
    });
  }
  // Refund watchdogs.
  Tick watch = deployment_.info.RefundTime() + config_.refund_margin;
  for (const auto& [pid, strategy] : parties_) {
    auto* raw = static_cast<TimelockParty*>(strategy.get());
    world_->scheduler().ScheduleAt(watch,
                                   EventLabel::Timer(pid, config_.deal_tag),
                                   [raw] { raw->OnRefundWatch(); });
  }
}

DealResult TimelockRun::Collect() const {
  DealResult result;
  result.protocol = Protocol::kTimelock;
  TallyEscrows(&result);
  result.committed = result.released_contracts == spec_.NumAssets();
  result.aborted = result.released_contracts == 0;
  result.mixed = !result.committed && !result.aborted;
  result.outcome =
      result.committed
          ? kDealCommitted
          : (result.aborted && result.all_settled ? kDealAborted
                                                  : kDealActive);
  result.decision_open = deployment_.info.t0;
  // Phase gas + timing from the per-tag receipt index: O(this deal's own
  // receipts) per chain, regardless of how many other deals share them.
  std::set<uint32_t> deal_chains;
  for (const AssetRef& asset : spec_.assets) deal_chains.insert(asset.chain.v);
  for (uint32_t c : deal_chains) {
    const Blockchain* chain = world_->chain(ChainId{c});
    if (chain == nullptr) continue;
    for (const Receipt& r : chain->TaggedReceipts(config_.deal_tag)) {
      if (!r.status.ok()) continue;
      if (r.tag == "escrow") result.gas_escrow += r.gas_used;
      if (r.tag == "transfer") result.gas_transfer += r.gas_used;
      if (r.tag == "commit") {
        result.gas_vote += r.gas_used;
        result.sig_verifies += r.sig_verifies;
        result.commit_phase_end =
            std::max(result.commit_phase_end, r.included_at);
      }
      if (r.tag == "refund") result.gas_refund += r.gas_used;
      if (r.tag == "commit" || r.tag == "refund") {
        result.settle_time = std::max(result.settle_time, r.included_at);
      }
    }
  }
  return result;
}

}  // namespace xdeal
