#include "core/timelock_run.h"

#include <cassert>

namespace xdeal {

// ---------------------------------------------------------------------------
// TimelockParty (compliant behaviour)
// ---------------------------------------------------------------------------

World& TimelockParty::world() { return run_->world(); }
const DealSpec& TimelockParty::spec() const { return run_->spec(); }
const TimelockDeployment& TimelockParty::deployment() const {
  return run_->deployment();
}
const TimelockConfig& TimelockParty::config() const { return run_->config(); }

Blockchain* TimelockParty::ChainOfAsset(uint32_t asset) const {
  return run_->world().chain(run_->spec().assets[asset].chain);
}

TimelockEscrowContract* TimelockParty::EscrowOfAsset(uint32_t asset) const {
  return ChainOfAsset(asset)->As<TimelockEscrowContract>(
      run_->deployment().escrow_contracts[asset]);
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

void TimelockParty::SubmitTransfer(const TransferStep& step) {
  ByteWriter w;
  w.Raw(deployment().info.deal_id.bytes.data(), 32);
  w.U32(step.to.v);
  w.U64(step.value);
  world().Submit(self_, spec().assets[step.asset].chain,
                 deployment().escrow_contracts[step.asset],
                 CallData{"transfer", w.Take()}, "transfer",
                 config().deal_tag);
}

PathVote TimelockParty::MakeOwnVote() const {
  const KeyPair& keys = run_->world().KeyPairOf(self_);
  PathVote vote;
  vote.voter = self_;
  vote.path.emplace_back(
      self_, keys.Sign(TimelockVoteMessage(deployment().info.deal_id, self_,
                                           /*depth=*/0)));
  return vote;
}

PathVote TimelockParty::ExtendVote(const PathVote& vote) const {
  const KeyPair& keys = run_->world().KeyPairOf(self_);
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

bool TimelockParty::RunValidationChecks() const {
  const DealSpec& s = spec();
  std::vector<DealSpec::Expectation> expect = s.ExpectationsOf(self_);
  for (uint32_t a : s.IncomingAssetsOf(self_)) {
    const TimelockEscrowContract* esc = EscrowOfAsset(a);
    if (esc == nullptr || !esc->initialized()) return false;
    if (!(esc->deal() == deployment().info)) return false;
    const AssetRef& asset = s.assets[a];
    Blockchain* chain = run_->world().chain(asset.chain);
    Holder escrow_holder = Holder::OfContract(esc->self_id());
    if (asset.kind == AssetKind::kFungible) {
      if (esc->core().OnCommitOf(self_) != expect[a].fungible_amount) {
        return false;
      }
      // "properly escrowed (so they cannot be double-spent)": the escrow
      // contract must actually own the tokens backing our claim.
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

void TimelockParty::OnEscrowPhase() {
  for (const EscrowStep& step : spec().escrows) {
    if (step.party == self_) SubmitEscrow(step);
  }
}

void TimelockParty::OnTransferStep(size_t step_index) {
  const TransferStep& step = spec().transfers[step_index];
  if (step.from == self_) SubmitTransfer(step);
}

void TimelockParty::OnValidatePhase() {
  satisfied_ = RunValidationChecks();
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
    if (esc == nullptr || esc->settled()) continue;
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
    : world_(world),
      spec_(std::move(spec)),
      config_(config),
      factory_(factory) {
  for (PartyId p : spec_.parties) {
    std::unique_ptr<TimelockParty> strategy;
    if (factory_ != nullptr) strategy = factory_->MakeTimelockParty(p);
    if (!strategy) strategy = std::make_unique<TimelockParty>();
    strategy->run_ = this;
    strategy->self_ = p;
    parties_[p.v] = std::move(strategy);
  }
}

TimelockParty* TimelockRun::party(PartyId p) {
  auto it = parties_.find(p.v);
  return it == parties_.end() ? nullptr : it->second.get();
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

  // Deploy one escrow contract per asset on that asset's chain.
  deployment_.escrow_contracts.clear();
  for (const AssetRef& asset : spec_.assets) {
    Blockchain* chain = world_->chain(asset.chain);
    if (chain == nullptr) return Status::NotFound("asset chain missing");
    deployment_.escrow_contracts.push_back(chain->Deploy(
        std::make_unique<TimelockEscrowContract>(asset.kind, asset.token)));
  }

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
      TimelockParty* raw = strategy.get();
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

void TimelockRun::SetupApprovals() {
  // Each depositor approves the escrow contract to pull its outgoing assets.
  // Setup cost is not part of the paper's phase accounting (tag "setup").
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> fungible_totals;
  for (const EscrowStep& e : spec_.escrows) {
    const AssetRef& asset = spec_.assets[e.asset];
    Holder spender = Holder::OfContract(deployment_.escrow_contracts[e.asset]);
    if (asset.kind == AssetKind::kFungible) {
      fungible_totals[{e.asset, e.party.v}] += e.value;
    } else {
      ByteWriter w;
      w.U64(e.value);  // ticket id
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

void TimelockRun::SchedulePhases() {
  // Escrow phase.
  for (const auto& [pid, strategy] : parties_) {
    TimelockParty* raw = strategy.get();
    world_->scheduler().ScheduleAt(config_.escrow_time, EventLabel::Timer(pid),
                                   [raw] { raw->OnEscrowPhase(); });
  }
  // Transfer phase: sequential steps (or all at once).
  for (size_t i = 0; i < spec_.transfers.size(); ++i) {
    Tick when = config_.transfer_start +
                (config_.parallel_transfers
                     ? 0
                     : static_cast<Tick>(i) * config_.step_gap);
    TimelockParty* actor = parties_.at(spec_.transfers[i].from.v).get();
    world_->scheduler().ScheduleAt(when,
                                   EventLabel::Timer(spec_.transfers[i].from.v),
                                   [actor, i] { actor->OnTransferStep(i); });
  }
  // Validation + commit phases.
  for (const auto& [pid, strategy] : parties_) {
    TimelockParty* raw = strategy.get();
    world_->scheduler().ScheduleAt(deployment_.validation_time,
                                   EventLabel::Timer(pid), [raw] {
      raw->OnValidatePhase();
      raw->OnCommitPhase();
    });
  }
  // Refund watchdogs.
  Tick watch = deployment_.info.RefundTime() + config_.refund_margin;
  for (const auto& [pid, strategy] : parties_) {
    TimelockParty* raw = strategy.get();
    world_->scheduler().ScheduleAt(watch, EventLabel::Timer(pid),
                                   [raw] { raw->OnRefundWatch(); });
  }
}

DealResult TimelockRun::Collect() const {
  DealResult result;
  result.protocol = Protocol::kTimelock;
  result.all_settled = true;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const Blockchain* chain = world_->chain(spec_.assets[a].chain);
    const auto* esc = chain->As<TimelockEscrowContract>(
        deployment_.escrow_contracts[a]);
    if (esc == nullptr) continue;
    if (esc->released()) ++result.released_contracts;
    if (esc->refunded()) ++result.refunded_contracts;
    bool vacuous = esc->core().Depositors().empty();
    result.all_settled = result.all_settled && (esc->settled() || vacuous);
  }
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
