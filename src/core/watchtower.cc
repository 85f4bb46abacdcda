#include "core/watchtower.h"

namespace xdeal {

Watchtower::Watchtower(World* world, const DealSpec& spec,
                       const TimelockDeployment& deployment,
                       PartyId operator_id, std::vector<PartyId> clients,
                       uint64_t deal_tag)
    : world_(world),
      spec_(spec),
      deployment_(deployment),
      operator_id_(operator_id),
      clients_(std::move(clients)),
      deal_tag_(deal_tag) {}

TimelockEscrowContract* Watchtower::EscrowOfAsset(uint32_t asset) const {
  return world_->chain(spec_.assets[asset].chain)
      ->As<TimelockEscrowContract>(deployment_.escrow_contracts[asset]);
}

void Watchtower::Arm() {
  std::set<ChainId> chains;
  for (const AssetRef& asset : spec_.assets) chains.insert(asset.chain);
  for (ChainId c : chains) {
    // Scoped to the guarded deal's tag: the tower only relays this deal's
    // votes, so it is woken only by them.
    world_->chain(c)->Subscribe(
        world_->PartyEndpoint(operator_id_), deal_tag_,
        [this](const Receipt& r) { OnObservedReceipt(r); });
  }
  world_->scheduler().ScheduleAt(deployment_.info.RefundTime() + 1,
                                 EventLabel::Internal(deal_tag_),
                                 [this] { OnRefundWatch(); });
}

void Watchtower::Crash() {
  crashed_ = true;
  // A killed process loses its in-memory dedup state; everything else the
  // tower knows is re-derivable from public contract state.
  relayed_votes_.clear();
}

void Watchtower::Recover() {
  if (!crashed_) return;
  crashed_ = false;
  // Catch up from on-chain evidence: every accepted vote is public contract
  // state, so scan each escrow and relay whatever the tower missed while
  // down. Votes already accepted on the target are skipped (HasVoted), so
  // recovery costs gas only for genuinely missing relays.
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    RelayMissingVotes(a);
  }
  // If the refund deadline passed while the tower was down, run the watch
  // now; claimRefund is callable by anyone and idempotent per contract.
  if (world_->now() > deployment_.info.RefundTime()) OnRefundWatch();
}

void Watchtower::OnObservedReceipt(const Receipt& receipt) {
  if (crashed_) return;
  if (receipt.function != "commit" || !receipt.status.ok()) return;
  // Find the asset this receipt's contract backs.
  uint32_t observed = kInvalidId;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    if (spec_.assets[a].chain == receipt.chain &&
        deployment_.escrow_contracts[a] == receipt.contract) {
      observed = a;
      break;
    }
  }
  if (observed == kInvalidId) return;
  RelayMissingVotes(observed);
}

void Watchtower::RelayMissingVotes(uint32_t observed) {
  const TimelockEscrowContract* source = EscrowOfAsset(observed);
  if (source == nullptr) return;

  // Relay every accepted vote, verbatim, to every other contract that has
  // not yet accepted a vote from that voter. The path signature and its
  // deadline are unchanged — the watchtower's value is pure speed.
  for (const auto& [voter_id, vote] : source->accepted_votes()) {
    for (uint32_t b = 0; b < spec_.NumAssets(); ++b) {
      if (b == observed) continue;
      const TimelockEscrowContract* target = EscrowOfAsset(b);
      if (target == nullptr || target->Settled()) continue;
      if (target->HasVoted(PartyId{voter_id})) continue;
      if (!relayed_votes_.insert({b, voter_id}).second) continue;
      ByteWriter w;
      w.Raw(deployment_.info.deal_id.bytes.data(), 32);
      vote.AppendTo(&w);
      world_->Submit(operator_id_, spec_.assets[b].chain,
                     deployment_.escrow_contracts[b],
                     CallData{"commit", w.Take()}, "watchtower", deal_tag_);
      ++relayed_;
    }
  }
}

void Watchtower::OnRefundWatch() {
  if (crashed_) return;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const TimelockEscrowContract* esc = EscrowOfAsset(a);
    if (esc == nullptr || esc->Settled()) continue;
    // Refund on behalf of any client with a deposit here.
    bool client_stake = false;
    for (PartyId client : clients_) {
      client_stake = client_stake || esc->escrow_core().EscrowedOf(client) > 0;
    }
    if (!client_stake) continue;
    ByteWriter w;
    w.Raw(deployment_.info.deal_id.bytes.data(), 32);
    world_->Submit(operator_id_, spec_.assets[a].chain,
                   deployment_.escrow_contracts[a],
                   CallData{"claimRefund", w.Take()}, "watchtower",
                   deal_tag_);
  }
}

}  // namespace xdeal
