#include "core/checker.h"

#include <cassert>

namespace xdeal {

void DealVerdict::FillViolation() {
  std::string v;
  if (!safety_ok) v += "property1-safety ";
  if (!weak_liveness_ok) v += "property2-weak-liveness ";
  if (!strong_liveness_ok) v += "property3-strong-liveness ";
  if (!atomic) v += "atomicity ";
  if (!v.empty()) {
    v.pop_back();
    violation = v;
  }
}

uint64_t DealVerdict::OutcomeBits() const {
  return static_cast<uint64_t>(started) |
         static_cast<uint64_t>(committed) << 1 |
         static_cast<uint64_t>(aborted) << 2 |
         static_cast<uint64_t>(mixed) << 3 |
         static_cast<uint64_t>(all_settled) << 4 |
         static_cast<uint64_t>(atomic) << 5 |
         static_cast<uint64_t>(safety_ok) << 6 |
         static_cast<uint64_t>(weak_liveness_ok) << 7 |
         static_cast<uint64_t>(strong_liveness_ok) << 8 |
         static_cast<uint64_t>(tainted) << 9;
}

LedgerSnapshot LedgerSnapshot::Capture(const World& world,
                                       const DealSpec& spec) {
  LedgerSnapshot snap;
  snap.balances.resize(spec.NumAssets());
  snap.ticket_owners.resize(spec.NumAssets());
  for (uint32_t a = 0; a < spec.NumAssets(); ++a) {
    const AssetRef& asset = spec.assets[a];
    const Blockchain* chain = world.chain(asset.chain);
    if (chain == nullptr) continue;
    if (asset.kind == AssetKind::kFungible) {
      const auto* token = chain->As<FungibleToken>(asset.token);
      if (token == nullptr) continue;
      for (PartyId p : spec.parties) {
        snap.balances[a][p.v] = token->BalanceOf(Holder::Party(p));
      }
    } else {
      const auto* registry = chain->As<TicketRegistry>(asset.token);
      if (registry == nullptr) continue;
      for (const EscrowStep& e : spec.escrows) {
        if (e.asset != a) continue;
        Holder owner = registry->OwnerOf(e.value);
        if (owner.valid() && owner.is_party()) {
          snap.ticket_owners[a][e.value] = owner.party().v;
        }
      }
    }
  }
  return snap;
}

DealChecker::DealChecker(const World* world, DealSpec spec,
                         std::vector<ContractId> escrows, uint64_t deal_tag)
    : world_(world),
      spec_(std::move(spec)),
      escrows_(std::move(escrows)),
      deal_tag_(deal_tag) {
  assert(escrows_.size() == spec_.NumAssets());
}

void DealChecker::CaptureInitial() {
  initial_ = LedgerSnapshot::Capture(*world_, spec_);
  captured_ = true;
}

void DealChecker::MarkSharedParty(PartyId p) { shared_parties_.insert(p.v); }

const DealEscrowView* DealChecker::ViewOf(uint32_t asset) const {
  const Blockchain* chain = world_->chain(spec_.assets[asset].chain);
  if (chain == nullptr) return nullptr;
  return dynamic_cast<const DealEscrowView*>(chain->contract(escrows_[asset]));
}

bool DealChecker::ExecutedOutgoingTransfer(PartyId p, uint32_t asset) const {
  const Blockchain* chain = world_->chain(spec_.assets[asset].chain);
  if (chain == nullptr) return false;
  // Everything a deal submits to its own escrow contract carries the deal's
  // tag, so the (tag, contract) index sees exactly the receipts the old
  // full scan matched on `r.contract`.
  for (const Receipt& r :
       chain->ContractReceipts(deal_tag_, escrows_[asset])) {
    if (r.function == "transfer" && r.status.ok() && r.sender == p) {
      return true;
    }
  }
  return false;
}

PartyVerdict DealChecker::Evaluate(PartyId p) const {
  assert(captured_);
  PartyVerdict v;

  // --- outgoing transferred: some committed chain carries an executed
  //     outgoing tentative transfer of p ---
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const DealEscrowView* view = ViewOf(a);
    if (view == nullptr || !view->Released()) continue;
    if (ExecutedOutgoingTransfer(p, a)) {
      v.outgoing_transferred = true;
      break;
    }
  }

  // --- all incoming received ---
  std::vector<DealSpec::Expectation> expect = spec_.ExpectationsOf(p);
  v.all_incoming_received = true;
  for (uint32_t a : spec_.IncomingAssetsOf(p)) {
    const DealEscrowView* view = ViewOf(a);
    if (view == nullptr || !view->Released()) {
      v.all_incoming_received = false;
      break;
    }
    if (spec_.assets[a].kind == AssetKind::kFungible) {
      if (view->escrow_core().OnCommitOf(p) != expect[a].fungible_amount) {
        v.all_incoming_received = false;
        break;
      }
    } else {
      for (uint64_t ticket : expect[a].tickets) {
        if (!(view->escrow_core().NftCommitOwner(ticket) == p)) {
          v.all_incoming_received = false;
          break;
        }
      }
      if (!v.all_incoming_received) break;
    }
  }

  v.property1 = !v.outgoing_transferred || v.all_incoming_received;

  // --- weak liveness: every escrow p actually funded has settled ---
  v.weak_liveness = true;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const DealEscrowView* view = ViewOf(a);
    if (view == nullptr) continue;
    bool p_has_stake = view->escrow_core().EscrowedOf(p) > 0;
    if (p_has_stake && !view->Settled()) {
      v.weak_liveness = false;
      break;
    }
  }

  // --- token-level checks ---
  LedgerSnapshot now = LedgerSnapshot::Capture(*world_, spec_);
  std::vector<AssetOutcome> outcomes = spec_.ExpectedOutcomes();
  v.token_state_expected = true;
  v.token_state_unchanged = true;
  // Fungible state is accounted per (chain, token contract), not per asset
  // index: a deal may reference the same token as several assets (e.g. a
  // broker deal's buyer payment and broker float are both the pool coin),
  // but a party only has ONE balance there — so the expectations of all
  // asset indices sharing a token are summed before comparing.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<uint32_t>> fungible;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    if (spec_.assets[a].kind == AssetKind::kFungible) {
      fungible[{spec_.assets[a].chain.v, spec_.assets[a].token.v}]
          .push_back(a);
    } else {
      for (const auto& [ticket, commit_owner] : outcomes[a].nft_commit) {
        bool initially_ours = false;
        auto iti = initial_.ticket_owners[a].find(ticket);
        if (iti != initial_.ticket_owners[a].end()) {
          initially_ours = iti->second == p.v;
        }
        bool finally_ours = false;
        auto itf = now.ticket_owners[a].find(ticket);
        // Re-capture only tracks escrowed tickets; look up live owner.
        const auto* registry =
            world_->chain(spec_.assets[a].chain)
                ->As<TicketRegistry>(spec_.assets[a].token);
        if (registry != nullptr) {
          Holder owner = registry->OwnerOf(ticket);
          finally_ours = owner.is_party() && owner.party() == p;
        }
        (void)itf;
        bool should_own_on_commit = commit_owner == p;
        if (finally_ours != should_own_on_commit) {
          v.token_state_expected = false;
        }
        if (finally_ours != initially_ours) v.token_state_unchanged = false;
      }
    }
  }
  for (const auto& [token, asset_indices] : fungible) {
    (void)token;
    // Every asset index of the group snapshots the same ledger; read the
    // balance once and sum the per-asset expectations.
    uint32_t a0 = asset_indices.front();
    uint64_t initial = 0, final_bal = 0;
    auto iti = initial_.balances[a0].find(p.v);
    if (iti != initial_.balances[a0].end()) initial = iti->second;
    auto itf = now.balances[a0].find(p.v);
    if (itf != now.balances[a0].end()) final_bal = itf->second;

    uint64_t deposited = 0;
    uint64_t commit_share = 0;
    for (uint32_t a : asset_indices) {
      auto itd = outcomes[a].fungible_deposited.find(p);
      if (itd != outcomes[a].fungible_deposited.end()) {
        deposited += itd->second;
      }
      auto itc = outcomes[a].fungible_commit.find(p);
      if (itc != outcomes[a].fungible_commit.end()) {
        commit_share += itc->second;
      }
    }
    uint64_t expected_final = initial - deposited + commit_share;
    if (final_bal != expected_final) v.token_state_expected = false;
    if (final_bal != initial) v.token_state_unchanged = false;
  }
  return v;
}

bool DealChecker::SafetyHolds(const std::vector<PartyId>& compliant) const {
  for (PartyId p : compliant) {
    if (!Evaluate(p).property1) return false;
  }
  return true;
}

bool DealChecker::WeakLivenessHolds(
    const std::vector<PartyId>& compliant) const {
  for (PartyId p : compliant) {
    if (!Evaluate(p).weak_liveness) return false;
  }
  return true;
}

bool DealChecker::StrongLivenessHolds() const {
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const DealEscrowView* view = ViewOf(a);
    if (view == nullptr || !view->Released()) return false;
  }
  for (PartyId p : spec_.parties) {
    // A shared party's balances fold every concurrent deal it touches;
    // its per-deal token expectation is undefined (the cross-deal
    // portfolio check owns its solvency instead).
    if (shared_parties_.count(p.v) > 0) continue;
    if (!Evaluate(p).token_state_expected) return false;
  }
  return true;
}

bool DealChecker::Atomic() const {
  bool any_released = false, any_refunded = false;
  for (uint32_t a = 0; a < spec_.NumAssets(); ++a) {
    const DealEscrowView* view = ViewOf(a);
    if (view == nullptr) continue;
    any_released = any_released || view->Released();
    any_refunded = any_refunded || view->Refunded();
  }
  return !(any_released && any_refunded);
}

}  // namespace xdeal
