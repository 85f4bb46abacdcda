#include "contracts/bond.h"

#include <algorithm>

#include "chain/blockchain.h"

namespace xdeal {

const TimelockEscrowContract* FirstFaultBondContract::Escrow(
    const CallContext& ctx) const {
  return ctx.chain->As<TimelockEscrowContract>(escrow_);
}

Result<Bytes> FirstFaultBondContract::Invoke(CallContext& ctx,
                                             const std::string& fn,
                                             ByteReader& /*args*/) {
  Status st;
  if (fn == "deposit") {
    st = HandleDeposit(ctx);
  } else if (fn == "claim") {
    st = HandleClaim(ctx);
  } else {
    st = Status::NotFound("FirstFaultBond: unknown function " + fn);
  }
  if (!st.ok()) return st;
  return Bytes{};
}

Status FirstFaultBondContract::HandleDeposit(CallContext& ctx) {
  if (std::find(plist_.begin(), plist_.end(), ctx.sender) == plist_.end()) {
    return Status::PermissionDenied("bond: sender not in plist");
  }
  if (deposited_.count(ctx.sender) > 0) {
    return Status::AlreadyExists("bond: already deposited");
  }
  auto* token = ctx.chain->As<FungibleToken>(bond_token_);
  if (token == nullptr) return Status::Internal("bond: token missing");
  Holder self = Holder::OfContract(self_id());
  XDEAL_RETURN_IF_ERROR(token->TransferFrom(
      ctx, self, Holder::Party(ctx.sender), self, bond_amount_));
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  deposited_[ctx.sender] = true;
  return Status::OK();
}

uint64_t FirstFaultBondContract::PayoutOf(const CallContext& ctx,
                                          PartyId p) const {
  const TimelockEscrowContract* escrow = Escrow(ctx);
  if (escrow == nullptr || !escrow->Settled()) return 0;
  if (deposited_.count(p) == 0) return 0;

  if (escrow->Released()) return bond_amount_;  // deal committed: full refund

  // Deal timed out here: blame the depositors whose votes never arrived.
  std::vector<PartyId> innocent, guilty;
  for (const auto& [party, unused] : deposited_) {
    (void)unused;
    if (escrow->HasVoted(party)) {
      innocent.push_back(party);
    } else {
      guilty.push_back(party);
    }
  }
  if (innocent.empty()) return bond_amount_;  // nobody voted: no first fault
  if (escrow->HasVoted(p)) {
    uint64_t forfeited = guilty.size() * bond_amount_;
    return bond_amount_ + forfeited / innocent.size();
  }
  return 0;  // p caused (or co-caused) the failure: bond forfeited
}

Status FirstFaultBondContract::HandleClaim(CallContext& ctx) {
  const TimelockEscrowContract* escrow = Escrow(ctx);
  if (escrow == nullptr || !escrow->Settled()) {
    return Status::FailedPrecondition("bond: deal not settled yet");
  }
  if (deposited_.count(ctx.sender) == 0) {
    return Status::NotFound("bond: no deposit from sender");
  }
  if (claimed_.count(ctx.sender) > 0) {
    return Status::AlreadyExists("bond: already claimed");
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageRead(2));
  uint64_t payout = PayoutOf(ctx, ctx.sender);
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  claimed_[ctx.sender] = true;
  if (payout == 0) return Status::OK();  // forfeited; claim records that
  auto* token = ctx.chain->As<FungibleToken>(bond_token_);
  if (token == nullptr) return Status::Internal("bond: token missing");
  Holder self = Holder::OfContract(self_id());
  return token->Transfer(ctx, self, self, Holder::Party(ctx.sender), payout);
}

}  // namespace xdeal
