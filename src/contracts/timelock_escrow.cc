#include "contracts/timelock_escrow.h"

#include "chain/blockchain.h"
#include "chain/world.h"

namespace xdeal {

void PathVote::AppendTo(ByteWriter* w) const {
  w->U32(voter.v);
  w->U32(static_cast<uint32_t>(path.size()));
  for (const auto& [signer, sig] : path) {
    w->U32(signer.v);
    w->Raw(sig.Serialize());
  }
}

Result<PathVote> PathVote::Parse(ByteReader* r) {
  PathVote vote;
  auto voter = r->U32();
  if (!voter.ok()) return voter.status();
  vote.voter = PartyId{voter.value()};
  auto count = r->U32();
  if (!count.ok()) return count.status();
  if (count.value() == 0 || count.value() > 1024) {
    return Status::InvalidArgument("vote: bad path length");
  }
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto signer = r->U32();
    if (!signer.ok()) return signer.status();
    auto sig_bytes = r->Raw(64);
    if (!sig_bytes.ok()) return sig_bytes.status();
    auto sig = Signature::Deserialize(sig_bytes.value());
    if (!sig.ok()) return sig.status();
    vote.path.emplace_back(PartyId{signer.value()}, sig.value());
  }
  return vote;
}

namespace {

/// Reads a DealInfo from escrow-call arguments.
Result<DealInfo> ParseDealInfo(ByteReader& args) {
  DealInfo info;
  auto id_bytes = args.Raw(32);
  if (!id_bytes.ok()) return id_bytes.status();
  std::copy(id_bytes.value().begin(), id_bytes.value().end(),
            info.deal_id.bytes.begin());
  auto count = args.U32();
  if (!count.ok()) return count.status();
  if (count.value() == 0 || count.value() > 4096) {
    return Status::InvalidArgument("escrow: bad plist size");
  }
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto p = args.U32();
    if (!p.ok()) return p.status();
    info.plist.push_back(PartyId{p.value()});
  }
  auto t0 = args.U64();
  auto delta = args.U64();
  if (!t0.ok() || !delta.ok()) {
    return Status::InvalidArgument("escrow: bad timing args");
  }
  info.t0 = t0.value();
  info.delta = delta.value();
  return info;
}

Result<DealId> ParseDealId(ByteReader& args) {
  auto id_bytes = args.Raw(32);
  if (!id_bytes.ok()) return id_bytes.status();
  DealId id;
  std::copy(id_bytes.value().begin(), id_bytes.value().end(),
            id.bytes.begin());
  return id;
}

}  // namespace

Result<Bytes> TimelockEscrowContract::Invoke(CallContext& ctx,
                                             const std::string& fn,
                                             ByteReader& args) {
  Status st;
  if (fn == "escrow") {
    st = HandleEscrow(ctx, args);
  } else if (fn == "transfer") {
    st = HandleTransfer(ctx, args);
  } else if (fn == "commit") {
    st = HandleCommit(ctx, args);
  } else if (fn == "claimRefund") {
    st = HandleClaimRefund(ctx, args);
  } else {
    st = Status::NotFound("TimelockEscrow: unknown function " + fn);
  }
  if (!st.ok()) return st;
  return Bytes{};
}

Status TimelockEscrowContract::HandleEscrow(CallContext& ctx,
                                            ByteReader& args) {
  auto info = ParseDealInfo(args);
  if (!info.ok()) return info.status();
  auto value = args.U64();
  if (!value.ok()) return value.status();

  if (!initialized_) {
    // First escrow call fixes the deal parameters for this contract.
    XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
    deal_ = info.value();
    initialized_ = true;
  } else if (!(deal_ == info.value())) {
    return Status::FailedPrecondition("escrow: deal info mismatch");
  }
  if (!deal_.HasParty(ctx.sender)) {
    return Status::PermissionDenied("escrow: sender not in plist");
  }
  return core_.EscrowIn(ctx, Holder::OfContract(self_id()), ctx.sender,
                        value.value());
}

Status TimelockEscrowContract::HandleTransfer(CallContext& ctx,
                                              ByteReader& args) {
  auto deal_id = ParseDealId(args);
  if (!deal_id.ok()) return deal_id.status();
  auto to = args.U32();
  auto value = args.U64();
  if (!to.ok() || !value.ok()) {
    return Status::InvalidArgument("transfer: bad args");
  }
  if (!initialized_ || !(deal_.deal_id == deal_id.value())) {
    return Status::NotFound("transfer: unknown deal");
  }
  PartyId target{to.value()};
  if (!deal_.HasParty(target)) {
    return Status::PermissionDenied("transfer: target not in plist");
  }
  return core_.TentativeTransfer(ctx, ctx.sender, target, value.value());
}

Status TimelockEscrowContract::ValidateVote(CallContext& ctx,
                                            const PathVote& vote) {
  // Figure 5 line 6: not timed out (deadline scales with path length).
  if (ctx.now >= deal_.VoteDeadline(vote.path.size())) {
    return Status::TimedOut("commit: vote arrived past its path deadline");
  }
  // Line 7: legit voters only.
  if (!deal_.HasParty(vote.voter)) {
    return Status::PermissionDenied("commit: voter not in plist");
  }
  // Line 8: no duplicate votes.
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageRead());
  if (voted_.count(vote.voter) > 0) {
    return Status::AlreadyExists("commit: vote already accepted");
  }
  // Line 9: signers unique and in the plist; path starts at the voter.
  if (vote.path.empty() || vote.path.front().first != vote.voter) {
    return Status::InvalidArgument("commit: path must start with the voter");
  }
  std::set<PartyId> seen;
  for (const auto& [signer, sig] : vote.path) {
    if (!deal_.HasParty(signer)) {
      return Status::PermissionDenied("commit: signer not in plist");
    }
    if (!seen.insert(signer).second) {
      return Status::InvalidArgument("commit: duplicate signer");
    }
  }
  // Lines 10-12: verify every signature in the path (the expensive step).
  for (uint32_t depth = 0; depth < vote.path.size(); ++depth) {
    const auto& [signer, sig] = vote.path[depth];
    XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeSigVerify());
    auto key = ctx.world->keys().PublicKeyOf(signer);
    if (!key.ok()) return key.status();
    Bytes message = TimelockVoteMessage(deal_.deal_id, vote.voter, depth);
    if (!Verify(key.value(), message, sig)) {
      return Status::Unverified("commit: bad signature at depth " +
                                std::to_string(depth));
    }
  }
  return Status::OK();
}

Status TimelockEscrowContract::HandleCommit(CallContext& ctx,
                                            ByteReader& args) {
  auto deal_id = ParseDealId(args);
  if (!deal_id.ok()) return deal_id.status();
  if (!initialized_ || !(deal_.deal_id == deal_id.value())) {
    return Status::NotFound("commit: unknown deal");
  }
  if (Settled()) {
    return Status::FailedPrecondition("commit: already settled");
  }
  auto vote = PathVote::Parse(&args);
  if (!vote.ok()) return vote.status();

  XDEAL_RETURN_IF_ERROR(ValidateVote(ctx, vote.value()));

  // Figure 5 line 13: record the voter (long-lived storage).
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  voted_.insert(vote.value().voter);
  accepted_votes_[vote.value().voter.v] = vote.value();

  // Release once every party's vote has been accepted.
  if (voted_.size() == deal_.plist.size()) {
    XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));  // outcome flag
    released_ = true;
    return core_.ReleaseAll(ctx, Holder::OfContract(self_id()));
  }
  return Status::OK();
}

Status TimelockEscrowContract::HandleClaimRefund(CallContext& ctx,
                                                 ByteReader& args) {
  auto deal_id = ParseDealId(args);
  if (!deal_id.ok()) return deal_id.status();
  if (!initialized_ || !(deal_.deal_id == deal_id.value())) {
    return Status::NotFound("claimRefund: unknown deal");
  }
  if (Settled()) {
    return Status::FailedPrecondition("claimRefund: already settled");
  }
  // Missing votes can no longer arrive after t0 + N·Δ (§5): every vote's
  // deadline is at most that, so the contract may safely refund.
  if (ctx.now < deal_.RefundTime()) {
    return Status::FailedPrecondition("claimRefund: deal not timed out yet");
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));  // outcome flag
  refunded_ = true;
  return core_.RefundAll(ctx, Holder::OfContract(self_id()));
}

}  // namespace xdeal
