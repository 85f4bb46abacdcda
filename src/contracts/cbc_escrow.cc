#include "contracts/cbc_escrow.h"

#include <algorithm>

namespace xdeal {

namespace {

Result<Hash256> ReadHash32(ByteReader& args) {
  auto bytes = args.Raw(32);
  if (!bytes.ok()) return bytes.status();
  Hash256 h;
  std::copy(bytes.value().begin(), bytes.value().end(), h.bytes.begin());
  return h;
}

}  // namespace

Result<Bytes> CbcEscrowContract::Invoke(CallContext& ctx,
                                        const std::string& fn,
                                        ByteReader& args) {
  Status st;
  if (fn == "escrow") {
    st = HandleEscrow(ctx, args);
  } else if (fn == "transfer") {
    st = HandleTransfer(ctx, args);
  } else if (fn == "decide") {
    st = HandleDecide(ctx, args);
  } else {
    st = Status::NotFound("CbcEscrow: unknown function " + fn);
  }
  if (!st.ok()) return st;
  return Bytes{};
}

Status CbcEscrowContract::HandleEscrow(CallContext& ctx, ByteReader& args) {
  auto deal_id = ReadHash32(args);
  if (!deal_id.ok()) return deal_id.status();
  auto count = args.U32();
  if (!count.ok()) return count.status();
  if (count.value() == 0 || count.value() > 4096) {
    return Status::InvalidArgument("escrow: bad plist size");
  }
  std::vector<PartyId> plist;
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto p = args.U32();
    if (!p.ok()) return p.status();
    plist.push_back(PartyId{p.value()});
  }
  auto h = ReadHash32(args);
  if (!h.ok()) return h.status();
  // Validators of the CBC at escrow time ("passing the 3f+1 validators of
  // the initial block as an extra argument to each of the deal's escrow
  // contracts", §6.2).
  auto nvals = args.U32();
  if (!nvals.ok()) return nvals.status();
  if (nvals.value() == 0 || nvals.value() % 3 != 1 || nvals.value() > 4096) {
    return Status::InvalidArgument("escrow: validator set must be 3f+1");
  }
  std::vector<PublicKey> validators;
  for (uint32_t i = 0; i < nvals.value(); ++i) {
    auto key_hash = ReadHash32(args);
    if (!key_hash.ok()) return key_hash.status();
    validators.push_back(PublicKey{U256::FromHash(key_hash.value())});
  }
  auto epoch = args.U32();
  if (!epoch.ok()) return epoch.status();
  auto value = args.U64();
  if (!value.ok()) return value.status();
  // The deal's home shard: only decide proofs its validators issued are
  // accepted.
  auto home_shard = args.U32();
  if (!home_shard.ok()) return home_shard.status();

  if (!initialized_) {
    XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
    deal_id_ = deal_id.value();
    start_hash_ = h.value();
    plist_ = std::move(plist);
    validators_ = std::move(validators);
    validator_epoch_ = epoch.value();
    home_shard_ = home_shard.value();
    initialized_ = true;
  } else {
    // Later escrows must agree on every parameter ("Parties must provide
    // the correct validators when putting assets in escrow, and they must
    // check their correctness before voting to commit").
    bool same = deal_id_ == deal_id.value() && start_hash_ == h.value() &&
                plist_ == plist && validator_epoch_ == epoch.value() &&
                home_shard_ == home_shard.value() &&
                validators_.size() == validators.size();
    if (same) {
      for (size_t i = 0; i < validators.size(); ++i) {
        same = same && validators_[i] == validators[i];
      }
    }
    if (!same) {
      return Status::FailedPrecondition("escrow: deal parameters mismatch");
    }
  }
  if (std::find(plist_.begin(), plist_.end(), ctx.sender) == plist_.end()) {
    return Status::PermissionDenied("escrow: sender not in plist");
  }
  return core_.EscrowIn(ctx, Holder::OfContract(self_id()), ctx.sender,
                        value.value());
}

Status CbcEscrowContract::HandleTransfer(CallContext& ctx, ByteReader& args) {
  auto deal_id = ReadHash32(args);
  if (!deal_id.ok()) return deal_id.status();
  auto to = args.U32();
  auto value = args.U64();
  if (!to.ok() || !value.ok()) {
    return Status::InvalidArgument("transfer: bad args");
  }
  if (!initialized_ || !(deal_id_ == deal_id.value())) {
    return Status::NotFound("transfer: unknown deal");
  }
  PartyId target{to.value()};
  if (std::find(plist_.begin(), plist_.end(), target) == plist_.end()) {
    return Status::PermissionDenied("transfer: target not in plist");
  }
  return core_.TentativeTransfer(ctx, ctx.sender, target, value.value());
}

Status CbcEscrowContract::HandleDecide(CallContext& ctx, ByteReader& args) {
  auto deal_id = ReadHash32(args);
  if (!deal_id.ok()) return deal_id.status();
  if (!initialized_ || !(deal_id_ == deal_id.value())) {
    return Status::NotFound("decide: unknown deal");
  }
  if (settled()) {
    return Status::FailedPrecondition("decide: already settled");
  }
  auto proof_bytes = args.Blob();
  if (!proof_bytes.ok()) return proof_bytes.status();
  auto dp = DecideProof::Deserialize(proof_bytes.value());
  if (!dp.ok()) return dp.status();
  // Shard front check: a proof replayed from the wrong shard is rejected
  // here, before the contract spends any signature-verification gas.
  if (dp.value().shard != home_shard_) {
    return Status::PermissionDenied("decide: shard mismatch");
  }

  // Figure 6: check the certificate chain — every signature costs gas.
  auto outcome = VerifyCbcProof(dp.value().proof, deal_id_, start_hash_,
                                validators_, validator_epoch_, ctx.gas);
  if (!outcome.ok()) return outcome.status();

  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));  // outcome flag
  outcome_ = outcome.value();
  if (outcome_ == kDealCommitted) {
    return core_.ReleaseAll(ctx, Holder::OfContract(self_id()));
  }
  return core_.RefundAll(ctx, Holder::OfContract(self_id()));
}

}  // namespace xdeal
