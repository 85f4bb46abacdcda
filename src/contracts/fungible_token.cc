#include "contracts/fungible_token.h"

namespace xdeal {

Result<Bytes> FungibleToken::Invoke(CallContext& ctx, const std::string& fn,
                                    ByteReader& args) {
  Holder sender = Holder::Party(ctx.sender);
  if (fn == "transfer") {
    // args: to_kind u8, to_id u32, amount u64
    auto kind = args.U8();
    auto id = args.U32();
    auto amount = args.U64();
    if (!kind.ok() || !id.ok() || !amount.ok()) {
      return Status::InvalidArgument("transfer: bad args");
    }
    Holder to{static_cast<Holder::Kind>(kind.value()), id.value()};
    XDEAL_RETURN_IF_ERROR(Transfer(ctx, sender, sender, to, amount.value()));
    return Bytes{};
  }
  if (fn == "approve") {
    auto kind = args.U8();
    auto id = args.U32();
    auto amount = args.U64();
    if (!kind.ok() || !id.ok() || !amount.ok()) {
      return Status::InvalidArgument("approve: bad args");
    }
    Holder spender{static_cast<Holder::Kind>(kind.value()), id.value()};
    XDEAL_RETURN_IF_ERROR(Approve(ctx, sender, sender, spender,
                                  amount.value()));
    return Bytes{};
  }
  return Status::NotFound("FungibleToken: unknown function " + fn);
}

CallData FungibleToken::ApproveCall(const Holder& spender, uint64_t amount) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(spender.kind));
  w.U32(spender.id);
  w.U64(amount);
  return CallData{"approve", w.Take()};
}

uint64_t FungibleToken::BalanceOf(const Holder& h) const {
  auto it = balances_.find(h);
  return it == balances_.end() ? 0 : it->second;
}

uint64_t FungibleToken::Allowance(const Holder& owner,
                                  const Holder& spender) const {
  auto it = allowances_.find({owner, spender});
  return it == allowances_.end() ? 0 : it->second;
}

Status FungibleToken::Mint(const Holder& to, uint64_t amount) {
  balances_[to] += amount;
  total_supply_ += amount;
  return Status::OK();
}

Status FungibleToken::Transfer(CallContext& ctx, const Holder& caller,
                               const Holder& from, const Holder& to,
                               uint64_t amount) {
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageRead());
  if (caller != from) {
    return Status::PermissionDenied("transfer: caller is not the owner");
  }
  auto it = balances_.find(from);
  if (it == balances_.end() || it->second < amount) {
    return Status::FailedPrecondition("transfer: insufficient balance");
  }
  // Two long-lived storage writes: debit and credit.
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(2));
  it->second -= amount;
  balances_[to] += amount;
  return Status::OK();
}

Status FungibleToken::TransferFrom(CallContext& ctx, const Holder& caller,
                                   const Holder& from, const Holder& to,
                                   uint64_t amount) {
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageRead(2));
  if (caller != from) {
    auto allowance = allowances_.find({from, caller});
    if (allowance == allowances_.end() || allowance->second < amount) {
      return Status::PermissionDenied("transferFrom: insufficient allowance");
    }
    allowance->second -= amount;
  }
  auto it = balances_.find(from);
  if (it == balances_.end() || it->second < amount) {
    return Status::FailedPrecondition("transferFrom: insufficient balance");
  }
  // Two long-lived storage writes (Figure 3 line 8 is counted as 2 writes).
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(2));
  it->second -= amount;
  balances_[to] += amount;
  return Status::OK();
}

Status FungibleToken::Approve(CallContext& ctx, const Holder& caller,
                              const Holder& owner, const Holder& spender,
                              uint64_t amount) {
  if (caller != owner) {
    return Status::PermissionDenied("approve: caller is not the owner");
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  allowances_[{owner, spender}] = amount;
  return Status::OK();
}

Status FungibleToken::TransferState(SnapshotIO& io) {
  auto transfer_holder = [&io](auto& holder) {
    io.Enum(holder.kind, Holder::Kind::kContract,
            "FungibleToken snapshot: holder kind out of range");
    io.U32(holder.id);
  };
  io.Str(symbol_);
  io.U32(issuer_.v);
  io.U64(total_supply_);
  io.Entries(balances_, [&](auto& holder, auto& amount) {
    transfer_holder(holder);
    io.U64(amount);
  });
  io.Entries(allowances_, [&](auto& pair, auto& amount) {
    transfer_holder(pair.first);
    transfer_holder(pair.second);
    io.U64(amount);
  });
  return io.status();
}

}  // namespace xdeal
