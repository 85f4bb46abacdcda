#include "contracts/ticket_registry.h"

namespace xdeal {

Result<Bytes> TicketRegistry::Invoke(CallContext& ctx, const std::string& fn,
                                     ByteReader& args) {
  Holder sender = Holder::Party(ctx.sender);
  if (fn == "transfer") {
    auto kind = args.U8();
    auto id = args.U32();
    auto ticket = args.U64();
    if (!kind.ok() || !id.ok() || !ticket.ok()) {
      return Status::InvalidArgument("transfer: bad args");
    }
    Holder to{static_cast<Holder::Kind>(kind.value()), id.value()};
    XDEAL_RETURN_IF_ERROR(
        TransferFrom(ctx, sender, sender, to, ticket.value()));
    return Bytes{};
  }
  if (fn == "approve") {
    auto ticket = args.U64();
    auto kind = args.U8();
    auto id = args.U32();
    if (!ticket.ok() || !kind.ok() || !id.ok()) {
      return Status::InvalidArgument("approve: bad args");
    }
    Holder spender{static_cast<Holder::Kind>(kind.value()), id.value()};
    XDEAL_RETURN_IF_ERROR(Approve(ctx, sender, ticket.value(), spender));
    return Bytes{};
  }
  return Status::NotFound("TicketRegistry: unknown function " + fn);
}

CallData TicketRegistry::ApproveCall(uint64_t ticket_id,
                                     const Holder& spender) {
  ByteWriter w;
  w.U64(ticket_id);
  w.U8(static_cast<uint8_t>(spender.kind));
  w.U32(spender.id);
  return CallData{"approve", w.Take()};
}

Holder TicketRegistry::OwnerOf(uint64_t ticket_id) const {
  auto it = owners_.find(ticket_id);
  return it == owners_.end() ? Holder{} : it->second;
}

Result<TicketInfo> TicketRegistry::InfoOf(uint64_t ticket_id) const {
  auto it = info_.find(ticket_id);
  if (it == info_.end()) return Status::NotFound("no such ticket");
  return it->second;
}

std::vector<uint64_t> TicketRegistry::TicketsOwnedBy(const Holder& h) const {
  std::vector<uint64_t> out;
  for (const auto& [id, owner] : owners_) {
    if (owner == h) out.push_back(id);
  }
  return out;
}

bool TicketRegistry::IsApproved(uint64_t ticket_id,
                                const Holder& spender) const {
  auto it = approvals_.find(ticket_id);
  return it != approvals_.end() && it->second == spender;
}

uint64_t TicketRegistry::Mint(const Holder& to, TicketInfo info) {
  uint64_t id = next_id_++;
  owners_[id] = to;
  info_[id] = std::move(info);
  return id;
}

Status TicketRegistry::TransferFrom(CallContext& ctx, const Holder& caller,
                                    const Holder& from, const Holder& to,
                                    uint64_t ticket_id) {
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageRead(2));
  auto it = owners_.find(ticket_id);
  if (it == owners_.end()) {
    return Status::NotFound("transferFrom: no such ticket");
  }
  if (it->second != from) {
    return Status::FailedPrecondition("transferFrom: `from` is not the owner");
  }
  if (caller != from && !IsApproved(ticket_id, caller)) {
    return Status::PermissionDenied("transferFrom: caller not authorized");
  }
  // Ownership update + approval clear: 2 storage writes, mirroring the
  // fungible path so Figure 4's escrow write-count analysis applies to both.
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(2));
  it->second = to;
  approvals_.erase(ticket_id);
  return Status::OK();
}

Status TicketRegistry::Approve(CallContext& ctx, const Holder& caller,
                               uint64_t ticket_id, const Holder& spender) {
  auto it = owners_.find(ticket_id);
  if (it == owners_.end()) {
    return Status::NotFound("approve: no such ticket");
  }
  if (it->second != caller) {
    return Status::PermissionDenied("approve: caller is not the owner");
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  approvals_[ticket_id] = spender;
  return Status::OK();
}

}  // namespace xdeal
