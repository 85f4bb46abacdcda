// TicketRegistry: an ERC721-style non-fungible asset ledger.
//
// The paper's running example tracks theater tickets — non-fungible assets
// with attributes a buyer validates ("the seats are (at least as good as)
// the ones agreed upon", §4.1). Each ticket has an id, a seat label, and a
// numeric quality used by validation policies.

#ifndef XDEAL_CONTRACTS_TICKET_REGISTRY_H_
#define XDEAL_CONTRACTS_TICKET_REGISTRY_H_

#include <map>
#include <string>
#include <vector>

#include "chain/contract.h"
#include "contracts/holder.h"

namespace xdeal {

/// Immutable attributes of one ticket.
struct TicketInfo {
  std::string event;
  std::string seat;
  uint32_t quality = 0;  // higher is better; used by validation policies
};

class TicketRegistry : public Contract {
 public:
  explicit TicketRegistry(PartyId issuer) : issuer_(issuer) {}

  std::string TypeName() const override { return "TicketRegistry"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // --- off-chain reads ---
  /// Owner of a ticket; invalid Holder if the ticket does not exist.
  Holder OwnerOf(uint64_t ticket_id) const;
  Result<TicketInfo> InfoOf(uint64_t ticket_id) const;
  std::vector<uint64_t> TicketsOwnedBy(const Holder& h) const;
  bool IsApproved(uint64_t ticket_id, const Holder& spender) const;

  /// The on-chain "approve" call that lets `spender` move `ticket_id` once
  /// (args: ticket u64, holder kind u8, holder id u32).
  static CallData ApproveCall(uint64_t ticket_id, const Holder& spender);

  // --- harness / sibling-contract entry points ---

  /// Issues a new ticket to `to`; returns its id.
  uint64_t Mint(const Holder& to, TicketInfo info);

  /// Moves a ticket; `caller` must be the owner or per-ticket approved.
  Status TransferFrom(CallContext& ctx, const Holder& caller,
                      const Holder& from, const Holder& to,
                      uint64_t ticket_id);

  /// Grants `spender` the right to move `ticket_id` once.
  Status Approve(CallContext& ctx, const Holder& caller, uint64_t ticket_id,
                 const Holder& spender);

 private:
  PartyId issuer_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Holder> owners_;
  std::map<uint64_t, TicketInfo> info_;
  std::map<uint64_t, Holder> approvals_;
};

}  // namespace xdeal

#endif  // XDEAL_CONTRACTS_TICKET_REGISTRY_H_
