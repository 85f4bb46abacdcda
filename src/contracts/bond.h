// FirstFaultBondContract — the §9 incentive mechanism.
//
// "To discourage maliciously joining then aborting deals, a party might
//  escrow a small deposit that is lost if that party is the first to cause
//  the deal to fail."
//
// One bond contract is co-located with a timelock escrow contract (same
// chain, so it may read the escrow's public state, §3). Every party posts an
// equal fungible bond during setup. After the deal settles:
//   - if the escrow RELEASED (deal committed here): every party reclaims its
//     bond in full;
//   - if the escrow REFUNDED (timed out): parties whose commit votes the
//     escrow accepted are "innocent" — they reclaim their bond plus an equal
//     share of the forfeited bonds of the parties whose votes never arrived
//     (the ones who caused the failure);
//   - if nobody voted at all, bonds are simply returned (no one can be
//     blamed first).
//
// On-chain functions:
//   "deposit" ()            — post the bond (requires prior approval)
//   "claim"   ()            — after the escrow settles, pay out per above

#ifndef XDEAL_CONTRACTS_BOND_H_
#define XDEAL_CONTRACTS_BOND_H_

#include <map>
#include <string>
#include <vector>

#include "contracts/timelock_escrow.h"

namespace xdeal {

class FirstFaultBondContract : public Contract {
 public:
  FirstFaultBondContract(ContractId bond_token, ContractId escrow,
                         std::vector<PartyId> plist, uint64_t bond_amount)
      : bond_token_(bond_token),
        escrow_(escrow),
        plist_(std::move(plist)),
        bond_amount_(bond_amount) {}

  std::string TypeName() const override { return "FirstFaultBond"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // --- public state ---
  bool HasDeposited(PartyId p) const { return deposited_.count(p) > 0; }
  uint64_t bond_amount() const { return bond_amount_; }
  /// Payout `p` would receive right now (0 if not settled / not entitled).
  uint64_t PayoutOf(const CallContext& ctx, PartyId p) const;

 private:
  Status HandleDeposit(CallContext& ctx);
  Status HandleClaim(CallContext& ctx);
  const TimelockEscrowContract* Escrow(const CallContext& ctx) const;

  ContractId bond_token_;
  ContractId escrow_;
  std::vector<PartyId> plist_;
  uint64_t bond_amount_;
  std::map<PartyId, bool> deposited_;
  std::map<PartyId, bool> claimed_;
};

}  // namespace xdeal

#endif  // XDEAL_CONTRACTS_BOND_H_
