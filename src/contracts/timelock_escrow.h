// TimelockEscrowContract: the escrow + voting contract of the timelock
// commit protocol (paper §5, Figure 5).
//
// One instance manages one asset (one token contract) for one deal. Parties
// escrow outgoing assets, perform tentative transfers, then register commit
// votes. A vote from party X carried by path signature p is accepted only if
// it arrives before t0 + |p|·Δ. When the contract has accepted a vote from
// every party in the plist, it releases escrowed assets to their tentative
// (onCommit) owners. If some vote is still missing at t0 + N·Δ, it can never
// be accepted, and anyone may trigger a refund.
//
// On-chain functions (Invoke):
//   "escrow"       (deal_id, plist, t0, delta, value)
//   "transfer"     (deal_id, to, value)
//   "commit"       (deal_id, voter, [signer, sig]... )  — Figure 5
//   "claimRefund"  (deal_id)                            — after t0 + N·Δ

#ifndef XDEAL_CONTRACTS_TIMELOCK_ESCROW_H_
#define XDEAL_CONTRACTS_TIMELOCK_ESCROW_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "contracts/deal_info.h"
#include "contracts/escrow_core.h"
#include "contracts/escrow_view.h"

namespace xdeal {

/// A parsed path-signature vote: the voter plus (signer, signature) pairs,
/// index 0 being the voter's own signature.
struct PathVote {
  PartyId voter;
  std::vector<std::pair<PartyId, Signature>> path;

  /// Serializes into "commit" call arguments (after the deal id).
  void AppendTo(ByteWriter* w) const;
  static Result<PathVote> Parse(ByteReader* r);
};

class TimelockEscrowContract : public Contract, public DealEscrowView {
 public:
  TimelockEscrowContract(AssetKind kind, ContractId token) {
    core_.Bind(kind, token);
  }

  std::string TypeName() const override { return "TimelockEscrow"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // --- public state (off-chain readable, §3) ---
  bool initialized() const { return initialized_; }
  const DealInfo& deal() const { return deal_; }
  bool HasVoted(PartyId p) const { return voted_.count(p) > 0; }
  size_t NumVotes() const { return voted_.size(); }
  /// Accepted votes with their path signatures — public contract state that
  /// monitoring parties read in order to forward votes (§5).
  const std::map<uint32_t, PathVote>& accepted_votes() const {
    return accepted_votes_;
  }

  // DealEscrowView:
  const EscrowCore& escrow_core() const override { return core_; }
  bool Released() const override { return released_; }
  bool Refunded() const override { return refunded_; }

 private:
  Status HandleEscrow(CallContext& ctx, ByteReader& args);
  Status HandleTransfer(CallContext& ctx, ByteReader& args);
  Status HandleCommit(CallContext& ctx, ByteReader& args);
  Status HandleClaimRefund(CallContext& ctx, ByteReader& args);

  /// Figure 5's checks: deadline, legit voter, no duplicate vote, unique
  /// signers in plist, and one signature verification per path element.
  Status ValidateVote(CallContext& ctx, const PathVote& vote);

  EscrowCore core_;
  bool initialized_ = false;
  DealInfo deal_;
  std::set<PartyId> voted_;
  std::map<uint32_t, PathVote> accepted_votes_;  // voter id -> vote
  bool released_ = false;
  bool refunded_ = false;
};

}  // namespace xdeal

#endif  // XDEAL_CONTRACTS_TIMELOCK_ESCROW_H_
