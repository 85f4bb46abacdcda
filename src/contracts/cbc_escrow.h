// CbcEscrowContract: the escrow contract of the CBC commit protocol
// (paper §6, Figure 6).
//
// One instance manages one asset for one deal. Unlike the timelock escrow,
// there is no voting here: parties vote commit/abort on the CBC itself, and
// this contract only *checks proofs*. A party claiming assets (or a refund)
// presents a CbcProof; the contract verifies the certificate chain against
// the validator set pinned at escrow time and settles accordingly.
//
// On-chain functions (Invoke):
//   "escrow"   (deal_id, plist, h, validators, epoch, value, home_shard)
//   "transfer" (deal_id, to, value)
//   "decide"   (deal_id, serialized DecideProof)
//
// Cross-shard deals: the escrow may live on a different shard's chain than
// the deal's CBC log. The `home_shard` escrow argument pins the issuing
// shard; the escrow then accepts only DecideProofs declaring that shard
// ("decide: shard mismatch" otherwise — a cheap front check before any
// signature-verification gas is spent).

#ifndef XDEAL_CONTRACTS_CBC_ESCROW_H_
#define XDEAL_CONTRACTS_CBC_ESCROW_H_

#include <string>
#include <vector>

#include "cbc/types.h"
#include "contracts/deal_info.h"
#include "contracts/escrow_core.h"
#include "contracts/escrow_view.h"

namespace xdeal {

class CbcEscrowContract : public Contract, public DealEscrowView {
 public:
  CbcEscrowContract(AssetKind kind, ContractId token) {
    core_.Bind(kind, token);
  }

  std::string TypeName() const override { return "CbcEscrow"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // --- public state ---
  const EscrowCore& core() const { return core_; }
  bool initialized() const { return initialized_; }
  const DealId& deal_id() const { return deal_id_; }
  const Hash256& start_hash() const { return start_hash_; }
  const std::vector<PartyId>& plist() const { return plist_; }
  const std::vector<PublicKey>& validators() const { return validators_; }
  DealOutcome outcome() const { return outcome_; }
  bool settled() const { return outcome_ != kDealActive; }
  uint32_t home_shard() const { return home_shard_; }

  // DealEscrowView:
  const EscrowCore& escrow_core() const override { return core_; }
  bool Released() const override { return outcome_ == kDealCommitted; }
  bool Refunded() const override { return outcome_ == kDealAborted; }

 private:
  Status HandleEscrow(CallContext& ctx, ByteReader& args);
  Status HandleTransfer(CallContext& ctx, ByteReader& args);
  Status HandleDecide(CallContext& ctx, ByteReader& args);

  EscrowCore core_;
  bool initialized_ = false;
  DealId deal_id_;
  Hash256 start_hash_;
  std::vector<PartyId> plist_;
  std::vector<PublicKey> validators_;  // pinned at escrow time
  uint32_t validator_epoch_ = 0;
  // Cross-shard binding: only DecideProofs declaring this home shard are
  // accepted (the pinned validators are that shard's).
  uint32_t home_shard_ = 0;
  DealOutcome outcome_ = kDealActive;
};

}  // namespace xdeal

#endif  // XDEAL_CONTRACTS_CBC_ESCROW_H_
