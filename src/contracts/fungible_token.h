// FungibleToken: an ERC20-style token ledger (paper §7.1, Figure 3 models
// the escrowed asset "as an ERC20-standard token").
//
// Supports mint (issuer only), transfer, approve, and transferFrom. The
// escrow contract uses transferFrom to pull approved funds into escrow —
// charged as 2 storage writes, matching the paper's count.
//
// On-chain entry points (via Invoke): "transfer", "approve".
// Sibling-contract entry points (C++ methods with explicit caller): the
// escrow contract calls TransferFrom / TransferInternal directly, passing the
// CallContext so gas lands on the enclosing transaction.

#ifndef XDEAL_CONTRACTS_FUNGIBLE_TOKEN_H_
#define XDEAL_CONTRACTS_FUNGIBLE_TOKEN_H_

#include <map>
#include <string>

#include "chain/contract.h"
#include "contracts/holder.h"

namespace xdeal {

class FungibleToken : public Contract {
 public:
  /// `symbol` is decorative ("COIN"); `issuer` may mint.
  FungibleToken(std::string symbol, PartyId issuer)
      : symbol_(std::move(symbol)), issuer_(issuer) {}

  std::string TypeName() const override { return "FungibleToken"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // Token ledgers are long-lived (they outlive every deal that touches
  // them), so they are the one contract family a World checkpoint must
  // carry with full state: symbol, issuer, supply, balances, allowances.
  bool SupportsSnapshot() const override { return true; }
  Status TransferState(SnapshotIO& io) override;

  // --- off-chain reads (contract state is public, §3) ---
  uint64_t BalanceOf(const Holder& h) const;
  uint64_t Allowance(const Holder& owner, const Holder& spender) const;
  uint64_t total_supply() const { return total_supply_; }
  const std::string& symbol() const { return symbol_; }

  /// The on-chain "approve" call that sets `spender`'s allowance from the
  /// sender to `amount` (args: holder kind u8, holder id u32, amount u64).
  static CallData ApproveCall(const Holder& spender, uint64_t amount);

  // --- sibling-contract / harness entry points ---

  /// Mints new tokens to `to` (test/scenario setup; issuer authority).
  Status Mint(const Holder& to, uint64_t amount);

  /// Moves tokens; `caller` must be the current owner `from`.
  Status Transfer(CallContext& ctx, const Holder& caller, const Holder& from,
                  const Holder& to, uint64_t amount);

  /// Moves tokens using `caller`'s allowance from `from`.
  Status TransferFrom(CallContext& ctx, const Holder& caller,
                      const Holder& from, const Holder& to, uint64_t amount);

  /// Sets `spender`'s allowance from `owner`; `caller` must be `owner`.
  Status Approve(CallContext& ctx, const Holder& caller, const Holder& owner,
                 const Holder& spender, uint64_t amount);

 private:
  std::string symbol_;
  PartyId issuer_;
  uint64_t total_supply_ = 0;
  std::map<Holder, uint64_t> balances_;
  std::map<std::pair<Holder, Holder>, uint64_t> allowances_;
};

}  // namespace xdeal

#endif  // XDEAL_CONTRACTS_FUNGIBLE_TOKEN_H_
