// DealChecker: evaluates the paper's correctness properties over a finished
// deal execution.
//
//   Property 1 (safety): for every compliant party X, if any of X's outgoing
//     assets is transferred then all of X's incoming assets are transferred
//     (equivalently: if some incoming asset is not transferred, no outgoing
//     asset is transferred).
//   Property 2 (weak liveness): no asset belonging to a compliant party is
//     locked up forever — every escrow X funded eventually settled.
//   Property 3 (strong liveness): if all parties are compliant, all
//     transfers happen.
//
// The checker snapshots token-level ownership before the deal, then combines
// final token state, escrow contract state, and transaction receipts:
//   - "X's outgoing asset transferred" := some asset chain *committed*
//     (escrow released) on which X executed an outgoing tentative transfer;
//   - "all of X's incoming assets transferred" := every asset on which X
//     expects incoming value committed with X's commit-ownership exactly as
//     the agreed spec says.

#ifndef XDEAL_CORE_CHECKER_H_
#define XDEAL_CORE_CHECKER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "chain/world.h"
#include "contracts/escrow_view.h"
#include "core/deal_spec.h"
#include "util/det.h"

namespace xdeal {

/// Token-level ownership snapshot of every asset class in a deal.
struct LedgerSnapshot {
  // asset index -> party -> fungible balance.
  std::vector<std::map<uint32_t, uint64_t>> balances;
  // asset index -> ticket -> owner party (only tickets named in the spec).
  std::vector<std::map<uint64_t, uint32_t>> ticket_owners;

  static LedgerSnapshot Capture(const World& world, const DealSpec& spec);
};

/// The judged outcome of one deal execution: how it ended, and which of
/// Properties 1-3 and CBC atomicity held. Traffic deal records, sweep
/// scenarios and explored runs all extend it, so the violation string and
/// the fingerprinted outcome word are built here and nowhere else.
struct DealVerdict {
  bool started = false;    // Deploy() succeeded
  bool committed = false;  // every escrow released
  bool aborted = false;    // nothing released
  bool mixed = false;      // some released, some refunded
  bool all_settled = false;
  bool atomic = true;              // CBC: same outcome on every chain
  bool safety_ok = true;           // Property 1 over compliant parties
  bool weak_liveness_ok = true;    // Property 2 over compliant parties
  bool strong_liveness_ok = true;  // Property 3 (all-compliant runs only)
  /// Traffic only: the deal was touched by injection (or by deviation found
  /// in on-chain evidence), so the deviating party is excluded from its
  /// compliant set and Property 3 is not asserted. Always false elsewhere.
  bool tainted = false;
  std::string violation;  // empty = conformant

  /// Sets `violation` to the failed properties, space-separated, when any
  /// failed; leaves it untouched when all held.
  void FillViolation();

  /// Every outcome bit in one word (started = bit 0, ..., tainted = bit 9):
  /// the value each report fingerprint folds per deal.
  uint64_t OutcomeBits() const;
};

/// Per-party evaluation of the run.
struct PartyVerdict {
  bool outgoing_transferred = false;  // paid something
  bool all_incoming_received = false; // got everything expected
  bool property1 = false;             // safety holds for this party
  bool weak_liveness = false;         // nothing left locked
  bool token_state_expected = false;  // token ledger matches full commit
  bool token_state_unchanged = false; // token ledger matches full abort
};

class DealChecker {
 public:
  /// `escrows` maps asset index -> the deal's escrow contract on that
  /// asset's chain (must implement DealEscrowView). `deal_tag` is the tag
  /// the deal's transactions carry (chain/blockchain.h); receipt lookups go
  /// through the per-tag receipt index, so evaluation costs O(this deal's
  /// receipts) even in a world running 10^5 concurrent deals.
  DealChecker(const World* world, DealSpec spec,
              std::vector<ContractId> escrows, uint64_t deal_tag = 0);

  /// Call before the run executes (after minting / before escrow phase).
  void CaptureInitial();

  /// Marks `p` as a party shared with other concurrent deals (e.g. a
  /// broker): its token balances move with every deal it touches, so this
  /// deal's token-state expectation is undefined for it and is skipped in
  /// StrongLivenessHolds. Escrow-contract-level checks (Properties 1-2,
  /// escrow release) still apply; the party's global solvency is asserted
  /// by the cross-deal portfolio check instead (core/broker_pool.h).
  void MarkSharedParty(PartyId p);

  /// Evaluates one party after the scheduler has drained.
  XDEAL_DETERMINISTIC PartyVerdict Evaluate(PartyId p) const;

  /// Property 1 over a set of compliant parties.
  XDEAL_DETERMINISTIC bool SafetyHolds(const std::vector<PartyId>& compliant) const;

  /// Property 2 over a set of compliant parties.
  XDEAL_DETERMINISTIC bool WeakLivenessHolds(const std::vector<PartyId>& compliant) const;

  /// Property 3: every escrow released and token ledgers match the expected
  /// commit outcome exactly (call only for all-compliant runs).
  XDEAL_DETERMINISTIC bool StrongLivenessHolds() const;

  /// True if every asset chain settled the same way (the CBC guarantee:
  /// "the deal either commits everywhere or aborts everywhere").
  bool Atomic() const;

  const DealSpec& spec() const { return spec_; }

 private:
  const DealEscrowView* ViewOf(uint32_t asset) const;
  bool ExecutedOutgoingTransfer(PartyId p, uint32_t asset) const;

  const World* world_;
  DealSpec spec_;
  std::vector<ContractId> escrows_;
  uint64_t deal_tag_ = 0;
  std::set<uint32_t> shared_parties_;  // PartyId values, see MarkSharedParty
  LedgerSnapshot initial_;
  bool captured_ = false;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_CHECKER_H_
