// CbcLogContract: the certified blockchain's deal log (paper §6).
//
// The CBC is "a kind of shared log" with no coordinator: parties publish
// startDeal / commit / abort entries, and the log's total order decides each
// deal's outcome:
//
//   - committed: every party in the plist voted commit before any party
//     voted abort;
//   - aborted:   some party voted abort before every party voted commit
//     (this includes rescinding one's own earlier commit vote).
//
// The contract records entries in order; the ValidatorSet (validators.h)
// reads this state to issue status certificates.

#ifndef XDEAL_CBC_CBC_LOG_H_
#define XDEAL_CBC_CBC_LOG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "cbc/types.h"
#include "chain/contract.h"

namespace xdeal {

class CbcLogContract : public Contract {
 public:
  struct VoteEntry {
    PartyId voter;
    bool is_abort = false;
    uint64_t order = 0;  // position in the log
  };

  struct DealRecord {
    Hash256 deal_id;
    Hash256 start_hash;        // h of the definitive (earliest) startDeal
    std::vector<PartyId> plist;
    std::vector<VoteEntry> votes;  // in log order
  };

  std::string TypeName() const override { return "CbcLog"; }

  Result<Bytes> Invoke(CallContext& ctx, const std::string& fn,
                       ByteReader& args) override;

  // --- public state ---
  /// The outcome implied by the current log prefix.
  DealOutcome OutcomeOf(const Hash256& deal_id) const;

  /// The h value of the definitive startDeal (zero hash if unknown).
  Hash256 StartHashOf(const Hash256& deal_id) const;

  /// Total entries recorded (for tests).
  uint64_t num_entries() const { return next_order_; }

 private:
  Status HandleStartDeal(CallContext& ctx, ByteReader& args);
  Status HandleVote(CallContext& ctx, ByteReader& args, bool is_abort);

  std::map<Hash256, DealRecord> deals_;
  uint64_t next_order_ = 0;
};

}  // namespace xdeal

#endif  // XDEAL_CBC_CBC_LOG_H_
