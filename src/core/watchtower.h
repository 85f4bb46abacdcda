// Watchtower: an always-online vote relay (paper §5.3).
//
// "To address a similar risk, the Lightning payment network employs
//  watchtowers, parties that monitor escrow contracts and step in to act on
//  the behalf of off-line parties in danger of losing assets."
//
// A watchtower is NOT a deal party: it cannot extend a path signature (it is
// not in the plist), but the timelock contracts accept a valid vote from
// *any* sender, so the watchtower can
//   1. relay accepted votes verbatim from one escrow contract to the others
//      the moment it observes them (it is never offline, so it usually beats
//      the |p|·Δ deadline that a DoS'd party would miss), and
//   2. trigger claimRefund after t0 + N·Δ on behalf of clients (callable by
//      anyone).
// The watchtower_test shows this neutralizing the §5.3 attack that
// otherwise costs the offline parties their assets.

#ifndef XDEAL_CORE_WATCHTOWER_H_
#define XDEAL_CORE_WATCHTOWER_H_

#include <set>
#include <vector>

#include "core/timelock_run.h"

namespace xdeal {

/// An always-online relay that guards one timelock deal's parties.
class Watchtower {
 public:
  /// `operator_id` is the watchtower's own on-chain identity (any registered
  /// party; it needs no deal membership). `clients` are the parties whose
  /// deposits it guards for refund purposes; vote relaying helps everyone.
  /// `deal_tag` labels the tower's transactions so multi-deal worlds can
  /// attribute its gas to the deal it guards (0 = untagged).
  Watchtower(World* world, const DealSpec& spec,
             const TimelockDeployment& deployment, PartyId operator_id,
             std::vector<PartyId> clients, uint64_t deal_tag = 0);

  /// Subscribes to every deal chain and schedules the refund watch.
  void Arm();

  /// Number of votes this watchtower has relayed (for tests/metrics).
  size_t relayed() const { return relayed_; }

  /// Crash injection: the tower stops reacting to observations and refund
  /// watches, and loses its in-memory relay dedup state — exactly what a
  /// process kill would destroy. Subscriptions stay registered (they gate on
  /// crashed_), so Recover needs no re-subscription.
  void Crash();

  /// Restart: resumes reacting and rebuilds what the crash lost purely from
  /// on-chain evidence — every escrow's public accepted_votes() — then
  /// relays any vote the tower missed while down and, if past the refund
  /// deadline, re-runs the refund watch (claimRefund is idempotent).
  void Recover();

  bool crashed() const { return crashed_; }

 private:
  void OnObservedReceipt(const Receipt& receipt);
  void OnRefundWatch();
  void RelayMissingVotes(uint32_t source_asset);
  TimelockEscrowContract* EscrowOfAsset(uint32_t asset) const;

  World* world_;
  DealSpec spec_;
  TimelockDeployment deployment_;
  PartyId operator_id_;
  std::vector<PartyId> clients_;
  uint64_t deal_tag_;
  bool crashed_ = false;
  std::set<std::pair<uint32_t, uint32_t>> relayed_votes_;  // (asset, voter)
  size_t relayed_ = 0;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_WATCHTOWER_H_
