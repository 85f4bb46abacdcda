// BrokerPool: Figure-1-style brokers as shared parties across many deals.
//
// The paper's headline example (§2, Figure 1) is a broker who resells
// tickets she does not yet own: she is a *middle* party whose buy side and
// sell side live on different chains, and whose solvency is a cross-deal
// resource. This subsystem generates that workload at traffic scale: B
// broker identities, created once and reused across deals (the specs of
// many concurrent deals name the same PartyId), each holding
//
//   working capital   a finite balance of the pool's settlement coin, locked
//                     deal-by-deal while buy-side deals front payment to the
//                     seller (escrowed at deal start, recouped plus margin on
//                     commit, refunded on abort);
//   token inventory   a finite stock of the broker's own commodity token,
//                     locked while sell-side deals deliver from stock and
//                     restock from the seller.
//
// Each broker deal is planned as a list of STAKES, one per broker it
// touches: the escrow asset she deposits into and the capital or inventory
// it locks. A single-broker deal has one stake (her inventory on the sell
// side, her coin float on the buy side); a hop chain has one per hop.
//
// Occupancy of those two resources is an admission input (CapitalShort,
// read by AdmissionController::Decide): a deal whose broker lacks free
// capital or inventory is delayed or shed instead of over-committing her.
// The live free-capital computation is evidence-based — the broker's
// on-chain token balance minus reservations whose escrow deposit has not
// yet landed — so the reading stays exact whether deposits are prompt or
// queued behind full blocks.
//
// After a run, BuildRecords folds every broker's deals into a BrokerRecord:
// per-broker gas/latency attribution, a capital/inventory occupancy
// timeline, and the portfolio conformance check — Property 1 lifted from
// deals to portfolios: a compliant broker must end no worse off across her
// WHOLE deal set (final coin balance >= initial capital, final commodity
// balance >= initial inventory), no matter how her deals interleaved.
//
// hop_depth > 1 generalizes the shape to multi-hop broker CHAINS: brokers
// resell to other brokers, goods walking seller -> B1 -> ... -> BH -> buyer
// inside one atomic deal, each hop fronting its own capital. margin_slope
// prices that capital: a hop's commission scales with its broker's live
// capital occupancy, so a sweep over load traces a market-clearing
// margin-vs-occupancy curve. Both default off (depth 1, slope 0).
//
// With num_brokers = 0 the pool is inert: it creates no parties, tokens, or
// state, and draws nothing from any RNG.

#ifndef XDEAL_CORE_BROKER_POOL_H_
#define XDEAL_CORE_BROKER_POOL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/deal_gen.h"
#include "core/env.h"
#include "core/deal_runtime.h"
#include "util/det.h"

namespace xdeal {

class DealEscrowView;

/// Workload knobs for the broker subsystem. num_brokers = 0 disables it
/// entirely (no World mutation).
struct BrokerOptions {
  /// B: how many broker identities the pool creates and round-robins deals
  /// over. 0 = brokers disabled.
  size_t num_brokers = 0;
  /// Every k-th deal (deal index % k == 0) is a broker deal; the rest keep
  /// their generated random shape. 1 = every deal is brokered.
  size_t broker_every = 1;
  /// Coins minted to each broker up front — the capital ceiling her
  /// concurrent buy-side deals compete for.
  uint64_t working_capital = 1600;
  /// Commodity units minted to each broker up front — the inventory ceiling
  /// her concurrent sell-side deals compete for.
  uint64_t inventory = 64;
  /// Per-deal unit count is drawn uniformly from [min_units, max_units]
  /// with the deal's derived seed.
  size_t min_units = 1;
  size_t max_units = 3;
  /// The broker's commission per unit (the buyer pays price + margin).
  uint64_t unit_margin = 5;
  /// Resale-chain depth (Figure 1 at hop depth > 1): 1 = the classic
  /// single-broker shape, one stake per deal. H > 1 turns every broker
  /// deal into a chain of H brokers, one stake per hop — goods walk
  /// seller -> B1 -> ... -> BH -> buyer in ONE atomic deal, each hop
  /// fronting the capital to pay its upstream and recouping it plus margin
  /// from the next. Clamped to num_brokers so a chain never repeats a
  /// party.
  size_t hop_depth = 1;
  /// Priced capital: each stake's per-unit margin grows with its broker's
  /// capital occupancy at pricing time — margin = unit_margin +
  /// margin_slope * in_use / working_capital (pure integer arithmetic).
  /// 0 = every stake charges the flat unit_margin.
  uint64_t margin_slope = 0;
};

/// One point of a broker's resource-occupancy timeline: how much of her
/// capital/inventory was locked in in-flight deals as of `at`.
struct BrokerSample {
  Tick at = 0;
  uint64_t capital_in_use = 0;
  uint64_t inventory_in_use = 0;
};

/// Per-deal outcome summary the traffic engine hands back to the pool at
/// the deal's seal (a protocol-independent slice of the deal record).
struct BrokerDealOutcome {
  size_t deal_index = 0;
  Tick arrival_at = 0;
  Tick admitted_at = 0;
  Tick settle_time = 0;
  Tick latency = 0;
  bool started = false;
  bool committed = false;
  bool aborted = false;
  bool shed = false;
  bool all_settled = false;
  uint64_t gas = 0;
};

/// Post-run aggregation of one broker's whole deal set.
struct BrokerRecord {
  size_t index = 0;
  uint32_t party = 0;  // the broker's PartyId
  uint64_t capital_limit = 0;
  uint64_t inventory_limit = 0;

  size_t deals = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t shed = 0;
  size_t delayed = 0;  // admitted later than they arrived

  /// Gas summed over every receipt attributed to this broker's deals.
  uint64_t gas = 0;
  /// Sojourn-latency percentiles over this broker's settled deals.
  Tick latency_p50 = 0;
  Tick latency_max = 0;

  /// Final minus initial balances (coins / commodity units). A compliant
  /// broker's margin shows up here; a harmed broker goes negative.
  int64_t coin_delta = 0;
  int64_t inventory_delta = 0;

  /// High-water marks of the occupancy timeline below.
  uint64_t peak_capital_in_use = 0;
  uint64_t peak_inventory_in_use = 0;

  /// Property 1 lifted to the portfolio: the broker ended no worse off
  /// across her whole deal set (coin_delta >= 0 and inventory_delta >= 0).
  bool portfolio_ok = true;

  /// Occupancy over time, two events per deal (reserve at admission,
  /// release at settlement; a never-settling deal holds forever).
  std::vector<BrokerSample> timeline;
};

/// The broker subsystem of one traffic run. All methods run on the
/// simulation thread (or post-drain); nothing here is thread-shared.
class BrokerPool {
 public:
  /// Creates the broker parties and tokens inside `env` (a no-op when
  /// options.num_brokers == 0): one shared settlement coin on chains[0],
  /// one commodity token per broker spread over the remaining chains (the
  /// buy side and sell side of a broker deal live on different chains),
  /// and mints each broker's capital and inventory.
  BrokerPool(DealEnv* env, const BrokerOptions& options,
             const std::vector<ChainId>& chains);

  /// Attach-mode constructor, for a World restored from a checkpoint: binds
  /// nothing and mutates nothing (parties and token contracts already exist
  /// in the restored world). Restore() then fills the bindings and deals
  /// from the pool's Checkpoint blob.
  struct AttachTag {};
  BrokerPool(DealEnv* env, const BrokerOptions& options, AttachTag);

  /// False when num_brokers == 0: every other method is then inert.
  bool enabled() const { return options_.num_brokers > 0; }
  size_t num_brokers() const { return brokers_.size(); }

  /// True when deal `deal_index` should take the broker shape.
  bool IsBrokerDeal(size_t deal_index) const;
  /// Which broker hosts deal `deal_index` (round-robin over broker deals).
  /// For hop chains this is the FIRST hop; later hops follow round-robin
  /// from it.
  size_t BrokerOf(size_t deal_index) const;
  /// Effective resale-chain depth (hop_depth clamped to the pool size).
  size_t ChainDepth() const;
  /// True when margins are occupancy-priced (margin_slope > 0): spec
  /// generation must then be deferred to admission time so each hop's
  /// margin reflects live capital occupancy, not generation-time zero.
  bool DynamicPricing() const {
    return enabled() && options_.margin_slope > 0;
  }

  /// Generates the broker-linked spec for deal `deal_index` (buy- or
  /// sell-side, units drawn from `seed`) and records its stakes.
  XDEAL_DETERMINISTIC DealSpec MakeDeal(size_t deal_index, uint64_t seed);

  /// Working capital (coins) deal `deal_index` locks while in flight;
  /// 0 for sell-side and non-broker deals.
  uint64_t CapitalNeed(size_t deal_index) const;
  /// Inventory (commodity units) deal `deal_index` locks while in flight;
  /// 0 for buy-side and non-broker deals.
  uint64_t InventoryNeed(size_t deal_index) const;

  /// The broker admission input for deal `deal_index`: true when some
  /// broker the deal needs cannot cover her stake right now, i.e. when ANY
  /// stake's capital or inventory exceeds its broker's free amount — one
  /// over-committed hop blocks the whole chain. Free = the on-chain
  /// balance minus reservations whose escrow deposit has not landed yet,
  /// floored at 0, so a stake that locks nothing is never short. False for
  /// non-broker deals. Prunes settled/landed reservations as a side effect.
  XDEAL_DETERMINISTIC bool CapitalShort(size_t deal_index);

  /// Every shared party of deal `deal_index` — one broker per stake, empty
  /// for non-broker deals. The checker must mark each one so cross-deal
  /// balance accounting nets the whole portfolio.
  std::vector<PartyId> SharedPartiesOf(size_t deal_index) const;

  /// One (capital occupancy at pricing time, per-unit margin charged) point
  /// per stake of deal `deal_index` — the raw data of the
  /// margin-vs-occupancy market-clearing chart. Empty for non-broker deals.
  struct PricePoint {
    uint64_t occupancy = 0;  // capital in use when the margin was priced
    uint64_t margin = 0;     // per-unit margin the hop charged
  };
  /// The price points quoted for deal `deal_index`, in stake (hop) order.
  std::vector<PricePoint> PricePointsOf(size_t deal_index) const;

  /// PartyFactory::OnDeployed hook: registers the deployed deal's escrow
  /// views, one reservation per stake, so each reservation can be tracked
  /// until its deposit lands (the same hook watchtowers arm through).
  void OnDealDeployed(size_t deal_index, DealRuntime& runtime);

  /// Called when deal `deal_index` retires, before its escrows are retired:
  /// drops the deal's escrow-view pointers. A reservation whose deposit
  /// landed (or whose escrow settled) is dropped; one whose deposit never
  /// landed is frozen, and keeps its capital or inventory locked for good
  /// (its escrow can no longer change).
  void OnDealRetired(size_t deal_index, DealRuntime& runtime);

  /// The seal hook: stores the deal's outcome beside its stakes, for
  /// BuildRecords. Ignored for a deal the pool never planned.
  void RecordOutcome(const BrokerDealOutcome& outcome);

  /// Post-run: folds every planned deal's stakes and recorded outcome into
  /// per-broker records (gas/latency attribution, occupancy timeline,
  /// portfolio conformance). Call it between batches, when every planned
  /// deal has sealed.
  XDEAL_DETERMINISTIC std::vector<BrokerRecord> BuildRecords() const;

  // --- crash/restart injection ---

  /// Kills broker `broker`'s off-chain accounting process: her in-memory
  /// reservation book is lost, so her free amounts count none of it and
  /// overstate what she can safely commit (the over-commit risk a real
  /// crash creates). Her on-chain balances and in-flight escrows are
  /// untouched.
  void CrashBroker(size_t broker);

  /// Restarts a crashed broker: her book is rebuilt from on-chain evidence
  /// — the escrow views of every deployed deal whose deposit has not yet
  /// landed — exactly the entries a never-crashed book would still hold.
  void RecoverBroker(size_t broker);

  // --- checkpoint/restore ---

  /// Serializes the pool's bindings (broker parties, token refs), crash
  /// flags, and every deal's stakes and outcome into `w`. Requires a
  /// reservation-free pool: at a quiescent boundary every deal has retired
  /// (OnDealRetired), which leaves none in a compliant run; a frozen
  /// reservation of a deposit that never landed cannot cross a snapshot.
  XDEAL_DETERMINISTIC Status Checkpoint(ByteWriter* w) const;

  /// Fills an attach-mode pool from a Checkpoint blob. The restored World
  /// must already hold the parties and token contracts the bindings name;
  /// stakes naming a broker beyond the pool are rejected.
  XDEAL_DETERMINISTIC Status Restore(ByteReader& r);

 private:
  /// The one listing of the pool's snapshot (see SnapshotIO): Checkpoint
  /// runs it on a const pool to encode, Restore on an attach-mode one to
  /// decode.
  template <typename Self>
  static void Transfer(Self& self, SnapshotIO& io);

  /// One broker's stake in a deal, planned at MakeDeal time. A
  /// single-broker deal has one: her inventory (asset 0) on the sell side
  /// or her coin float (asset 2) on the buy side, each the sole stake of
  /// its own escrow contract (see GenerateBrokerDeal). Hop i of a chain
  /// fronts its coin float in asset 1 + i (see GenerateBrokerChainDeal).
  struct Stake {
    size_t broker = 0;
    uint32_t asset = 0;      // the escrow asset the broker deposits into
    uint64_t capital = 0;    // coins locked
    uint64_t inventory = 0;  // commodity units locked
    uint64_t margin = 0;     // per-unit margin charged (priced or flat)
    uint64_t occupancy = 0;  // capital in use when the margin was priced
  };

  /// The pool's whole record of one broker deal.
  struct Deal {
    std::vector<Stake> stakes;
    BrokerDealOutcome outcome;  // set by RecordOutcome at the deal's seal
  };

  /// An admitted stake whose escrow deposit may not have landed yet: until
  /// it does, its need is subtracted from the broker's free balance.
  struct Reservation {
    uint64_t capital = 0;
    uint64_t inventory = 0;
    // Where the deposit will appear; nullptr once the deal retired without
    // it (frozen: locked for good).
    const DealEscrowView* view = nullptr;
  };
  /// True when `r`'s deposit by `broker` has landed or its escrow settled.
  static bool Done(const Reservation& r, PartyId broker);

  /// The stakes of deal `deal_index`; empty for non-broker deals.
  const std::vector<Stake>& StakesOf(size_t deal_index) const;
  uint64_t BalanceOf(const AssetRef& asset, PartyId party) const;
  void Prune(size_t broker);
  const DealEscrowView* EscrowViewOf(DealRuntime& runtime,
                                     uint32_t asset) const;
  /// Coins of `broker`'s working capital not locked by live reservations;
  /// while she is crashed, her whole balance (prunes as a side effect).
  uint64_t FreeCapital(size_t broker);
  /// Units of `broker`'s inventory not locked by live reservations; while
  /// she is crashed, her whole stock (prunes as a side effect).
  uint64_t FreeInventory(size_t broker);
  /// The occupancy-priced per-unit margin `broker` charges right now, and
  /// the capital-in-use reading it was priced from. Equals unit_margin
  /// exactly (occupancy 0) when margin_slope == 0.
  XDEAL_DETERMINISTIC uint64_t PricedMarginFor(size_t broker,
                                               uint64_t* occupancy_out);

  DealEnv* env_ = nullptr;
  BrokerOptions options_;
  AssetRef coin_;
  std::vector<AssetRef> commodities_;  // one per broker
  std::vector<PartyId> brokers_;
  std::map<size_t, Deal> deals_;
  // The reservation book, per broker. Every entry is backed by a public
  // escrow view, so the book is re-derivable from chain state: a crash only
  // hides it from FreeCapital/FreeInventory, and recovery shows it again.
  std::vector<std::vector<Reservation>> reserved_;
  std::vector<uint8_t> crashed_;  // per broker; 1 = accounting process down
};

}  // namespace xdeal

#endif  // XDEAL_CORE_BROKER_POOL_H_
