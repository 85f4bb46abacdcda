// Random deal generation for property tests and parameter sweeps.
//
// Produces well-formed deals with a controllable shape: n parties, m assets
// spread over `num_chains` chains, t transfers. Strong connectivity is
// guaranteed by construction: asset 0 is escrowed by party 0 and hops a full
// cycle through all parties; remaining assets take random feasible walks.
// Matches the paper's cost-analysis parameterization (§7: "a deal with n
// participating parties, m assets, and t >= m transfers").

#ifndef XDEAL_CORE_DEAL_GEN_H_
#define XDEAL_CORE_DEAL_GEN_H_

#include <string>
#include <vector>

#include "core/env.h"

namespace xdeal {

/// The shape and seed of one random deal (see GenerateRandomDeal).
struct GenParams {
  size_t n_parties = 3;
  size_t m_assets = 2;
  size_t t_transfers = 4;  // clamped up to n + (m-1) for well-formedness
  size_t num_chains = 2;   // assets are placed round-robin
  uint64_t amount = 100;   // escrow size for fungible assets
  /// Every `nft_every`-th asset (>=1) is an NFT; 0 disables NFTs.
  size_t nft_every = 0;
  uint64_t seed = 1;
  /// If non-empty, assets are placed round-robin on these *existing* chains
  /// instead of creating `num_chains` fresh ones — this is how a traffic
  /// workload multiplexes many deals over a shared chain pool.
  std::vector<ChainId> use_chains;
  /// Prepended to generated party/token names so concurrent deals in one
  /// World get distinct identities (party keys derive from names).
  std::string name_prefix;
};

/// Builds chains/tokens/parties inside `env`, mints initial holdings, and
/// returns a valid, well-formed DealSpec.
DealSpec GenerateRandomDeal(DealEnv* env, const GenParams& params);

/// Coins a broker pays the seller per commodity unit, in every broker deal
/// shape (a buy-side deal's capital need is units * kBrokerUnitPrice).
constexpr uint64_t kBrokerUnitPrice = 100;

/// Shape of one Figure-1-style broker deal: a broker resells `units` of a
/// commodity between a fresh seller and a fresh buyer, keeping a margin.
/// Unlike GenerateRandomDeal, the commodity and coin tokens are *existing*
/// contracts (the broker's stock and the pool's settlement currency), so the
/// same broker identity and token inventory are reused across many deals.
struct BrokerDealParams {
  /// The middle party, created once by the BrokerPool and shared by all of
  /// this broker's deals.
  PartyId broker;
  /// The broker's stocked token (sell-side deals front inventory from it).
  AssetRef commodity;
  /// The settlement token every price/margin is denominated in (buy-side
  /// deals front working capital from the broker's balance of it).
  AssetRef coin;
  /// false: buy-side — the broker escrows `units * kBrokerUnitPrice` coins
  /// to pay the seller up front (working capital at risk). true: sell-side
  /// — the broker escrows `units` commodity from her own inventory to
  /// deliver immediately and restocks from the seller within the deal.
  bool sell_side = false;
  uint64_t units = 1;
  /// The broker's commission per unit; the buyer pays
  /// units * (kBrokerUnitPrice + unit_margin).
  uint64_t unit_margin = 5;
  uint64_t seed = 1;
  /// Prepended to the fresh seller/buyer party names.
  std::string name_prefix;
};

/// Builds one broker deal: creates the seller and buyer, mints the seller's
/// supply and the buyer's payment, and returns a valid, well-formed spec in
/// which the broker is strictly better off on commit (margin > 0) and whole
/// on abort. The broker's own holdings are NOT minted here — her capital
/// and inventory are finite pool-level resources.
DealSpec GenerateBrokerDeal(DealEnv* env, const BrokerDealParams& params);

/// Shape of a multi-hop broker chain (Figure 1 at hop depth > 1): goods
/// flow seller -> B1 -> ... -> BH -> buyer in ONE atomic deal, with every
/// broker fronting the capital to pay its upstream and recouping it plus
/// its own per-unit margin from the next hop. Each stake lives in its own
/// escrow: the seller's goods, one coin float per broker, and the buyer's
/// payment — so a compliant hop is whole on abort and strictly better off
/// on commit, exactly like the single-hop shape, chained.
struct BrokerChainParams {
  /// The resale chain, upstream first: brokers[0] buys from the seller,
  /// brokers.back() sells to the buyer. Must be non-empty and free of
  /// repeated parties.
  std::vector<PartyId> brokers;
  /// The goods token the chain passes along (the first broker's commodity).
  AssetRef commodity;
  /// The settlement token every hop's price is denominated in.
  AssetRef coin;
  /// brokers[0] pays the seller kBrokerUnitPrice per unit.
  uint64_t units = 1;
  /// Per-hop commission, parallel to `brokers`: hop i resells at its buy
  /// price plus units * margins[i] (priced capital feeds occupancy-scaled
  /// margins in here).
  std::vector<uint64_t> margins;
  uint64_t seed = 1;
  /// Prepended to the fresh seller/buyer party names.
  std::string name_prefix;
};

/// Builds one multi-hop broker-chain deal: creates the seller and buyer,
/// mints the seller's goods and the buyer's payment (the sum of every hop's
/// cost and margin), and returns a valid, well-formed spec. Broker holdings
/// are NOT minted here — each hop's float comes out of that broker's finite
/// pool capital.
DealSpec GenerateBrokerChainDeal(DealEnv* env,
                                 const BrokerChainParams& params);

}  // namespace xdeal

#endif  // XDEAL_CORE_DEAL_GEN_H_
