#include "core/deal_gen.h"

#include <cassert>

namespace xdeal {

DealSpec GenerateRandomDeal(DealEnv* env, const GenParams& params) {
  assert(params.n_parties >= 2);
  assert(params.m_assets >= 1);
  Rng rng(params.seed ^ 0x9E3779B97F4A7C15ULL);

  DealSpec spec;
  spec.deal_id = MakeDealId(params.name_prefix + "generated", params.seed);

  for (size_t i = 0; i < params.n_parties; ++i) {
    spec.parties.push_back(
        env->AddParty(params.name_prefix + "party-" + std::to_string(i)));
  }
  std::vector<ChainId> chains = params.use_chains;
  for (size_t c = chains.size(); c < params.num_chains; ++c) {
    chains.push_back(
        env->AddChain(params.name_prefix + "chain-" + std::to_string(c)));
  }

  // Assets round-robin over chains; owner of asset i is party i mod n.
  struct AssetPlan {
    uint32_t index;
    PartyId owner;
    bool nft;
    uint64_t ticket_or_amount;
    PartyId walk_end;  // current tentative owner along the transfer walk
  };
  std::vector<AssetPlan> plans;
  for (size_t a = 0; a < params.m_assets; ++a) {
    PartyId owner = spec.parties[a % params.n_parties];
    ChainId chain = chains[a % chains.size()];
    bool nft = params.nft_every > 0 && a > 0 && a % params.nft_every == 0;
    AssetPlan plan;
    plan.owner = owner;
    plan.nft = nft;
    plan.walk_end = owner;
    if (nft) {
      plan.index = env->AddNftAsset(
          &spec, chain, params.name_prefix + "nft-" + std::to_string(a),
          owner);
      plan.ticket_or_amount = env->MintTicket(
          spec, plan.index, owner,
          params.name_prefix + "event-" + std::to_string(a), "A1",
          /*quality=*/90);
    } else {
      plan.index = env->AddFungibleAsset(
          &spec, chain, params.name_prefix + "tok-" + std::to_string(a),
          owner);
      plan.ticket_or_amount = params.amount;
      env->Mint(spec, plan.index, owner, params.amount);
    }
    spec.escrows.push_back(
        EscrowStep{plan.index, owner, plan.ticket_or_amount});
    plans.push_back(plan);
  }

  // Asset 0 hops a full cycle through all parties: guarantees strong
  // connectivity. (Asset 0 is always fungible.)
  for (size_t i = 0; i < params.n_parties; ++i) {
    PartyId from = spec.parties[i];
    PartyId to = spec.parties[(i + 1) % params.n_parties];
    spec.transfers.push_back(
        TransferStep{plans[0].index, from, to, plans[0].ticket_or_amount});
  }
  plans[0].walk_end = spec.parties[0];

  // Each remaining asset makes at least one hop so it participates.
  for (size_t a = 1; a < plans.size(); ++a) {
    PartyId from = plans[a].walk_end;
    PartyId to = from;
    while (to == from) {
      to = spec.parties[rng.Below(params.n_parties)];
    }
    spec.transfers.push_back(
        TransferStep{plans[a].index, from, to, plans[a].ticket_or_amount});
    plans[a].walk_end = to;
  }

  // Distribute any remaining transfer budget as extra random hops.
  size_t target = params.t_transfers;
  while (spec.transfers.size() < target) {
    AssetPlan& plan = plans[rng.Below(plans.size())];
    PartyId from = plan.walk_end;
    PartyId to = from;
    while (to == from) {
      to = spec.parties[rng.Below(params.n_parties)];
    }
    spec.transfers.push_back(
        TransferStep{plan.index, from, to, plan.ticket_or_amount});
    plan.walk_end = to;
  }

  assert(spec.Validate().ok());
  assert(spec.IsWellFormed());
  return spec;
}

DealSpec GenerateBrokerDeal(DealEnv* env, const BrokerDealParams& params) {
  assert(params.units >= 1);
  const uint64_t cost = params.units * kBrokerUnitPrice;
  const uint64_t price = cost + params.units * params.unit_margin;

  DealSpec spec;
  spec.deal_id = MakeDealId(params.name_prefix + "broker", params.seed);
  PartyId seller = env->AddParty(params.name_prefix + "seller");
  PartyId buyer = env->AddParty(params.name_prefix + "buyer");
  spec.parties = {params.broker, seller, buyer};

  // Three assets, each with exactly ONE depositor, so every stake lives in
  // its own escrow contract (the broker's float is never pooled with a
  // counterparty's payment, and a stranded deposit is attributable to its
  // owner alone). Two of the assets may reference the same token contract;
  // the checker accounts token state per (chain, token), not per asset.
  // All are pre-existing contracts — referenced, not deployed.
  if (params.sell_side) {
    // The broker delivers `units` from her own inventory (asset 0) and
    // restocks from the seller (asset 1); the seller's payment comes out
    // of the buyer's (asset 2), so no working capital is needed — only
    // stocked commodity.
    spec.assets.push_back(params.commodity);  // 0: broker's inventory
    spec.assets.push_back(params.commodity);  // 1: seller's restock supply
    spec.assets.push_back(params.coin);       // 2: buyer's payment
    env->Mint(spec, 1, seller, params.units);
    env->Mint(spec, 2, buyer, price);
    spec.escrows.push_back(EscrowStep{0, params.broker, params.units});
    spec.escrows.push_back(EscrowStep{1, seller, params.units});
    spec.escrows.push_back(EscrowStep{2, buyer, price});
    spec.transfers.push_back(
        TransferStep{0, params.broker, buyer, params.units});
    spec.transfers.push_back(TransferStep{2, buyer, params.broker, price});
    spec.transfers.push_back(TransferStep{2, params.broker, seller, cost});
    spec.transfers.push_back(TransferStep{1, seller, params.broker,
                                          params.units});
  } else {
    // Buy-side: the broker pays the seller (asset 0's goods) from her own
    // escrowed capital (asset 2) and recoups it plus margin from the
    // buyer (asset 1) — `cost` coins of working capital are locked for
    // the deal's whole lifetime.
    spec.assets.push_back(params.commodity);  // 0: seller's goods
    spec.assets.push_back(params.coin);       // 1: buyer's payment
    spec.assets.push_back(params.coin);       // 2: broker's float
    env->Mint(spec, 0, seller, params.units);
    env->Mint(spec, 1, buyer, price);
    spec.escrows.push_back(EscrowStep{0, seller, params.units});
    spec.escrows.push_back(EscrowStep{1, buyer, price});
    spec.escrows.push_back(EscrowStep{2, params.broker, cost});
    spec.transfers.push_back(
        TransferStep{0, seller, params.broker, params.units});
    spec.transfers.push_back(
        TransferStep{0, params.broker, buyer, params.units});
    spec.transfers.push_back(TransferStep{2, params.broker, seller, cost});
    spec.transfers.push_back(TransferStep{1, buyer, params.broker, price});
  }

  assert(spec.Validate().ok());
  assert(spec.IsWellFormed());
  return spec;
}

DealSpec GenerateBrokerChainDeal(DealEnv* env,
                                 const BrokerChainParams& params) {
  assert(params.units >= 1);
  assert(!params.brokers.empty());
  assert(params.margins.size() == params.brokers.size());
  const size_t depth = params.brokers.size();

  // cost[i] = what hop i pays its upstream, which is also hop i's escrowed
  // float (cost[0] = what the first broker pays the seller; cost[depth] =
  // the buyer's all-in price, every hop's margin stacked).
  std::vector<uint64_t> cost(depth + 1, 0);
  cost[0] = params.units * kBrokerUnitPrice;
  for (size_t i = 0; i < depth; ++i) {
    cost[i + 1] = cost[i] + params.units * params.margins[i];
  }

  DealSpec spec;
  spec.deal_id = MakeDealId(params.name_prefix + "brokerchain", params.seed);
  PartyId seller = env->AddParty(params.name_prefix + "seller");
  PartyId buyer = env->AddParty(params.name_prefix + "buyer");
  spec.parties = params.brokers;
  spec.parties.push_back(seller);
  spec.parties.push_back(buyer);

  // One escrow per stake, each with exactly ONE depositor: asset 0 is the
  // seller's goods; asset 1+i is hop i's coin float (the capital it fronts
  // to pay its upstream); asset depth+1 is the buyer's payment. Brokers are
  // never minted here — their floats draw down finite pool capital.
  spec.assets.push_back(params.commodity);  // 0: the goods, passed along
  for (size_t i = 0; i < depth; ++i) {
    spec.assets.push_back(params.coin);  // 1+i: hop i's float
  }
  spec.assets.push_back(params.coin);  // depth+1: buyer's payment
  env->Mint(spec, 0, seller, params.units);
  env->Mint(spec, static_cast<uint32_t>(depth + 1), buyer, cost[depth]);

  spec.escrows.push_back(EscrowStep{0, seller, params.units});
  for (size_t i = 0; i < depth; ++i) {
    spec.escrows.push_back(EscrowStep{static_cast<uint32_t>(1 + i),
                                      params.brokers[i], cost[i]});
  }
  spec.escrows.push_back(
      EscrowStep{static_cast<uint32_t>(depth + 1), buyer, cost[depth]});

  // Goods walk the whole chain: seller -> B0 -> ... -> B(depth-1) -> buyer.
  spec.transfers.push_back(
      TransferStep{0, seller, params.brokers[0], params.units});
  for (size_t i = 0; i + 1 < depth; ++i) {
    spec.transfers.push_back(TransferStep{0, params.brokers[i],
                                          params.brokers[i + 1],
                                          params.units});
  }
  spec.transfers.push_back(
      TransferStep{0, params.brokers[depth - 1], buyer, params.units});

  // Payments flow back up: each hop pays its upstream from its own float,
  // and the buyer pays the last hop. Every adjacent pair thus trades in
  // both directions, so the deal digraph is strongly connected.
  spec.transfers.push_back(TransferStep{1, params.brokers[0], seller,
                                        cost[0]});
  for (size_t i = 1; i < depth; ++i) {
    spec.transfers.push_back(TransferStep{static_cast<uint32_t>(1 + i),
                                          params.brokers[i],
                                          params.brokers[i - 1], cost[i]});
  }
  spec.transfers.push_back(TransferStep{static_cast<uint32_t>(depth + 1),
                                        buyer, params.brokers[depth - 1],
                                        cost[depth]});

  assert(spec.Validate().ok());
  assert(spec.IsWellFormed());
  return spec;
}

}  // namespace xdeal
