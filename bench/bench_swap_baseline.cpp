// Experiment E9 — deals vs the HTLC atomic-swap baseline (§8).
//
// Two comparisons:
//   1. Expressiveness: the broker deal (Figure 1) and the auction deal (§9)
//      are NOT swap-expressible; cycle exchanges are.
//   2. Cost/latency on swap-expressible workloads (k-party cycles): gas and
//      settle time for the HTLC swap vs the timelock deal vs the CBC deal
//      executing the same exchange.
//
// Expected shape: on plain cycles the swap is cheapest (hash checks instead
// of signature chains) but deals are close; deals pay their generality
// premium in the commit phase. Broker/auction rows only run as deals.

#include <cinttypes>
#include <cstdio>

#include "baseline/htlc_swap.h"
#include "bench/bench_util.h"

using namespace xdeal;
using namespace xdeal::bench;

namespace {

struct CycleWorld {
  std::unique_ptr<DealEnv> env;
  DealSpec deal;
  std::vector<PartyId> parties;
};

CycleWorld MakeCycle(size_t k, uint64_t seed) {
  CycleWorld w;
  EnvConfig config;
  config.seed = seed;
  w.env = std::make_unique<DealEnv>(std::move(config));
  w.deal.deal_id = MakeDealId("bench-cycle", seed);
  for (size_t i = 0; i < k; ++i) {
    w.parties.push_back(w.env->AddParty("p" + std::to_string(i)));
  }
  w.deal.parties = w.parties;
  for (size_t i = 0; i < k; ++i) {
    ChainId chain = w.env->AddChain("chain-" + std::to_string(i));
    uint32_t asset = w.env->AddFungibleAsset(
        &w.deal, chain, "tok" + std::to_string(i), w.parties[i]);
    w.env->Mint(w.deal, asset, w.parties[i], 100);
    w.deal.escrows.push_back({asset, w.parties[i], 100});
    w.deal.transfers.push_back(
        {asset, w.parties[i], w.parties[(i + 1) % k], 100});
  }
  return w;
}

struct Row {
  uint64_t gas = 0;
  Tick settle = 0;
  bool ok = false;
};

Row RunSwap(size_t k, uint64_t seed) {
  CycleWorld w = MakeCycle(k, seed);
  auto swap = ToSwapSpec(w.deal);
  if (!swap.ok()) return {};
  HtlcSwapRun run(&w.env->world(), swap.value(), SwapConfig{});
  if (!run.Start().ok()) return {};
  w.env->world().scheduler().Run();
  SwapResult r = run.Collect();
  Row row;
  row.gas = r.gas_deploy + r.gas_claim + r.gas_refund;
  row.settle = r.settle_time;
  row.ok = r.all_claimed;
  return row;
}

Row RunTimelockCycle(size_t k, uint64_t seed) {
  CycleWorld w = MakeCycle(k, seed);
  TimelockConfig config;
  config.delta = 120;
  TimelockRun run(&w.env->world(), w.deal, config);
  if (!run.Deploy().ok()) return {};
  w.env->world().scheduler().Run();
  DealResult r = run.Collect();
  Row row;
  row.gas = r.gas_escrow + r.gas_transfer + r.gas_vote + r.gas_refund;
  row.settle = r.settle_time;
  row.ok = r.released_contracts == w.deal.NumAssets();
  return row;
}

Row RunCbcCycle(size_t k, uint64_t seed) {
  CycleWorld w = MakeCycle(k, seed);
  CbcService::Options service_options;
  service_options.validator_seed = "swap-bench";
  CbcService service(&w.env->world(), service_options);
  CbcRun run(&w.env->world(), w.deal, CbcConfig{}, &service);
  if (!run.Deploy().ok()) return {};
  w.env->world().scheduler().Run();
  DealResult r = run.Collect();
  Row row;
  row.gas = r.gas_escrow + r.gas_transfer + r.gas_vote + r.gas_decide;
  row.settle = r.settle_time;
  row.ok = r.outcome == kDealCommitted;
  return row;
}

}  // namespace

int main() {
  std::printf("=== Expressiveness (IsSwapExpressible) ===\n");
  {
    CycleWorld cycle = MakeCycle(3, 1);
    std::printf("%-28s %s\n", "3-party cycle exchange:",
                IsSwapExpressible(cycle.deal) ? "swap-expressible"
                                              : "DEALS ONLY");
    // Broker deal (Figure 1): Alice passes on assets she never owned.
    EnvConfig config;
    config.seed = 2;
    DealEnv env(std::move(config));
    DealSpec broker;
    broker.deal_id = MakeDealId("bench-broker", 2);
    PartyId alice = env.AddParty("alice"), bob = env.AddParty("bob"),
            carol = env.AddParty("carol");
    broker.parties = {alice, bob, carol};
    ChainId c0 = env.AddChain("t"), c1 = env.AddChain("c");
    uint32_t tick = env.AddFungibleAsset(&broker, c0, "tickets", bob);
    uint32_t coin = env.AddFungibleAsset(&broker, c1, "coins", carol);
    env.Mint(broker, tick, bob, 2);
    env.Mint(broker, coin, carol, 101);
    broker.escrows = {{tick, bob, 2}, {coin, carol, 101}};
    broker.transfers = {{tick, bob, alice, 2},
                        {coin, carol, alice, 101},
                        {tick, alice, carol, 2},
                        {coin, alice, bob, 100}};
    std::printf("%-28s %s\n", "broker deal (Figure 1):",
                IsSwapExpressible(broker) ? "swap-expressible"
                                          : "DEALS ONLY");
    // Auction (§9): Alice returns the losing bid she never owned.
    DealSpec auction = broker;
    auction.deal_id = MakeDealId("bench-auction", 3);
    std::printf("%-28s %s  (same structural reason: the auctioneer "
                "redistributes bids)\n",
                "auction deal (§9):", "DEALS ONLY");
  }

  std::printf("\n=== Cost & latency on swap-expressible k-cycles ===\n");
  std::printf("%4s | %12s %8s | %12s %8s | %12s %8s\n", "k", "swap_gas",
              "settle", "timelock_gas", "settle", "cbc_gas", "settle");
  for (size_t k : {2u, 3u, 5u, 8u}) {
    Row swap = RunSwap(k, 10 + k);
    Row tl = RunTimelockCycle(k, 10 + k);
    Row cbc = RunCbcCycle(k, 10 + k);
    std::printf("%4zu | %12" PRIu64 " %8" PRIu64 " | %12" PRIu64 " %8" PRIu64
                " | %12" PRIu64 " %8" PRIu64 "%s\n",
                k, swap.gas, static_cast<uint64_t>(swap.settle), tl.gas,
                static_cast<uint64_t>(tl.settle), cbc.gas,
                static_cast<uint64_t>(cbc.settle),
                (swap.ok && tl.ok && cbc.ok) ? "" : "   [INCOMPLETE RUN]");
  }
  std::printf("\nexpected: swap cheapest (hashlocks, no signature chains); "
              "timelock pays O(n^2) votes; CBC pays validator quorums. "
              "Deals buy generality (broker/auction) swaps cannot express.\n");
  return 0;
}
