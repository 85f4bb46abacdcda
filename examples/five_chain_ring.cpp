// Decentralization demo (§5.1): a five-party ring deal across five
// independent blockchains under the timelock protocol.
//
// "This protocol is decentralized in the sense that there is no single
//  blockchain that must be accessed by all compliant parties." Each party
// here submits transactions to exactly two chains — the chain of its
// incoming asset (to escrow nothing, but vote) and of its outgoing asset
// (to escrow and monitor) — and the deal still commits. The example prints
// the chain-access matrix to make the decentralization visible, then runs
// the same deal on the CBC protocol, where one shared chain (the CBC)
// necessarily appears (§6: no protocol tolerating asynchrony can be
// decentralized).
//
// Build & run:  ./build/examples/five_chain_ring

#include <cstdio>

#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/env.h"
#include "core/timelock_run.h"

using namespace xdeal;

namespace {

constexpr size_t kParties = 5;

struct Ring {
  std::unique_ptr<DealEnv> env;
  DealSpec spec;
  std::vector<PartyId> parties;
};

Ring MakeRing(uint64_t seed) {
  Ring r;
  EnvConfig config;
  config.seed = seed;
  r.env = std::make_unique<DealEnv>(std::move(config));
  r.spec.deal_id = MakeDealId("ring-demo", seed);
  const char* names[kParties] = {"ann", "ben", "cy", "dee", "eve"};
  for (size_t i = 0; i < kParties; ++i) {
    r.parties.push_back(r.env->AddParty(names[i]));
  }
  r.spec.parties = r.parties;
  for (size_t i = 0; i < kParties; ++i) {
    ChainId chain = r.env->AddChain(std::string("chain-") + names[i]);
    uint32_t asset = r.env->AddFungibleAsset(
        &r.spec, chain, std::string("tok-") + names[i], r.parties[i]);
    r.env->Mint(r.spec, asset, r.parties[i], 100);
    r.spec.escrows.push_back({asset, r.parties[i], 100});
    r.spec.transfers.push_back(
        {asset, r.parties[i], r.parties[(i + 1) % kParties], 100});
  }
  return r;
}

void PrintAccessMatrix(const Ring& r, const World& world) {
  std::printf("chain-access matrix (x = party submitted at least one "
              "transaction to that chain):\n%8s", "");
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    std::printf("%12s", world.chain(ChainId{c})->name().c_str());
  }
  std::printf("\n");
  for (PartyId p : r.parties) {
    std::printf("%8s", world.keys().NameOf(p).value().c_str());
    for (uint32_t c = 0; c < world.num_chains(); ++c) {
      bool touched = false;
      for (const Receipt& receipt : world.chain(ChainId{c})->receipts()) {
        touched = touched || receipt.sender == p;
      }
      std::printf("%12s", touched ? "x" : ".");
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  std::printf("=== Five parties, five chains, one ring deal ===\n\n");

  // --- timelock: fully decentralized ---
  {
    Ring r = MakeRing(3);
    TimelockConfig config;
    config.delta = 150;
    config.parallel_transfers = true;  // each leg is independent
    TimelockRun run(&r.env->world(), r.spec, config);
    Status st = run.Deploy();
    if (!st.ok()) {
      std::printf("start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    DealChecker checker(&r.env->world(), r.spec,
                        run.deployment().escrow_contracts);
    checker.CaptureInitial();
    r.env->world().scheduler().Run();
    DealResult result = run.Collect();

    std::printf("timelock protocol: %zu/%zu contracts released, strong "
                "liveness %s\n\n",
                result.released_contracts, r.spec.NumAssets(),
                checker.StrongLivenessHolds() ? "PASS" : "FAIL");
    PrintAccessMatrix(r, r.env->world());
    std::printf("note: no column is touched by every party — no single "
                "blockchain all parties must access (§5.1).\n\n");
  }

  // --- CBC: the certified blockchain is a shared point of contact ---
  {
    Ring r = MakeRing(4);
    CbcService::Options service_options;
    service_options.chain_name = "CBC";
    service_options.validator_seed = "ring-cbc";
    CbcService service(&r.env->world(), service_options);
    CbcRun run(&r.env->world(), r.spec, CbcConfig{}, &service);
    Status st = run.Deploy();
    if (!st.ok()) {
      std::printf("start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    DealChecker checker(&r.env->world(), r.spec,
                        run.deployment().escrow_contracts);
    checker.CaptureInitial();
    r.env->world().scheduler().Run();
    DealResult result = run.Collect();

    std::printf("CBC protocol: outcome=%s, strong liveness %s\n\n",
                DealOutcomeName(result.outcome),
                checker.StrongLivenessHolds() ? "PASS" : "FAIL");
    PrintAccessMatrix(r, r.env->world());
    std::printf("note: the CBC column is touched by EVERY party — the "
                "centralization that buys tolerance of asynchrony (§6).\n");
  }
  return 0;
}
