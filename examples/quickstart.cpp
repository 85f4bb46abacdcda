// Quickstart — the paper's running example (Figure 1 / Figure 2).
//
// Alice is a ticket broker. Bob sells two tickets for 100 coins; Carol pays
// 101 coins for them; Alice keeps the 1-coin commission. Tickets live on a
// ticket blockchain, coins on a coin blockchain. The deal executes under the
// timelock commit protocol (§5) with all parties compliant, through
// TimelockRun — the protocol's DealRuntime (Deploy, drain, Collect; a CbcRun
// runs the same three steps under §6).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/checker.h"
#include "core/env.h"
#include "core/timelock_run.h"

using namespace xdeal;

namespace {

void PrintHoldings(const char* when, DealEnv& env, const DealSpec& spec,
                   PartyId alice, PartyId bob, PartyId carol,
                   uint32_t tickets, uint32_t coins, uint64_t t1,
                   uint64_t t2) {
  auto* registry = env.RegistryOf(spec, tickets);
  auto* token = env.TokenOf(spec, coins);
  auto owner_name = [&](uint64_t ticket) -> std::string {
    Holder h = registry->OwnerOf(ticket);
    if (!h.valid()) return "nobody";
    if (!h.is_party()) return "escrow contract";
    return env.world().keys().NameOf(h.party()).value_or("?");
  };
  std::printf("%s\n", when);
  std::printf("  ticket A1 owner: %-8s  ticket A2 owner: %s\n",
              owner_name(t1).c_str(), owner_name(t2).c_str());
  std::printf("  coins:  alice=%llu  bob=%llu  carol=%llu\n\n",
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(alice))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(bob))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(carol))));
}

}  // namespace

int main() {
  std::printf("=== Cross-chain deal quickstart: Alice brokers Bob's "
              "tickets to Carol ===\n\n");

  // --- 1. The world: two independent blockchains, three parties. ---
  DealEnv env(EnvConfig{});
  PartyId alice = env.AddParty("alice");
  PartyId bob = env.AddParty("bob");
  PartyId carol = env.AddParty("carol");
  ChainId ticket_chain = env.AddChain("ticket-chain");
  ChainId coin_chain = env.AddChain("coin-chain");

  // --- 2. Assets: Bob's tickets (NFTs), Carol's coins (fungible). ---
  DealSpec spec;
  spec.deal_id = MakeDealId("quickstart", 1);
  spec.parties = {alice, bob, carol};
  uint32_t tickets = env.AddNftAsset(&spec, ticket_chain, "tickets", bob);
  uint32_t coins = env.AddFungibleAsset(&spec, coin_chain, "coins", carol);
  uint64_t t1 = env.MintTicket(spec, tickets, bob, "hit-play", "orch-A1", 95);
  uint64_t t2 = env.MintTicket(spec, tickets, bob, "hit-play", "orch-A2", 95);
  env.Mint(spec, coins, carol, 101);

  // --- 3. The deal matrix (Figure 1), as escrows + tentative transfers. ---
  spec.escrows = {{tickets, bob, t1}, {tickets, bob, t2}, {coins, carol, 101}};
  spec.transfers = {
      {tickets, bob, alice, t1},   {tickets, bob, alice, t2},
      {coins, carol, alice, 101},  {tickets, alice, carol, t1},
      {tickets, alice, carol, t2}, {coins, alice, bob, 100},
  };

  std::printf("deal digraph arcs (Figure 2):\n");
  for (const auto& [from, to] : spec.Arcs()) {
    std::printf("  %s -> %s\n",
                env.world().keys().NameOf(from).value().c_str(),
                env.world().keys().NameOf(to).value().c_str());
  }
  std::printf("well-formed (strongly connected): %s\n\n",
              spec.IsWellFormed() ? "yes" : "NO");

  PrintHoldings("before the deal:", env, spec, alice, bob, carol, tickets,
                coins, t1, t2);

  // --- 4. Execute under the timelock commit protocol (§5). ---
  TimelockConfig config;
  config.delta = SuggestDelta(EnvConfig{});
  TimelockRun run(&env.world(), spec, config);
  Status st = run.Deploy();
  if (!st.ok()) {
    std::printf("failed to start: %s\n", st.ToString().c_str());
    return 1;
  }
  DealChecker checker(&env.world(), spec, run.escrow_contracts());
  checker.CaptureInitial();

  env.world().scheduler().Run();
  DealResult result = run.Collect();

  std::printf("deal executed: %zu/%zu escrow contracts released "
              "(commit phase ended at tick %llu; Δ = %llu)\n\n",
              result.released_contracts, spec.NumAssets(),
              static_cast<unsigned long long>(result.commit_phase_end),
              static_cast<unsigned long long>(config.delta));

  PrintHoldings("after the deal:", env, spec, alice, bob, carol, tickets,
                coins, t1, t2);

  std::printf("checks: strong liveness (all transfers happened): %s\n",
              checker.StrongLivenessHolds() ? "PASS" : "FAIL");
  for (PartyId p : spec.parties) {
    PartyVerdict v = checker.Evaluate(p);
    std::printf("  %s: got everything expected: %s, safety: %s\n",
                env.world().keys().NameOf(p).value().c_str(),
                v.all_incoming_received ? "yes" : "no",
                v.property1 ? "holds" : "VIOLATED");
  }
  std::printf("\ngas: escrow=%llu transfer=%llu commit=%llu "
              "(signature verifications in commit: %llu)\n",
              static_cast<unsigned long long>(result.gas_escrow),
              static_cast<unsigned long long>(result.gas_transfer),
              static_cast<unsigned long long>(result.gas_vote),
              static_cast<unsigned long long>(result.sig_verifies));
  return checker.StrongLivenessHolds() ? 0 : 1;
}
