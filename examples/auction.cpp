// Auction — the §9 example that cannot be expressed as an atomic swap.
//
// Alice auctions a ticket. Bob and Carol submit sealed bids (commit-reveal,
// per the paper's footnote: "Bob and Carol should use a commit-reveal
// pattern to ensure neither can observe the other's bid"). Both bids are
// transferred to Alice inside the deal; Alice transfers the ticket to the
// winner and the losing bid back to the loser. Alice moves assets she did
// not own when the deal started — exactly why no swap protocol can run this.
//
// The deal executes under the CBC commit protocol (§6).
//
// Build & run:  ./build/examples/auction

#include <cstdio>

#include "baseline/htlc_swap.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/env.h"

using namespace xdeal;

namespace {

/// A sealed bid: commitment = H(bidder || amount || salt).
struct SealedBid {
  PartyId bidder;
  uint64_t amount;
  std::string salt;

  Hash256 Commitment() const {
    ByteWriter w;
    w.U32(bidder.v);
    w.U64(amount);
    w.Str(salt);
    return Sha256Digest(w.bytes());
  }
};

}  // namespace

int main() {
  std::printf("=== §9 auction: Alice sells one ticket to the higher of "
              "Bob's and Carol's sealed bids ===\n\n");

  DealEnv env(EnvConfig{});
  PartyId alice = env.AddParty("alice");
  PartyId bob = env.AddParty("bob");
  PartyId carol = env.AddParty("carol");
  ChainId ticket_chain = env.AddChain("ticket-chain");
  ChainId coin_chain = env.AddChain("coin-chain");

  DealSpec spec;
  spec.deal_id = MakeDealId("auction", 42);
  spec.parties = {alice, bob, carol};
  uint32_t tickets = env.AddNftAsset(&spec, ticket_chain, "ticket", alice);
  uint32_t coins = env.AddFungibleAsset(&spec, coin_chain, "coins", alice);
  uint64_t ticket = env.MintTicket(spec, tickets, alice, "opera", "box-1", 99);
  env.Mint(spec, coins, bob, 90);
  env.Mint(spec, coins, carol, 95);

  // --- commit-reveal bidding (off-deal; the clearing phase) ---
  SealedBid bob_bid{bob, 90, "bob-salt-7261"};
  SealedBid carol_bid{carol, 95, "carol-salt-1893"};
  std::printf("sealed commitments published:\n  bob:   %s\n  carol: %s\n",
              bob_bid.Commitment().ShortHex().c_str(),
              carol_bid.Commitment().ShortHex().c_str());
  // Reveal: each bidder opens; everyone recomputes and checks.
  bool bob_ok = bob_bid.Commitment() == SealedBid{bob, 90, "bob-salt-7261"}
                                            .Commitment();
  bool carol_ok =
      carol_bid.Commitment() ==
      SealedBid{carol, 95, "carol-salt-1893"}.Commitment();
  std::printf("reveals verified: bob=%s carol=%s\n", bob_ok ? "yes" : "NO",
              carol_ok ? "yes" : "NO");
  const SealedBid& winner = carol_bid.amount > bob_bid.amount ? carol_bid
                                                              : bob_bid;
  const SealedBid& loser = carol_bid.amount > bob_bid.amount ? bob_bid
                                                             : carol_bid;
  std::printf("winner: %s at %llu coins (loser bid %llu is returned)\n\n",
              env.world().keys().NameOf(winner.bidder).value().c_str(),
              static_cast<unsigned long long>(winner.amount),
              static_cast<unsigned long long>(loser.amount));

  // --- the deal: both bids escrowed and moved to Alice; Alice returns the
  //     losing bid and hands over the ticket ---
  spec.escrows = {{tickets, alice, ticket},
                  {coins, bob, bob_bid.amount},
                  {coins, carol, carol_bid.amount}};
  spec.transfers = {
      {coins, bob, alice, bob_bid.amount},
      {coins, carol, alice, carol_bid.amount},
      {coins, alice, loser.bidder, loser.amount},   // losing bid returned
      {tickets, alice, winner.bidder, ticket},      // ticket to the winner
  };
  std::printf("swap-expressible? %s  (Alice redistributes assets she did "
              "not own at the start)\n\n",
              IsSwapExpressible(spec) ? "yes" : "no — deals only");

  // --- execute under the CBC protocol ---
  CbcService::Options service_options;
  service_options.validator_seed = "auction-cbc";
  CbcService service(&env.world(), service_options);
  CbcRun run(&env.world(), spec, CbcConfig{}, &service);
  Status st = run.Deploy();
  if (!st.ok()) {
    std::printf("failed to start: %s\n", st.ToString().c_str());
    return 1;
  }
  DealChecker checker(&env.world(), spec, run.deployment().escrow_contracts);
  checker.CaptureInitial();
  env.world().scheduler().Run();
  DealResult result = run.Collect();

  std::printf("CBC outcome: %s (atomic: %s)\n",
              DealOutcomeName(result.outcome),
              result.atomic ? "yes" : "NO");

  auto* registry = env.RegistryOf(spec, tickets);
  auto* token = env.TokenOf(spec, coins);
  Holder ticket_owner = registry->OwnerOf(ticket);
  std::printf("ticket owner: %s\n",
              ticket_owner.is_party()
                  ? env.world().keys().NameOf(ticket_owner.party())
                        .value()
                        .c_str()
                  : "escrow");
  std::printf("coins: alice=%llu bob=%llu carol=%llu\n",
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(alice))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(bob))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(carol))));
  std::printf("strong liveness: %s\n",
              checker.StrongLivenessHolds() ? "PASS" : "FAIL");
  return checker.StrongLivenessHolds() ? 0 : 1;
}
