// Adversary gallery — the paper's attack scenarios, end to end.
//
//   1. A sweep of deviating-party strategies against the broker deal on
//      both protocols: the deal may abort, but no compliant party is ever
//      worse off (Theorem 5.1, §6.1).
//   2. The §5.3 denial-of-service window: Bob collects everyone's votes and
//      claims his coins while Alice and Carol are driven offline past their
//      forwarding deadlines — Bob ends up with coins AND tickets.
//      "Technically, this outcome is correct because Alice and Carol have
//      deviated from the protocol by not claiming their assets in time."
//   3. The §6.2 proof-of-work fake proof-of-abort: structurally valid, only
//      economics protects the deal; with a BFT CBC the forgery is rejected
//      outright.
//
// Build & run:  ./build/examples/adversary_gallery

#include <cstdio>

#include "cbc/pow.h"
#include "core/adversaries.h"
#include "core/checker.h"
#include "core/env.h"
#include "core/timelock_run.h"

using namespace xdeal;

namespace {

struct Broker {
  std::unique_ptr<DealEnv> env;
  DealSpec spec;
  PartyId alice, bob, carol;
  uint32_t tickets, coins;
  uint64_t t1, t2;
};

Broker MakeBroker(uint64_t seed, std::unique_ptr<NetworkModel> net = nullptr) {
  Broker b;
  EnvConfig config;
  config.seed = seed;
  config.network = std::move(net);
  b.env = std::make_unique<DealEnv>(std::move(config));
  b.alice = b.env->AddParty("alice");
  b.bob = b.env->AddParty("bob");
  b.carol = b.env->AddParty("carol");
  ChainId tc = b.env->AddChain("ticket-chain");
  ChainId cc = b.env->AddChain("coin-chain");
  b.spec.deal_id = MakeDealId("gallery", seed);
  b.spec.parties = {b.alice, b.bob, b.carol};
  b.tickets = b.env->AddNftAsset(&b.spec, tc, "tickets", b.bob);
  b.coins = b.env->AddFungibleAsset(&b.spec, cc, "coins", b.carol);
  b.t1 = b.env->MintTicket(b.spec, b.tickets, b.bob, "play", "A1", 95);
  b.t2 = b.env->MintTicket(b.spec, b.tickets, b.bob, "play", "A2", 95);
  b.env->Mint(b.spec, b.coins, b.carol, 101);
  b.spec.escrows = {{b.tickets, b.bob, b.t1},
                    {b.tickets, b.bob, b.t2},
                    {b.coins, b.carol, 101}};
  b.spec.transfers = {{b.tickets, b.bob, b.alice, b.t1},
                      {b.tickets, b.bob, b.alice, b.t2},
                      {b.coins, b.carol, b.alice, 101},
                      {b.tickets, b.alice, b.carol, b.t1},
                      {b.tickets, b.alice, b.carol, b.t2},
                      {b.coins, b.alice, b.bob, 100}};
  return b;
}

void RunGallerySweep() {
  std::printf("--- 1. deviation sweep on the broker deal (timelock) ---\n");
  struct Entry {
    const char* name;
    std::function<std::unique_ptr<TimelockParty>()> make;
    uint32_t deviant;
  };
  std::vector<Entry> gallery = {
      {"bob crashes before escrowing",
       [] { return std::make_unique<CrashingTimelockParty>(TlPhase::kEscrow); },
       1},
      {"alice crashes before transferring",
       [] {
         return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
       },
       0},
      {"carol withholds her vote",
       [] { return std::make_unique<VoteWithholdingParty>(); }, 2},
      {"alice shorts bob 1 coin",
       [] { return std::make_unique<ShortTransferParty>(); }, 0},
      {"bob votes 100000 ticks late",
       [] { return std::make_unique<LateVotingParty>(100000); }, 1},
      {"bob double-spends his tickets",
       [] { return std::make_unique<DoubleSpendingParty>(); }, 1},
  };
  std::printf("%-38s %-10s %-22s\n", "deviation", "outcome",
              "compliant parties");
  for (auto& entry : gallery) {
    Broker b = MakeBroker(100 + entry.deviant);
    TimelockConfig config;
    config.delta = 80;
    SingleDeviantFactory factory(entry.deviant, entry.make);
    TimelockRun run(&b.env->world(), b.spec, config, &factory);
    (void)run.Deploy();
    DealChecker checker(&b.env->world(), b.spec, run.escrow_contracts());
    checker.CaptureInitial();
    b.env->world().scheduler().Run();
    DealResult r = run.Collect();

    std::vector<PartyId> compliant;
    for (PartyId p : b.spec.parties) {
      if (p.v != entry.deviant) compliant.push_back(p);
    }
    bool safe = checker.SafetyHolds(compliant);
    bool live = checker.WeakLivenessHolds(compliant);
    const char* outcome = r.released_contracts == b.spec.NumAssets()
                              ? "COMMIT"
                              : (r.released_contracts == 0 ? "abort"
                                                           : "mixed");
    std::printf("%-38s %-10s safety:%s liveness:%s\n", entry.name, outcome,
                safe ? "OK" : "VIOLATED", live ? "OK" : "VIOLATED");
  }
}

void RunDosWindow() {
  std::printf("\n--- 2. the §5.3 DoS window (timelock) ---\n");
  // Attack window: after the commit phase opens, Alice and Carol are driven
  // offline (their messages are held) until after every vote deadline.
  // Bob has already harvested their votes from his incoming (coin) chain
  // and claims the coins; the ticket chain never sees Alice's and Carol's
  // forwarded votes in time and refunds the tickets... to Bob.
  auto base = std::make_unique<SynchronousNetwork>(1, 10);
  // Votes are cast at t0=440 and included by ~450-460. The attack begins at
  // 450: Alice's and Carol's own votes are already in flight, but they are
  // cut off before they can OBSERVE Bob's vote on the coin chain and
  // forward it to the ticket chain. Bob (untargeted) still forwards
  // Carol's vote to the coin chain, collects the coins, and the ticket
  // escrow times out — refunding the tickets to Bob.
  Tick attack_start = 450;
  Tick attack_end = 3000;  // beyond every deadline
  auto dos = std::make_unique<TargetedDosNetwork>(std::move(base),
                                                  attack_start, attack_end);
  TargetedDosNetwork* dos_ptr = dos.get();
  Broker b = MakeBroker(7, std::move(dos));
  dos_ptr->AddTarget(Endpoint{b.alice.v});
  dos_ptr->AddTarget(Endpoint{b.carol.v});

  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&b.env->world(), b.spec, config);
  (void)run.Deploy();
  DealChecker checker(&b.env->world(), b.spec, run.escrow_contracts());
  checker.CaptureInitial();
  b.env->world().scheduler().Run();
  DealResult r = run.Collect();

  auto* registry = b.env->RegistryOf(b.spec, b.tickets);
  auto* token = b.env->TokenOf(b.spec, b.coins);
  auto name_of = [&](Holder h) -> std::string {
    if (!h.is_party()) return "escrow";
    return b.env->world().keys().NameOf(h.party()).value_or("?");
  };
  std::printf("released=%zu refunded=%zu (a MIXED outcome)\n",
              r.released_contracts, r.refunded_contracts);
  std::printf("ticket A1 -> %s, coins: bob=%llu carol=%llu alice=%llu\n",
              name_of(registry->OwnerOf(b.t1)).c_str(),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(b.bob))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(b.carol))),
              static_cast<unsigned long long>(
                  token->BalanceOf(Holder::Party(b.alice))));
  PartyVerdict carol_verdict = checker.Evaluate(b.carol);
  std::printf("carol paid but got no tickets: outgoing_transferred=%s "
              "all_incoming_received=%s\n",
              carol_verdict.outgoing_transferred ? "yes" : "no",
              carol_verdict.all_incoming_received ? "yes" : "no");
  std::printf("paper's verdict: this is formally ALLOWED — by failing to "
              "forward/claim within Δ, Alice and Carol deviated (§5.3). "
              "The cure is a larger Δ or watchtowers.\n");

  // Same attack with Δ large enough to outlast the DoS: everyone is safe.
  auto base2 = std::make_unique<SynchronousNetwork>(1, 10);
  auto dos2 = std::make_unique<TargetedDosNetwork>(std::move(base2),
                                                   attack_start, attack_end);
  TargetedDosNetwork* dos2_ptr = dos2.get();
  Broker b2 = MakeBroker(7, std::move(dos2));
  dos2_ptr->AddTarget(Endpoint{b2.alice.v});
  dos2_ptr->AddTarget(Endpoint{b2.carol.v});
  TimelockConfig config2;
  config2.delta = 4000;  // Δ chosen to make the DoS "prohibitively expensive"
  TimelockRun run2(&b2.env->world(), b2.spec, config2);
  (void)run2.Deploy();
  DealChecker checker2(&b2.env->world(), b2.spec, run2.escrow_contracts());
  checker2.CaptureInitial();
  b2.env->world().scheduler().Run();
  DealResult r2 = run2.Collect();
  std::printf("with Δ=4000 outlasting the attack: released=%zu — %s\n",
              r2.released_contracts,
              checker2.StrongLivenessHolds() ? "deal COMMITS, everyone whole"
                                             : "still broken?!");
}

void RunPowForgery() {
  std::printf("\n--- 3. §6.2 fake proof-of-abort on a PoW CBC ---\n");
  const unsigned difficulty = 12;
  PowChain honest(difficulty);
  honest.Extend(Sha256Digest("startDeal D; commit alice; commit bob; "
                             "commit carol"),
                1);
  for (int i = 0; i < 4; ++i) {
    honest.Extend(Sha256Digest("confirmation"), 100 + i);
  }
  PowChain alice_private(difficulty);
  alice_private.Extend(Sha256Digest("startDeal D; abort alice"), 7);
  for (int i = 0; i < 4; ++i) {
    alice_private.Extend(Sha256Digest("private confirmation"), 900 + i);
  }
  auto honest_proof = honest.ProofSuffix(4);
  auto fake_proof = alice_private.ProofSuffix(4);
  std::printf("honest proof-of-commit verifies: %s\n",
              PowChain::VerifySegment(honest_proof.value(), difficulty).ok()
                  ? "yes"
                  : "no");
  std::printf("alice's PRIVATE proof-of-abort verifies: %s  <- a contract "
              "cannot tell the chains apart\n",
              PowChain::VerifySegment(fake_proof.value(), difficulty).ok()
                  ? "yes"
                  : "no");
  std::printf("economics is the only defense — confirmations needed so the "
              "expected gain of a 30%%-hashpower attacker stays under 1 "
              "coin:\n");
  for (double value : {100.0, 10000.0, 1000000.0}) {
    std::printf("  deal value %8.0f -> %u confirmations\n", value,
                ConfirmationsForValue(value, 0.30, 1.0));
  }
  std::printf("contrast: with a BFT CBC the same forgery carries only f "
              "signatures and is rejected (see cbc_integration_test "
              "FakeProofRejected).\n");
}

}  // namespace

int main() {
  std::printf("=== Adversary gallery: deviations, the DoS window, and PoW "
              "forgeries ===\n\n");
  RunGallerySweep();
  RunDosWindow();
  RunPowForgery();
  return 0;
}
