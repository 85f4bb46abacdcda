// End-to-end timelock protocol (§5): the Figure 1 broker deal commits with
// compliant parties; aborts cleanly under deviations; safety (Property 1),
// weak liveness (Property 2), and strong liveness (Property 3) hold.

#include <gtest/gtest.h>

#include "core/adversaries.h"
#include "core/checker.h"
#include "core/timelock_run.h"
#include "tests/scenario_util.h"

namespace xdeal {
namespace {

TimelockConfig DefaultConfig() {
  TimelockConfig config;
  config.delta = 80;
  return config;
}

struct RunOutput {
  DealResult result;
  std::unique_ptr<DealChecker> checker;
  BrokerScenario scenario;
};

RunOutput RunBroker(uint64_t seed, PartyFactory* factory,
                    TimelockConfig config = DefaultConfig()) {
  RunOutput out;
  out.scenario = MakeBrokerScenario(seed);
  auto& s = out.scenario;
  TimelockRun run(&s.env->world(), s.spec, config, factory);
  EXPECT_TRUE(run.Deploy().ok());
  out.checker = std::make_unique<DealChecker>(
      &s.env->world(), s.spec, run.deployment().escrow_contracts);
  out.checker->CaptureInitial();
  s.env->world().scheduler().Run();
  out.result = run.Collect();
  return out;
}

TEST(TimelockBrokerTest, AllCompliantCommits) {
  RunOutput out = RunBroker(7, nullptr);
  EXPECT_TRUE(out.result.all_settled);
  EXPECT_EQ(out.result.released_contracts, 2u);
  EXPECT_EQ(out.result.refunded_contracts, 0u);

  // Property 3: all transfers happen.
  EXPECT_TRUE(out.checker->StrongLivenessHolds());

  // Token-level: Carol owns both tickets, Bob has 100 coins, Alice 1.
  auto& s = out.scenario;
  auto* registry = s.env->RegistryOf(s.spec, s.tickets_asset);
  EXPECT_EQ(registry->OwnerOf(s.ticket1), Holder::Party(s.carol));
  EXPECT_EQ(registry->OwnerOf(s.ticket2), Holder::Party(s.carol));
  auto* coins = s.env->TokenOf(s.spec, s.coins_asset);
  EXPECT_EQ(coins->BalanceOf(Holder::Party(s.bob)), 100u);
  EXPECT_EQ(coins->BalanceOf(Holder::Party(s.alice)), 1u);
  EXPECT_EQ(coins->BalanceOf(Holder::Party(s.carol)), 0u);
}

TEST(TimelockBrokerTest, CommitAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    RunOutput out = RunBroker(seed, nullptr);
    EXPECT_TRUE(out.checker->StrongLivenessHolds()) << "seed " << seed;
  }
}

TEST(TimelockBrokerTest, VoteWithholderAborts) {
  // Carol never votes: every contract times out and refunds; nobody loses.
  SingleDeviantFactory factory(2, [] {  // carol
    return std::make_unique<VoteWithholdingParty>();
  });
  auto out = RunBroker(3, &factory);
  EXPECT_TRUE(out.result.all_settled);
  EXPECT_EQ(out.result.released_contracts, 0u);
  EXPECT_EQ(out.result.refunded_contracts, 2u);

  auto& s = out.scenario;
  std::vector<PartyId> compliant = {s.alice, s.bob};
  EXPECT_TRUE(out.checker->SafetyHolds(compliant));
  EXPECT_TRUE(out.checker->WeakLivenessHolds(compliant));
  // Everyone (even the deviator) ends where they started.
  for (PartyId p : s.spec.parties) {
    EXPECT_TRUE(out.checker->Evaluate(p).token_state_unchanged);
  }
}

TEST(TimelockBrokerTest, CrashAtEscrowAborts) {
  SingleDeviantFactory factory(1, [] {  // bob never escrows
    return std::make_unique<CrashingTimelockParty>(TlPhase::kEscrow);
  });
  auto out = RunBroker(4, &factory);
  EXPECT_EQ(out.result.released_contracts, 0u);
  auto& s = out.scenario;
  std::vector<PartyId> compliant = {s.alice, s.carol};
  EXPECT_TRUE(out.checker->SafetyHolds(compliant));
  EXPECT_TRUE(out.checker->WeakLivenessHolds(compliant));
  for (PartyId p : compliant) {
    EXPECT_TRUE(out.checker->Evaluate(p).token_state_unchanged);
  }
}

TEST(TimelockBrokerTest, CrashAtTransferAborts) {
  SingleDeviantFactory factory(1, [] {
    return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
  });
  auto out = RunBroker(5, &factory);
  EXPECT_EQ(out.result.released_contracts, 0u);
  auto& s = out.scenario;
  std::vector<PartyId> compliant = {s.alice, s.carol};
  EXPECT_TRUE(out.checker->SafetyHolds(compliant));
  EXPECT_TRUE(out.checker->WeakLivenessHolds(compliant));
}

TEST(TimelockBrokerTest, NonForwarderStillCommits) {
  // Alice refuses to forward votes; Bob and Carol's forwarding suffices
  // (and Alice's own votes reach both chains since she has incoming assets
  // on both).
  SingleDeviantFactory factory(0, [] {
    return std::make_unique<NonForwardingParty>();
  });
  auto out = RunBroker(6, &factory);
  EXPECT_EQ(out.result.released_contracts, 2u);
  EXPECT_TRUE(out.checker->StrongLivenessHolds());
}

TEST(TimelockBrokerTest, ShortTransferCausesAbort) {
  // Alice sends Bob 99 coins instead of 100: Bob's validation fails, he
  // never votes, everything refunds.
  SingleDeviantFactory factory(0, [] {
    return std::make_unique<ShortTransferParty>();
  });
  auto out = RunBroker(8, &factory);
  EXPECT_EQ(out.result.released_contracts, 0u);
  EXPECT_EQ(out.result.refunded_contracts, 2u);
  auto& s = out.scenario;
  std::vector<PartyId> compliant = {s.bob, s.carol};
  EXPECT_TRUE(out.checker->SafetyHolds(compliant));
  for (PartyId p : compliant) {
    EXPECT_TRUE(out.checker->Evaluate(p).token_state_unchanged);
  }
}

TEST(TimelockBrokerTest, DoubleSpendRejectedDealStillCommits) {
  // Bob tries to tentatively transfer the same tickets twice; the escrow
  // contract rejects the second transfer and the deal proceeds normally.
  SingleDeviantFactory factory(1, [] {
    return std::make_unique<DoubleSpendingParty>();
  });
  auto out = RunBroker(9, &factory);
  EXPECT_EQ(out.result.released_contracts, 2u);
  EXPECT_TRUE(out.checker->StrongLivenessHolds());

  // The conflicting transfer must have failed on-chain.
  auto& s = out.scenario;
  const Blockchain* chain =
      s.env->world().chain(s.spec.assets[s.tickets_asset].chain);
  size_t failed_transfers = 0;
  for (const Receipt& r : chain->receipts()) {
    if (r.function == "transfer" && !r.status.ok()) ++failed_transfers;
  }
  EXPECT_GT(failed_transfers, 0u);
}

TEST(TimelockBrokerTest, LateVoteAborts) {
  // Carol votes far too late (past t0 + N·Δ): contracts refuse her vote and
  // refund everyone.
  SingleDeviantFactory factory(2, [] {
    return std::make_unique<LateVotingParty>(10000);
  });
  auto out = RunBroker(10, &factory);
  EXPECT_EQ(out.result.released_contracts, 0u);
  EXPECT_EQ(out.result.refunded_contracts, 2u);
  auto& s = out.scenario;
  EXPECT_TRUE(out.checker->SafetyHolds({s.alice, s.bob}));
}

TEST(TimelockBrokerTest, DirectVotesCommitFaster) {
  TimelockConfig chained = DefaultConfig();
  TimelockConfig direct = DefaultConfig();
  direct.direct_votes = true;

  auto slow = RunBroker(11, nullptr, chained);
  auto fast = RunBroker(11, nullptr, direct);
  ASSERT_TRUE(slow.result.all_settled);
  ASSERT_TRUE(fast.result.all_settled);
  EXPECT_TRUE(fast.checker->StrongLivenessHolds());
  // Direct (altruistic) voting never needs the forwarding chain, so the
  // commit phase cannot finish later than the chained run.
  EXPECT_LE(fast.result.commit_phase_end, slow.result.commit_phase_end);
}

TEST(TimelockBrokerTest, RefundAfterTimeoutIsIdempotent) {
  // Two parties race to claim the refund; the second claim fails cleanly.
  SingleDeviantFactory factory(0, [] {
    return std::make_unique<VoteWithholdingParty>();
  });
  auto out = RunBroker(12, &factory);
  EXPECT_EQ(out.result.refunded_contracts, 2u);
  // All compliant balances intact.
  auto& s = out.scenario;
  EXPECT_TRUE(out.checker->Evaluate(s.bob).token_state_unchanged);
  EXPECT_TRUE(out.checker->Evaluate(s.carol).token_state_unchanged);
}

}  // namespace
}  // namespace xdeal
