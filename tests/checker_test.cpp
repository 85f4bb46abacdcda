// DealChecker: the Property 1/2/3 evaluator itself, exercised on crafted
// end states (including the mixed-settlement case that distinguishes
// "worse off" from "merely aborted").

#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/timelock_run.h"
#include "core/adversaries.h"
#include "tests/scenario_util.h"

namespace xdeal {
namespace {

TEST(LedgerSnapshotTest, CapturesBalancesAndTickets) {
  BrokerScenario s = MakeBrokerScenario(1);
  LedgerSnapshot snap = LedgerSnapshot::Capture(s.env->world(), s.spec);
  ASSERT_EQ(snap.balances.size(), 2u);
  EXPECT_EQ(snap.balances[s.coins_asset].at(s.carol.v), 101u);
  EXPECT_EQ(snap.ticket_owners[s.tickets_asset].at(s.ticket1), s.bob.v);
  EXPECT_EQ(snap.ticket_owners[s.tickets_asset].at(s.ticket2), s.bob.v);
}

TEST(CheckerTest, CommittedRunVerdicts) {
  BrokerScenario s = MakeBrokerScenario(2);
  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&s.env->world(), s.spec, config);
  ASSERT_TRUE(run.Deploy().ok());
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  for (PartyId p : s.spec.parties) {
    PartyVerdict v = checker.Evaluate(p);
    EXPECT_TRUE(v.outgoing_transferred);
    EXPECT_TRUE(v.all_incoming_received);
    EXPECT_TRUE(v.property1);
    EXPECT_TRUE(v.weak_liveness);
    EXPECT_TRUE(v.token_state_expected);
    EXPECT_FALSE(v.token_state_unchanged);  // assets moved
  }
  EXPECT_TRUE(checker.Atomic());
  EXPECT_TRUE(checker.StrongLivenessHolds());
}

/// Every party withholds its vote.
class AllWithholdFactory : public PartyFactory {
 public:
  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId) override {
    return std::make_unique<VoteWithholdingParty>();
  }
};

TEST(CheckerTest, AbortedRunVerdicts) {
  BrokerScenario s = MakeBrokerScenario(3);
  TimelockConfig config;
  config.delta = 80;
  AllWithholdFactory factory;
  TimelockRun run(&s.env->world(), s.spec, config, &factory);
  ASSERT_TRUE(run.Deploy().ok());
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  for (PartyId p : s.spec.parties) {
    PartyVerdict v = checker.Evaluate(p);
    EXPECT_FALSE(v.outgoing_transferred);
    EXPECT_FALSE(v.all_incoming_received);
    EXPECT_TRUE(v.property1);  // paid nothing => safe
    EXPECT_TRUE(v.weak_liveness);
    EXPECT_TRUE(v.token_state_unchanged);
    EXPECT_FALSE(v.token_state_expected);
  }
  EXPECT_TRUE(checker.Atomic());          // all refunded = not mixed
  EXPECT_FALSE(checker.StrongLivenessHolds());
}

TEST(CheckerTest, MixedOutcomeDetectedAsUnsafeForVictim) {
  // Reuse the §5.3 DoS attack: coins commit, tickets refund.
  auto base = std::make_unique<SynchronousNetwork>(1, 10);
  auto dos = std::make_unique<TargetedDosNetwork>(std::move(base), 450, 3000);
  TargetedDosNetwork* dos_ptr = dos.get();
  BrokerScenario s = MakeBrokerScenario(7, std::move(dos));
  dos_ptr->AddTarget(Endpoint{s.alice.v});
  dos_ptr->AddTarget(Endpoint{s.carol.v});
  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&s.env->world(), s.spec, config);
  ASSERT_TRUE(run.Deploy().ok());
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  EXPECT_FALSE(checker.Atomic());  // mixed settlement

  PartyVerdict carol = checker.Evaluate(s.carol);
  EXPECT_TRUE(carol.outgoing_transferred);     // her coins went out
  EXPECT_FALSE(carol.all_incoming_received);   // no tickets came in
  EXPECT_FALSE(carol.property1);               // worse off — detected

  PartyVerdict bob = checker.Evaluate(s.bob);
  EXPECT_TRUE(bob.property1);  // Bob got coins AND tickets back: not harmed

  // Weak liveness still holds for everyone: nothing stays locked.
  EXPECT_TRUE(
      checker.WeakLivenessHolds({s.alice, s.bob, s.carol}));
}

TEST(CheckerTest, SafetyHoldsShortCircuitsOnViolation) {
  auto base = std::make_unique<SynchronousNetwork>(1, 10);
  auto dos = std::make_unique<TargetedDosNetwork>(std::move(base), 450, 3000);
  TargetedDosNetwork* dos_ptr = dos.get();
  BrokerScenario s = MakeBrokerScenario(7, std::move(dos));
  dos_ptr->AddTarget(Endpoint{s.alice.v});
  dos_ptr->AddTarget(Endpoint{s.carol.v});
  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&s.env->world(), s.spec, config);
  ASSERT_TRUE(run.Deploy().ok());
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  EXPECT_FALSE(checker.SafetyHolds({s.alice, s.bob, s.carol}));
  EXPECT_TRUE(checker.SafetyHolds({s.bob}));
}

}  // namespace
}  // namespace xdeal
