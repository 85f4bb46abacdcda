// Watchtower (§5.3): an always-online relay neutralizes the DoS window that
// otherwise lets Bob keep both the coins and the tickets.

#include <gtest/gtest.h>

#include "core/checker.h"
#include "core/timelock_run.h"
#include "core/watchtower.h"
#include "tests/scenario_util.h"

namespace xdeal {
namespace {

struct DosSetup {
  BrokerScenario scenario;
  std::unique_ptr<TimelockRun> run;
  std::unique_ptr<DealChecker> checker;
};

// Recreates the §5.3 attack from adversary_gallery: Alice and Carol are cut
// off right as the commit votes land, so they can neither forward Bob's vote
// to the ticket chain nor (being the same parties) have anyone do it for
// them — unless a watchtower exists.
DosSetup MakeDosRun(bool with_watchtower) {
  DosSetup setup;
  auto base = std::make_unique<SynchronousNetwork>(1, 10);
  auto dos = std::make_unique<TargetedDosNetwork>(std::move(base),
                                                  /*start=*/450,
                                                  /*end=*/3000);
  TargetedDosNetwork* dos_ptr = dos.get();
  setup.scenario = MakeBrokerScenario(7, std::move(dos));
  auto& s = setup.scenario;
  dos_ptr->AddTarget(Endpoint{s.alice.v});
  dos_ptr->AddTarget(Endpoint{s.carol.v});

  TimelockConfig config;
  config.delta = 80;
  setup.run = std::make_unique<TimelockRun>(&s.env->world(), s.spec, config);
  EXPECT_TRUE(setup.run->Deploy().ok());

  if (with_watchtower) {
    PartyId tower_op = s.env->AddParty("watchtower");
    static std::vector<std::unique_ptr<Watchtower>> towers;  // keep alive
    towers.push_back(std::make_unique<Watchtower>(
        &s.env->world(), s.spec, setup.run->deployment(), tower_op,
        std::vector<PartyId>{s.alice, s.carol}));
    towers.back()->Arm();
  }

  setup.checker = std::make_unique<DealChecker>(
      &s.env->world(), s.spec, setup.run->deployment().escrow_contracts);
  setup.checker->CaptureInitial();
  s.env->world().scheduler().Run();
  return setup;
}

TEST(WatchtowerTest, DosWindowWithoutTowerHurtsOfflineParties) {
  DosSetup setup = MakeDosRun(/*with_watchtower=*/false);
  auto& s = setup.scenario;
  DealResult result = setup.run->Collect();

  // Mixed outcome: coins released (Bob got paid), tickets refunded to Bob.
  EXPECT_EQ(result.released_contracts, 1u);
  EXPECT_EQ(result.refunded_contracts, 1u);
  auto* registry = s.env->RegistryOf(s.spec, s.tickets_asset);
  EXPECT_EQ(registry->OwnerOf(s.ticket1), Holder::Party(s.bob));

  PartyVerdict carol = setup.checker->Evaluate(s.carol);
  EXPECT_TRUE(carol.outgoing_transferred);
  EXPECT_FALSE(carol.all_incoming_received);
  EXPECT_FALSE(carol.property1);  // she IS worse off — but she deviated
                                  // (went offline past her deadlines)
}

TEST(WatchtowerTest, TowerNeutralizesTheAttack) {
  DosSetup setup = MakeDosRun(/*with_watchtower=*/true);
  auto& s = setup.scenario;
  DealResult result = setup.run->Collect();

  // The tower relayed Bob's vote to the ticket chain in time: both chains
  // commit and everyone is whole, despite the same DoS.
  EXPECT_EQ(result.released_contracts, 2u);
  EXPECT_EQ(result.refunded_contracts, 0u);
  EXPECT_TRUE(setup.checker->StrongLivenessHolds());
  auto* registry = s.env->RegistryOf(s.spec, s.tickets_asset);
  EXPECT_EQ(registry->OwnerOf(s.ticket1), Holder::Party(s.carol));
  for (PartyId p : s.spec.parties) {
    EXPECT_TRUE(setup.checker->Evaluate(p).property1);
  }
}

TEST(WatchtowerTest, TowerIsHarmlessInCleanRuns) {
  // No attack: the tower's relays are redundant (contracts dedupe votes)
  // and the deal commits normally.
  BrokerScenario s = MakeBrokerScenario(9);
  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&s.env->world(), s.spec, config);
  ASSERT_TRUE(run.Deploy().ok());
  PartyId tower_op = s.env->AddParty("watchtower");
  Watchtower tower(&s.env->world(), s.spec, run.deployment(), tower_op,
                   {s.alice, s.bob, s.carol});
  tower.Arm();
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  EXPECT_EQ(run.Collect().released_contracts, 2u);
  EXPECT_TRUE(checker.StrongLivenessHolds());
}

/// Every party escrows and transfers, then goes dark: no votes, no
/// forwarding, no refund claims.
class AllDeadFactory : public PartyFactory {
 public:
  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId) override {
    struct Dead : TimelockParty {
      void OnCommitPhase() override {}
      void OnObservedReceipt(const Receipt&) override {}
      void OnRefundWatch() override {}
    };
    return std::make_unique<Dead>();
  }
};

TEST(WatchtowerTest, TowerClaimsRefundsForOfflineDepositors) {
  // Everyone withholds votes AND nobody claims refunds (all offline after
  // escrow); the tower alone brings the assets home.
  BrokerScenario s = MakeBrokerScenario(10);
  TimelockConfig config;
  config.delta = 80;
  AllDeadFactory factory;
  TimelockRun run(&s.env->world(), s.spec, config, &factory);
  ASSERT_TRUE(run.Deploy().ok());
  PartyId tower_op = s.env->AddParty("watchtower");
  Watchtower tower(&s.env->world(), s.spec, run.deployment(), tower_op,
                   {s.bob, s.carol});
  tower.Arm();
  DealChecker checker(&s.env->world(), s.spec,
                      run.deployment().escrow_contracts);
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  DealResult result = run.Collect();
  EXPECT_EQ(result.refunded_contracts, 2u);
  EXPECT_TRUE(checker.Evaluate(s.bob).token_state_unchanged);
  EXPECT_TRUE(checker.Evaluate(s.carol).token_state_unchanged);
}

}  // namespace
}  // namespace xdeal
