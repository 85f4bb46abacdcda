// The unified deal-execution API. One DealTimings schedule drives either
// protocol's DealRuntime (TimelockRun or CbcRun); the shared §4.1 backing
// check rejects escrows that do not hold what a party was promised; the
// PartyFactory hook injects adversaries and watchtowers uniformly; and
// unsafe CBC configs (abort_patience < Δ) are rejected at deploy time
// instead of silently running.

#include <gtest/gtest.h>

#include <memory>

#include "cbc/cbc_service.h"
#include "core/adversaries.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/deal_runtime.h"
#include "core/timelock_run.h"
#include "core/watchtower.h"
#include "tests/scenario_util.h"

namespace xdeal {
namespace {

TEST(DealTimingsTest, PerProtocolDefaultsMatchTheHistoricalConfigs) {
  DealTimings tl = DealTimings::DefaultsFor(Protocol::kTimelock);
  EXPECT_EQ(tl.escrow_time, 50u);
  EXPECT_EQ(tl.transfer_start, 150u);
  EXPECT_EQ(tl.step_gap, 40u);
  EXPECT_EQ(tl.validation_slack, 50u);
  EXPECT_EQ(tl.delta, 200u);

  DealTimings cbc = DealTimings::DefaultsFor(Protocol::kCbc);
  EXPECT_EQ(cbc.start_deal_time, 20u);
  EXPECT_EQ(cbc.escrow_time, 80u);
  EXPECT_EQ(cbc.transfer_start, 180u);

  // The config structs inherit the same numbers — one source of truth.
  TimelockConfig tl_config;
  EXPECT_EQ(tl_config.escrow_time, tl.escrow_time);
  EXPECT_EQ(tl_config.transfer_start, tl.transfer_start);
  CbcConfig cbc_config;
  EXPECT_EQ(cbc_config.escrow_time, cbc.escrow_time);
  EXPECT_EQ(cbc_config.transfer_start, cbc.transfer_start);
}

TEST(DealTimingsTest, ShiftByMovesAbsoluteTimesOnly) {
  DealTimings t = DealTimings::DefaultsFor(Protocol::kCbc);
  DealTimings shifted = t;
  shifted.ShiftBy(1000);
  EXPECT_EQ(shifted.setup_time, t.setup_time + 1000);
  EXPECT_EQ(shifted.start_deal_time, t.start_deal_time + 1000);
  EXPECT_EQ(shifted.escrow_time, t.escrow_time + 1000);
  EXPECT_EQ(shifted.transfer_start, t.transfer_start + 1000);
  // Durations are not offsets.
  EXPECT_EQ(shifted.step_gap, t.step_gap);
  EXPECT_EQ(shifted.validation_slack, t.validation_slack);
  EXPECT_EQ(shifted.delta, t.delta);
}

TEST(DealTimingsTest, ValidationTimeCoversTheTransferWindow) {
  DealTimings t;
  t.transfer_start = 100;
  t.step_gap = 40;
  t.validation_slack = 50;
  t.parallel_transfers = false;
  EXPECT_EQ(t.ValidationTime(6), 100u + 6 * 40 + 50);
  t.parallel_transfers = true;
  EXPECT_EQ(t.ValidationTime(6), 100u + 1 * 40 + 50);
}

TEST(ProtocolTest, ToStringNamesEveryProtocol) {
  EXPECT_STREQ(ToString(Protocol::kTimelock), "timelock");
  EXPECT_STREQ(ToString(Protocol::kCbc), "cbc");
  EXPECT_STREQ(ToString(Protocol::kHtlc), "htlc");
}

// The shared §4.1 backing check on a hand-built chain: one token ledger,
// one ticket registry, and a timelock escrow for each holding what alice
// deposited.
struct BackingFixture : public ::testing::Test {
  void SetUp() override {
    world = std::make_unique<World>(
        1, std::make_unique<SynchronousNetwork>(1, 5));
    alice = world->RegisterParty("alice");
    bob = world->RegisterParty("bob");
    chain = world->CreateChain("c", 10);
    coin.chain = chain->id();
    coin.token = chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
    coin.kind = AssetKind::kFungible;
    seats.chain = chain->id();
    seats.token = chain->Deploy(std::make_unique<TicketRegistry>(alice));
    seats.kind = AssetKind::kNft;
    coin_escrow = chain->Deploy(
        std::make_unique<TimelockEscrowContract>(coin.kind, coin.token));
    seat_escrow = chain->Deploy(
        std::make_unique<TimelockEscrowContract>(seats.kind, seats.token));

    token()->Mint(Holder::Party(alice), 50);
    ticket = registry()->Mint(Holder::Party(alice), {"play", "A1", 90});
    GasMeter gas;
    CallContext ctx = Ctx(&gas);
    ASSERT_TRUE(token()
                    ->Approve(ctx, Holder::Party(alice), Holder::Party(alice),
                              Holder::OfContract(coin_escrow), 50)
                    .ok());
    ASSERT_TRUE(registry()
                    ->Approve(ctx, Holder::Party(alice), ticket,
                              Holder::OfContract(seat_escrow))
                    .ok());
    ASSERT_TRUE(Escrow(coin_escrow, 50).ok());
    ASSERT_TRUE(Escrow(seat_escrow, ticket).ok());
  }

  CallContext Ctx(GasMeter* gas) {
    CallContext ctx;
    ctx.world = world.get();
    ctx.chain = chain;
    ctx.sender = alice;
    ctx.gas = gas;
    return ctx;
  }

  Status Escrow(ContractId escrow, uint64_t value) {
    ByteWriter w;
    w.Raw(MakeDealId("backing", 1).bytes.data(), 32);
    w.U32(2);
    w.U32(alice.v);
    w.U32(bob.v);
    w.U64(/*t0=*/1000);
    w.U64(/*delta=*/100);
    w.U64(value);
    Bytes args = w.Take();
    ByteReader r(args);
    GasMeter gas;
    CallContext ctx = Ctx(&gas);
    auto out = chain->As<TimelockEscrowContract>(escrow)->Invoke(ctx, "escrow",
                                                                 r);
    return out.ok() ? Status::OK() : out.status();
  }

  FungibleToken* token() { return chain->As<FungibleToken>(coin.token); }
  TicketRegistry* registry() { return chain->As<TicketRegistry>(seats.token); }

  std::unique_ptr<World> world;
  PartyId alice, bob;
  Blockchain* chain = nullptr;
  AssetRef coin, seats;
  ContractId coin_escrow, seat_escrow;
  uint64_t ticket = 0;
};

TEST_F(BackingFixture, EscrowThatHoldsThePromiseBacksIt) {
  DealSpec::Expectation amount;
  amount.fungible_amount = 50;
  EXPECT_TRUE(
      EscrowBacksExpectation(*world, coin, coin_escrow, alice, amount));
  DealSpec::Expectation seat;
  seat.tickets = {ticket};
  EXPECT_TRUE(
      EscrowBacksExpectation(*world, seats, seat_escrow, alice, seat));
}

TEST_F(BackingFixture, WrongOnCommitAmountIsNotBacked) {
  DealSpec::Expectation amount;
  amount.fungible_amount = 40;  // the escrow records 50 for alice
  EXPECT_FALSE(
      EscrowBacksExpectation(*world, coin, coin_escrow, alice, amount));
  amount.fungible_amount = 50;  // bob was promised nothing here
  EXPECT_FALSE(
      EscrowBacksExpectation(*world, coin, coin_escrow, bob, amount));
}

TEST_F(BackingFixture, EscrowHoldingLessThanPromisedIsNotBacked) {
  // The escrow's books still say 50 for alice, but 10 of the tokens left
  // it behind the books' back: the ledger is what counts.
  GasMeter gas;
  CallContext ctx = Ctx(&gas);
  Holder escrow = Holder::OfContract(coin_escrow);
  ASSERT_TRUE(
      token()->Transfer(ctx, escrow, escrow, Holder::Party(bob), 10).ok());
  DealSpec::Expectation amount;
  amount.fungible_amount = 50;
  EXPECT_FALSE(
      EscrowBacksExpectation(*world, coin, coin_escrow, alice, amount));
}

TEST_F(BackingFixture, TicketTheRegistryDoesNotGiveTheEscrowIsNotBacked) {
  GasMeter gas;
  CallContext ctx = Ctx(&gas);
  Holder escrow = Holder::OfContract(seat_escrow);
  ASSERT_TRUE(registry()
                  ->TransferFrom(ctx, escrow, escrow, Holder::Party(bob),
                                 ticket)
                  .ok());
  DealSpec::Expectation seat;
  seat.tickets = {ticket};
  EXPECT_FALSE(
      EscrowBacksExpectation(*world, seats, seat_escrow, alice, seat));
}

TEST(ProtocolDriverTest, CbcDriverCommitsTheBrokerDeal) {
  BrokerScenario s = MakeBrokerScenario(6);
  CbcService service(&s.env->world(), CbcService::Options{});
  CbcRun run(&s.env->world(), s.spec, CbcConfig{}, &service);
  DealRuntime& runtime = run;
  ASSERT_TRUE(runtime.Deploy().ok());
  DealChecker checker(&s.env->world(), s.spec, runtime.escrow_contracts());
  checker.CaptureInitial();
  s.env->world().scheduler().Run();

  DealResult result = runtime.Collect();
  EXPECT_EQ(result.protocol, Protocol::kCbc);
  EXPECT_EQ(result.outcome, kDealCommitted);
  EXPECT_TRUE(result.committed);
  EXPECT_TRUE(result.all_settled);
  EXPECT_TRUE(result.atomic);
  EXPECT_GT(result.gas_vote, 0u);
  EXPECT_GT(result.gas_decide, 0u);
  EXPECT_GT(result.sig_verifies, 0u);
  EXPECT_TRUE(checker.StrongLivenessHolds());
}

/// One factory type that deviates under either protocol — the uniformity
/// the PartyFactory hook buys.
class DeviantFactory : public PartyFactory {
 public:
  explicit DeviantFactory(uint32_t deviant) : deviant_(deviant) {}

  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId p) override {
    if (p.v == deviant_) return std::make_unique<VoteWithholdingParty>();
    return nullptr;
  }
  std::unique_ptr<CbcParty> MakeCbcParty(PartyId p) override {
    if (p.v == deviant_) return std::make_unique<CbcAlwaysAbortParty>();
    return nullptr;
  }

 private:
  uint32_t deviant_;
};

TEST(ProtocolDriverTest, OnePartyFactoryServesBothProtocols) {
  // Timelock: the withheld vote forces a full refund.
  {
    BrokerScenario s = MakeBrokerScenario(8);
    DeviantFactory factory(s.bob.v);
    TimelockConfig config;
    config.delta = 80;
    TimelockRun run(&s.env->world(), s.spec, config, &factory);
    ASSERT_TRUE(run.Deploy().ok());
    s.env->world().scheduler().Run();
    DealResult result = run.Collect();
    EXPECT_TRUE(result.aborted);
    EXPECT_EQ(result.released_contracts, 0u);
  }
  // CBC: the same factory's abort vote aborts the deal atomically.
  {
    BrokerScenario s = MakeBrokerScenario(8);
    CbcService service(&s.env->world(), CbcService::Options{});
    DeviantFactory factory(s.bob.v);
    CbcRun run(&s.env->world(), s.spec, CbcConfig{}, &service, &factory);
    ASSERT_TRUE(run.Deploy().ok());
    s.env->world().scheduler().Run();
    DealResult result = run.Collect();
    EXPECT_EQ(result.outcome, kDealAborted);
    EXPECT_TRUE(result.atomic);
  }
}

class TowerFactory : public PartyFactory {
 public:
  std::unique_ptr<Watchtower> tower;
  size_t escrows_seen = 0;

  void OnDeployed(DealRuntime& runtime) override {
    escrows_seen = runtime.escrow_contracts().size();
    TimelockRun* run = runtime.timelock_run();
    ASSERT_NE(run, nullptr);
    PartyId op = run->world().RegisterParty("hook-tower");
    tower = std::make_unique<Watchtower>(&run->world(), runtime.spec(),
                                         run->deployment(), op,
                                         runtime.spec().parties);
    tower->Arm();
  }
};

TEST(ProtocolDriverTest, OnDeployedHookArmsAWatchtower) {
  BrokerScenario s = MakeBrokerScenario(9);
  TowerFactory factory;
  TimelockConfig config;
  config.delta = 80;
  TimelockRun run(&s.env->world(), s.spec, config, &factory);
  ASSERT_TRUE(run.Deploy().ok());
  EXPECT_EQ(factory.escrows_seen, s.spec.NumAssets());
  ASSERT_NE(factory.tower, nullptr);

  s.env->world().scheduler().Run();
  // Clean run: the tower is harmless and the deal commits.
  EXPECT_TRUE(run.Collect().committed);
}

TEST(ProtocolDriverTest, CbcAbortPatienceBelowDeltaIsRejected) {
  // Default patience is 400; a Δ above it violates the §6 "wait at least Δ
  // before rescinding" precondition and must be rejected before anything is
  // scheduled.
  BrokerScenario s = MakeBrokerScenario(10);
  CbcService service(&s.env->world(), CbcService::Options{});
  CbcConfig config;
  config.delta = 500;
  {
    CbcRun run(&s.env->world(), s.spec, config, &service);
    Status status = run.Deploy();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }

  // Raising the patience to Δ makes the same schedule acceptable.
  config.abort_patience = 500;
  CbcRun patient_run(&s.env->world(), s.spec, config, &service);
  EXPECT_TRUE(patient_run.Deploy().ok());
}

TEST(ProtocolDriverTest, DirectCbcRunRejectsUnsafePatienceToo) {
  // The validation lives in the engine: one tick short of Δ is still unsafe.
  BrokerScenario s = MakeBrokerScenario(11);
  CbcService service(&s.env->world(), CbcService::Options{});
  CbcConfig config;
  config.delta = 100;
  config.abort_patience = 99;
  CbcRun run(&s.env->world(), s.spec, config, &service);
  EXPECT_FALSE(run.Deploy().ok());
}

}  // namespace
}  // namespace xdeal
