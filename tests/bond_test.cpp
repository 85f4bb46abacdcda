// FirstFaultBondContract (§9): bonds returned on commit, forfeited by the
// parties whose missing votes caused a timeout, redistributed to the
// innocent.

#include <gtest/gtest.h>

#include "contracts/bond.h"
#include "chain/world.h"

namespace xdeal {
namespace {

struct BondFixture : public ::testing::Test {
  void SetUp() override {
    world = std::make_unique<World>(
        1, std::make_unique<SynchronousNetwork>(1, 5));
    a = world->RegisterParty("a");
    b = world->RegisterParty("b");
    c = world->RegisterParty("c");
    chain = world->CreateChain("chain", 10);

    // Asset token + escrow contract the bond is tied to.
    asset_token = chain->Deploy(std::make_unique<FungibleToken>("TOK", a));
    escrow_id = chain->Deploy(std::make_unique<TimelockEscrowContract>(
        AssetKind::kFungible, asset_token));
    escrow = chain->As<TimelockEscrowContract>(escrow_id);

    // Bond currency.
    bond_token = chain->Deploy(std::make_unique<FungibleToken>("BOND", a));
    bond_id = chain->Deploy(std::make_unique<FirstFaultBondContract>(
        bond_token, escrow_id, std::vector<PartyId>{a, b, c},
        /*bond_amount=*/10));
    bond = chain->As<FirstFaultBondContract>(bond_id);

    info.deal_id = MakeDealId("bond-unit", 1);
    info.plist = {a, b, c};
    info.t0 = 1000;
    info.delta = 100;

    auto* tok = chain->As<FungibleToken>(asset_token);
    auto* btok = chain->As<FungibleToken>(bond_token);
    for (PartyId p : {a, b, c}) {
      btok->Mint(Holder::Party(p), 10);
      CallContext ctx = Ctx(p, 0);
      btok->Approve(ctx, Holder::Party(p), Holder::Party(p),
                    Holder::OfContract(bond_id), 10);
    }
    tok->Mint(Holder::Party(a), 50);
    CallContext ctx = Ctx(a, 0);
    tok->Approve(ctx, Holder::Party(a), Holder::Party(a),
                 Holder::OfContract(escrow_id), 50);
    ASSERT_TRUE(InvokeEscrow(a, 0, 50).ok());
  }

  CallContext Ctx(PartyId sender, Tick now) {
    gas = std::make_unique<GasMeter>();
    CallContext ctx;
    ctx.world = world.get();
    ctx.chain = chain;
    ctx.sender = sender;
    ctx.now = now;
    ctx.gas = gas.get();
    return ctx;
  }

  Status InvokeEscrow(PartyId sender, Tick now, uint64_t value) {
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    w.U32(3);
    w.U32(a.v);
    w.U32(b.v);
    w.U32(c.v);
    w.U64(info.t0);
    w.U64(info.delta);
    w.U64(value);
    CallContext ctx = Ctx(sender, now);
    ByteReader args(w.bytes());
    auto r = escrow->Invoke(ctx, "escrow", args);
    return r.ok() ? Status::OK() : r.status();
  }

  Status Vote(PartyId voter, Tick now) {
    PathVote vote;
    vote.voter = voter;
    vote.path.emplace_back(
        voter, world->KeyPairOf(voter).Sign(
                   TimelockVoteMessage(info.deal_id, voter, 0)));
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    vote.AppendTo(&w);
    CallContext ctx = Ctx(voter, now);
    ByteReader args(w.bytes());
    auto r = escrow->Invoke(ctx, "commit", args);
    return r.ok() ? Status::OK() : r.status();
  }

  Status Refund(Tick now) {
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    CallContext ctx = Ctx(a, now);
    ByteReader args(w.bytes());
    auto r = escrow->Invoke(ctx, "claimRefund", args);
    return r.ok() ? Status::OK() : r.status();
  }

  Status BondCall(PartyId sender, const char* fn, Tick now = 0) {
    CallContext ctx = Ctx(sender, now);
    Bytes empty;
    ByteReader args(empty);
    auto r = bond->Invoke(ctx, fn, args);
    return r.ok() ? Status::OK() : r.status();
  }

  uint64_t BondBalance(PartyId p) {
    return chain->As<FungibleToken>(bond_token)->BalanceOf(Holder::Party(p));
  }

  std::unique_ptr<World> world;
  PartyId a, b, c;
  Blockchain* chain = nullptr;
  ContractId asset_token, escrow_id, bond_token, bond_id;
  TimelockEscrowContract* escrow = nullptr;
  FirstFaultBondContract* bond = nullptr;
  DealInfo info;
  std::unique_ptr<GasMeter> gas;
};

TEST_F(BondFixture, DepositRules) {
  EXPECT_TRUE(BondCall(a, "deposit").ok());
  EXPECT_TRUE(bond->HasDeposited(a));
  EXPECT_EQ(BondBalance(a), 0u);
  EXPECT_EQ(BondCall(a, "deposit").code(), StatusCode::kAlreadyExists);

  PartyId outsider = world->RegisterParty("m");
  EXPECT_EQ(BondCall(outsider, "deposit").code(),
            StatusCode::kPermissionDenied);
}

TEST_F(BondFixture, ClaimBeforeSettlementRejected) {
  ASSERT_TRUE(BondCall(a, "deposit").ok());
  EXPECT_EQ(BondCall(a, "claim").code(), StatusCode::kFailedPrecondition);
}

TEST_F(BondFixture, CommitReturnsAllBonds) {
  for (PartyId p : {a, b, c}) ASSERT_TRUE(BondCall(p, "deposit").ok());
  ASSERT_TRUE(Vote(a, info.t0 + 10).ok());
  ASSERT_TRUE(Vote(b, info.t0 + 10).ok());
  ASSERT_TRUE(Vote(c, info.t0 + 10).ok());
  ASSERT_TRUE(escrow->Released());

  for (PartyId p : {a, b, c}) {
    EXPECT_TRUE(BondCall(p, "claim", info.t0 + 20).ok());
    EXPECT_EQ(BondBalance(p), 10u);
  }
}

TEST_F(BondFixture, TimeoutForfeitsNonVotersBonds) {
  for (PartyId p : {a, b, c}) ASSERT_TRUE(BondCall(p, "deposit").ok());
  // a and b vote; c never does -> timeout refund.
  ASSERT_TRUE(Vote(a, info.t0 + 10).ok());
  ASSERT_TRUE(Vote(b, info.t0 + 10).ok());
  ASSERT_TRUE(Refund(info.t0 + 301).ok());

  EXPECT_TRUE(BondCall(a, "claim", info.t0 + 310).ok());
  EXPECT_TRUE(BondCall(b, "claim", info.t0 + 310).ok());
  EXPECT_TRUE(BondCall(c, "claim", info.t0 + 310).ok());  // records forfeit
  // c's 10 split between a and b: 10 + 5 each; c gets nothing.
  EXPECT_EQ(BondBalance(a), 15u);
  EXPECT_EQ(BondBalance(b), 15u);
  EXPECT_EQ(BondBalance(c), 0u);
}

TEST_F(BondFixture, NobodyVotedNoFirstFault) {
  for (PartyId p : {a, b, c}) ASSERT_TRUE(BondCall(p, "deposit").ok());
  ASSERT_TRUE(Refund(info.t0 + 301).ok());
  for (PartyId p : {a, b, c}) {
    EXPECT_TRUE(BondCall(p, "claim", info.t0 + 310).ok());
    EXPECT_EQ(BondBalance(p), 10u);
  }
}

TEST_F(BondFixture, DoubleClaimRejected) {
  for (PartyId p : {a, b, c}) ASSERT_TRUE(BondCall(p, "deposit").ok());
  ASSERT_TRUE(Vote(a, info.t0 + 10).ok());
  ASSERT_TRUE(Refund(info.t0 + 301).ok());
  ASSERT_TRUE(BondCall(a, "claim", info.t0 + 310).ok());
  EXPECT_EQ(BondCall(a, "claim", info.t0 + 311).code(),
            StatusCode::kAlreadyExists);
  // a alone was innocent: it takes both forfeited bonds (10 + 20).
  EXPECT_EQ(BondBalance(a), 30u);
}

TEST_F(BondFixture, PayoutOfViewMatchesClaims) {
  for (PartyId p : {a, b, c}) ASSERT_TRUE(BondCall(p, "deposit").ok());
  ASSERT_TRUE(Vote(b, info.t0 + 10).ok());
  ASSERT_TRUE(Refund(info.t0 + 301).ok());
  CallContext ctx = Ctx(a, info.t0 + 305);
  EXPECT_EQ(bond->PayoutOf(ctx, a), 0u);
  EXPECT_EQ(bond->PayoutOf(ctx, b), 30u);
  EXPECT_EQ(bond->PayoutOf(ctx, c), 0u);
}

}  // namespace
}  // namespace xdeal
