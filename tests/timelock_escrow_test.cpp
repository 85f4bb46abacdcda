// TimelockEscrowContract (Figure 5) at the contract level: path-signature
// vote validation, per-path deadlines, duplicate/forged vote rejection, and
// refund timing.

#include <gtest/gtest.h>

#include "chain/world.h"
#include "contracts/timelock_escrow.h"

namespace xdeal {
namespace {

struct TimelockEscrowFixture : public ::testing::Test {
  void SetUp() override {
    world = std::make_unique<World>(
        1, std::make_unique<SynchronousNetwork>(1, 5));
    alice = world->RegisterParty("alice");
    bob = world->RegisterParty("bob");
    carol = world->RegisterParty("carol");
    outsider = world->RegisterParty("mallory");
    chain = world->CreateChain("c", 10);
    token_id = chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
    escrow_id = chain->Deploy(
        std::make_unique<TimelockEscrowContract>(AssetKind::kFungible,
                                                 token_id));
    contract = chain->As<TimelockEscrowContract>(escrow_id);

    info.deal_id = MakeDealId("unit", 1);
    info.plist = {alice, bob, carol};
    info.t0 = 1000;
    info.delta = 100;

    // Fund and approve Alice, then escrow 50 at t=0.
    auto* token = chain->As<FungibleToken>(token_id);
    token->Mint(Holder::Party(alice), 50);
    CallContext setup = Ctx(alice, 0);
    token->Approve(setup, Holder::Party(alice), Holder::Party(alice),
                   Holder::OfContract(escrow_id), 50);
    EXPECT_TRUE(InvokeEscrow(alice, 0, 50).ok());
  }

  CallContext Ctx(PartyId sender, Tick now) {
    ctx_gas = std::make_unique<GasMeter>();
    CallContext ctx;
    ctx.world = world.get();
    ctx.chain = chain;
    ctx.sender = sender;
    ctx.now = now;
    ctx.gas = ctx_gas.get();
    return ctx;
  }

  Status InvokeEscrow(PartyId sender, Tick now, uint64_t value) {
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    w.U32(static_cast<uint32_t>(info.plist.size()));
    for (PartyId p : info.plist) w.U32(p.v);
    w.U64(info.t0);
    w.U64(info.delta);
    w.U64(value);
    CallContext ctx = Ctx(sender, now);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "escrow", args);
    return r.ok() ? Status::OK() : r.status();
  }

  /// Builds a correctly signed path vote for `voter` forwarded by `path`
  /// (path[0] must be voter).
  PathVote MakeVote(PartyId voter, const std::vector<PartyId>& path) {
    PathVote vote;
    vote.voter = voter;
    for (uint32_t i = 0; i < path.size(); ++i) {
      vote.path.emplace_back(
          path[i], world->KeyPairOf(path[i]).Sign(
                       TimelockVoteMessage(info.deal_id, voter, i)));
    }
    return vote;
  }

  Status InvokeCommit(PartyId sender, Tick now, const PathVote& vote) {
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    vote.AppendTo(&w);
    CallContext ctx = Ctx(sender, now);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "commit", args);
    return r.ok() ? Status::OK() : r.status();
  }

  Status InvokeRefund(PartyId sender, Tick now) {
    ByteWriter w;
    w.Raw(info.deal_id.bytes.data(), 32);
    CallContext ctx = Ctx(sender, now);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "claimRefund", args);
    return r.ok() ? Status::OK() : r.status();
  }

  std::unique_ptr<World> world;
  PartyId alice, bob, carol, outsider;
  Blockchain* chain = nullptr;
  ContractId token_id, escrow_id;
  TimelockEscrowContract* contract = nullptr;
  DealInfo info;
  std::unique_ptr<GasMeter> ctx_gas;
};

TEST_F(TimelockEscrowFixture, DirectVoteAccepted) {
  EXPECT_TRUE(InvokeCommit(alice, info.t0 + 50, MakeVote(alice, {alice})).ok());
  EXPECT_TRUE(contract->HasVoted(alice));
  EXPECT_EQ(contract->NumVotes(), 1u);
}

TEST_F(TimelockEscrowFixture, DirectVoteDeadlineIsOneDelta) {
  // |p| = 1 -> must arrive before t0 + Δ.
  EXPECT_EQ(InvokeCommit(alice, info.t0 + 100, MakeVote(alice, {alice})).code(),
            StatusCode::kTimedOut);
  EXPECT_TRUE(InvokeCommit(alice, info.t0 + 99, MakeVote(alice, {alice})).ok());
}

TEST_F(TimelockEscrowFixture, ForwardedVoteGetsExtraDelta) {
  // Bob's vote forwarded by Alice: |p| = 2 -> deadline t0 + 2Δ.
  PathVote forwarded = MakeVote(bob, {bob, alice});
  EXPECT_TRUE(InvokeCommit(alice, info.t0 + 150, forwarded).ok());
  // A third hop would be allowed even later.
  PathVote twice = MakeVote(carol, {carol, bob, alice});
  EXPECT_TRUE(InvokeCommit(alice, info.t0 + 250, twice).ok());
  EXPECT_FALSE(contract->Released());  // Alice's own vote still missing
  // Alice's own vote at this late hour needs a length-3 path (t0 + 3Δ).
  EXPECT_TRUE(InvokeCommit(alice, info.t0 + 260,
                           MakeVote(alice, {alice, bob, carol})).ok());
  // All three votes in: the escrow released.
  EXPECT_TRUE(contract->Released());
}

TEST_F(TimelockEscrowFixture, ForwardedVotePastItsDeadlineRejected) {
  PathVote forwarded = MakeVote(bob, {bob, alice});
  EXPECT_EQ(InvokeCommit(alice, info.t0 + 200, forwarded).code(),
            StatusCode::kTimedOut);
}

TEST_F(TimelockEscrowFixture, DuplicateVoteRejected) {
  ASSERT_TRUE(InvokeCommit(alice, info.t0 + 10, MakeVote(alice, {alice})).ok());
  EXPECT_EQ(InvokeCommit(alice, info.t0 + 20, MakeVote(alice, {alice})).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(TimelockEscrowFixture, NonPlistVoterRejected) {
  EXPECT_EQ(
      InvokeCommit(outsider, info.t0 + 10, MakeVote(outsider, {outsider}))
          .code(),
      StatusCode::kPermissionDenied);
}

TEST_F(TimelockEscrowFixture, NonPlistSignerRejected) {
  PathVote vote = MakeVote(alice, {alice, outsider});
  EXPECT_EQ(InvokeCommit(bob, info.t0 + 10, vote).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TimelockEscrowFixture, DuplicateSignerRejected) {
  PathVote vote = MakeVote(alice, {alice});
  // Forge a path that lists Alice twice.
  vote.path.emplace_back(
      alice, world->KeyPairOf(alice).Sign(
                 TimelockVoteMessage(info.deal_id, alice, 1)));
  EXPECT_EQ(InvokeCommit(bob, info.t0 + 10, vote).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TimelockEscrowFixture, PathMustStartWithVoter) {
  // Bob claims to carry Alice's vote but signs first himself.
  PathVote vote;
  vote.voter = alice;
  vote.path.emplace_back(
      bob, world->KeyPairOf(bob).Sign(
               TimelockVoteMessage(info.deal_id, alice, 0)));
  EXPECT_EQ(InvokeCommit(bob, info.t0 + 10, vote).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(TimelockEscrowFixture, ForgedSignatureRejected) {
  // Mallory forges Bob's vote by signing with her own key.
  PathVote vote;
  vote.voter = bob;
  vote.path.emplace_back(
      bob, world->KeyPairOf(outsider).Sign(
               TimelockVoteMessage(info.deal_id, bob, 0)));
  EXPECT_EQ(InvokeCommit(carol, info.t0 + 10, vote).code(),
            StatusCode::kUnverified);
}

TEST_F(TimelockEscrowFixture, WrongDepthSignatureRejected) {
  // Signature computed for depth 1 presented at depth 0.
  PathVote vote;
  vote.voter = bob;
  vote.path.emplace_back(
      bob, world->KeyPairOf(bob).Sign(
               TimelockVoteMessage(info.deal_id, bob, 1)));
  EXPECT_EQ(InvokeCommit(carol, info.t0 + 10, vote).code(),
            StatusCode::kUnverified);
}

TEST_F(TimelockEscrowFixture, SignatureGasChargedPerPathElement) {
  PathVote vote = MakeVote(carol, {carol, bob, alice});
  ASSERT_TRUE(InvokeCommit(alice, info.t0 + 250, vote).ok());
  // 3 signature verifications at 3000 gas each.
  EXPECT_EQ(ctx_gas->sig_verifies(), 3u);
  EXPECT_GE(ctx_gas->used(), 3u * kGasSigVerify);
}

TEST_F(TimelockEscrowFixture, ReleaseOnlyAfterAllVotes) {
  ASSERT_TRUE(InvokeCommit(alice, info.t0 + 10, MakeVote(alice, {alice})).ok());
  ASSERT_TRUE(InvokeCommit(bob, info.t0 + 10, MakeVote(bob, {bob})).ok());
  EXPECT_FALSE(contract->Released());
  ASSERT_TRUE(
      InvokeCommit(carol, info.t0 + 10, MakeVote(carol, {carol})).ok());
  EXPECT_TRUE(contract->Released());
  // The escrowed 50 returned to Alice (no tentative transfers were made).
  EXPECT_EQ(chain->As<FungibleToken>(token_id)->BalanceOf(
                Holder::Party(alice)),
            50u);
}

TEST_F(TimelockEscrowFixture, RefundOnlyAfterFullTimeout) {
  // N = 3 parties: refund allowed only at/after t0 + 3Δ.
  EXPECT_EQ(InvokeRefund(alice, info.t0 + 299).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(InvokeRefund(alice, info.t0 + 300).ok());
  EXPECT_TRUE(contract->Refunded());
  EXPECT_EQ(chain->As<FungibleToken>(token_id)->BalanceOf(
                Holder::Party(alice)),
            50u);
  // Votes after settlement are rejected.
  EXPECT_EQ(InvokeCommit(alice, info.t0 + 310, MakeVote(alice, {alice})).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TimelockEscrowFixture, AnyoneMayTriggerRefund) {
  EXPECT_TRUE(InvokeRefund(outsider, info.t0 + 300).ok());
  EXPECT_TRUE(contract->Refunded());
}

TEST_F(TimelockEscrowFixture, EscrowDealInfoMismatchRejected) {
  // A second escrow call with different deal parameters must fail.
  info.delta = 999;
  EXPECT_EQ(InvokeEscrow(alice, 0, 1).code(), StatusCode::kFailedPrecondition);
}

TEST_F(TimelockEscrowFixture, NonPlistEscrowerRejected) {
  info.delta = 100;  // restore
  EXPECT_EQ(InvokeEscrow(outsider, 0, 5).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TimelockEscrowFixture, TransferToNonPlistRejected) {
  ByteWriter w;
  w.Raw(info.deal_id.bytes.data(), 32);
  w.U32(outsider.v);
  w.U64(10);
  CallContext ctx = Ctx(alice, 5);
  ByteReader args(w.bytes());
  auto r = contract->Invoke(ctx, "transfer", args);
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST_F(TimelockEscrowFixture, WrongDealIdRejected) {
  PathVote vote = MakeVote(alice, {alice});
  ByteWriter w;
  DealId other = MakeDealId("other", 2);
  w.Raw(other.bytes.data(), 32);
  vote.AppendTo(&w);
  CallContext ctx = Ctx(alice, info.t0 + 10);
  ByteReader args(w.bytes());
  auto r = contract->Invoke(ctx, "commit", args);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace xdeal
