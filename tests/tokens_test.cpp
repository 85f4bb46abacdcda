// FungibleToken (ERC20-style) and TicketRegistry (ERC721-style) semantics,
// including allowance/approval enforcement and gas charging.

#include <gtest/gtest.h>

#include "chain/world.h"
#include "contracts/fungible_token.h"
#include "contracts/ticket_registry.h"

namespace xdeal {
namespace {

struct TokenFixture : public ::testing::Test {
  void SetUp() override {
    world = std::make_unique<World>(
        1, std::make_unique<SynchronousNetwork>(1, 5));
    alice = world->RegisterParty("alice");
    bob = world->RegisterParty("bob");
    chain = world->CreateChain("c", 10);
    gas = std::make_unique<GasMeter>();
    ctx.world = world.get();
    ctx.chain = chain;
    ctx.sender = alice;
    ctx.now = 0;
    ctx.gas = gas.get();
  }

  Holder A() const { return Holder::Party(alice); }
  Holder B() const { return Holder::Party(bob); }

  std::unique_ptr<World> world;
  PartyId alice, bob;
  Blockchain* chain = nullptr;
  std::unique_ptr<GasMeter> gas;
  CallContext ctx;
};

TEST_F(TokenFixture, MintAndTransfer) {
  FungibleToken token("TOK", alice);
  ASSERT_TRUE(token.Mint(A(), 100).ok());
  EXPECT_EQ(token.total_supply(), 100u);
  EXPECT_TRUE(token.Transfer(ctx, A(), A(), B(), 40).ok());
  EXPECT_EQ(token.BalanceOf(A()), 60u);
  EXPECT_EQ(token.BalanceOf(B()), 40u);
}

TEST_F(TokenFixture, TransferInsufficientBalanceFails) {
  FungibleToken token("TOK", alice);
  token.Mint(A(), 10);
  EXPECT_EQ(token.Transfer(ctx, A(), A(), B(), 11).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(token.BalanceOf(A()), 10u);
}

TEST_F(TokenFixture, TransferByNonOwnerFails) {
  FungibleToken token("TOK", alice);
  token.Mint(A(), 10);
  EXPECT_EQ(token.Transfer(ctx, B(), A(), B(), 5).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TokenFixture, TransferFromRequiresAllowance) {
  FungibleToken token("TOK", alice);
  token.Mint(A(), 100);
  Holder escrow = Holder::OfContract(ContractId{9});

  EXPECT_EQ(token.TransferFrom(ctx, escrow, A(), escrow, 50).code(),
            StatusCode::kPermissionDenied);

  ASSERT_TRUE(token.Approve(ctx, A(), A(), escrow, 60).ok());
  EXPECT_EQ(token.Allowance(A(), escrow), 60u);
  EXPECT_TRUE(token.TransferFrom(ctx, escrow, A(), escrow, 50).ok());
  EXPECT_EQ(token.Allowance(A(), escrow), 10u);
  EXPECT_EQ(token.BalanceOf(escrow), 50u);

  // Remaining allowance is insufficient for another 50.
  EXPECT_EQ(token.TransferFrom(ctx, escrow, A(), escrow, 50).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TokenFixture, TransferFromOwnBalanceNeedsNoAllowance) {
  FungibleToken token("TOK", alice);
  token.Mint(A(), 100);
  EXPECT_TRUE(token.TransferFrom(ctx, A(), A(), B(), 30).ok());
  EXPECT_EQ(token.BalanceOf(B()), 30u);
}

TEST_F(TokenFixture, TransferChargesTwoWrites) {
  FungibleToken token("TOK", alice);
  token.Mint(A(), 100);
  uint64_t before = gas->used();
  ASSERT_TRUE(token.Transfer(ctx, A(), A(), B(), 1).ok());
  // 1 read (200) + 2 writes (10000).
  EXPECT_EQ(gas->used() - before, 10200u);
}

TEST_F(TokenFixture, ApproveOnlyByOwner) {
  FungibleToken token("TOK", alice);
  EXPECT_EQ(token.Approve(ctx, B(), A(), B(), 5).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(TokenFixture, TicketMintOwnership) {
  TicketRegistry registry(alice);
  uint64_t t1 = registry.Mint(A(), {"play", "A1", 90});
  uint64_t t2 = registry.Mint(B(), {"play", "B7", 60});
  EXPECT_NE(t1, t2);
  EXPECT_EQ(registry.OwnerOf(t1), A());
  EXPECT_EQ(registry.OwnerOf(t2), B());
  EXPECT_FALSE(registry.OwnerOf(999).valid());
  EXPECT_EQ(registry.InfoOf(t1).value().seat, "A1");
  EXPECT_FALSE(registry.InfoOf(999).ok());
  EXPECT_EQ(registry.TicketsOwnedBy(A()), (std::vector<uint64_t>{t1}));
}

TEST_F(TokenFixture, TicketTransferRules) {
  TicketRegistry registry(alice);
  uint64_t t1 = registry.Mint(A(), {"play", "A1", 90});

  // Non-owner, non-approved cannot move it.
  EXPECT_EQ(registry.TransferFrom(ctx, B(), A(), B(), t1).code(),
            StatusCode::kPermissionDenied);
  // Wrong `from` fails.
  EXPECT_EQ(registry.TransferFrom(ctx, A(), B(), A(), t1).code(),
            StatusCode::kFailedPrecondition);
  // Owner moves it.
  EXPECT_TRUE(registry.TransferFrom(ctx, A(), A(), B(), t1).ok());
  EXPECT_EQ(registry.OwnerOf(t1), B());
}

TEST_F(TokenFixture, TicketApprovalSingleUse) {
  TicketRegistry registry(alice);
  uint64_t t1 = registry.Mint(A(), {"play", "A1", 90});
  Holder escrow = Holder::OfContract(ContractId{3});

  // Only the owner can approve.
  EXPECT_EQ(registry.Approve(ctx, B(), t1, escrow).code(),
            StatusCode::kPermissionDenied);
  ASSERT_TRUE(registry.Approve(ctx, A(), t1, escrow).ok());
  EXPECT_TRUE(registry.IsApproved(t1, escrow));

  ASSERT_TRUE(registry.TransferFrom(ctx, escrow, A(), escrow, t1).ok());
  EXPECT_EQ(registry.OwnerOf(t1), escrow);
  // Approval cleared on transfer.
  EXPECT_FALSE(registry.IsApproved(t1, escrow));
}

TEST_F(TokenFixture, ApproveCallsDecodeThroughInvoke) {
  // Each encoder writes the layout its contract's Invoke("approve") reads.
  Holder escrow = Holder::OfContract(ContractId{3});
  FungibleToken token("TOK", alice);
  CallData call = FungibleToken::ApproveCall(escrow, 70);
  EXPECT_EQ(call.function, "approve");
  ByteReader args(call.args);
  ASSERT_TRUE(token.Invoke(ctx, call.function, args).ok());
  EXPECT_EQ(token.Allowance(A(), escrow), 70u);

  TicketRegistry registry(alice);
  uint64_t t1 = registry.Mint(A(), {"play", "A1", 90});
  CallData ticket_call = TicketRegistry::ApproveCall(t1, escrow);
  EXPECT_EQ(ticket_call.function, "approve");
  ByteReader ticket_args(ticket_call.args);
  ASSERT_TRUE(registry.Invoke(ctx, ticket_call.function, ticket_args).ok());
  EXPECT_TRUE(registry.IsApproved(t1, escrow));
}

TEST_F(TokenFixture, TruncatedApproveArgsAreRejected) {
  Holder escrow = Holder::OfContract(ContractId{3});
  FungibleToken token("TOK", alice);
  TicketRegistry registry(alice);
  uint64_t t1 = registry.Mint(A(), {"play", "A1", 90});
  const Bytes coin_args = FungibleToken::ApproveCall(escrow, 70).args;
  const Bytes ticket_args = TicketRegistry::ApproveCall(t1, escrow).args;
  // Every proper prefix of each encoding misses a field.
  for (size_t n = 0; n < coin_args.size(); ++n) {
    Bytes prefix(coin_args.begin(), coin_args.begin() + n);
    ByteReader r(prefix);
    Result<Bytes> out = token.Invoke(ctx, "approve", r);
    ASSERT_FALSE(out.ok()) << n;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << n;
  }
  for (size_t n = 0; n < ticket_args.size(); ++n) {
    Bytes prefix(ticket_args.begin(), ticket_args.begin() + n);
    ByteReader r(prefix);
    Result<Bytes> out = registry.Invoke(ctx, "approve", r);
    ASSERT_FALSE(out.ok()) << n;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << n;
  }
  EXPECT_EQ(token.Allowance(A(), escrow), 0u);
  EXPECT_FALSE(registry.IsApproved(t1, escrow));
}

TEST_F(TokenFixture, OnChainInvokeTransfer) {
  // Exercise the serialized Invoke path end-to-end through the chain.
  ContractId token_id =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token_id)->Mint(A(), 100);

  ByteWriter w;
  w.U8(static_cast<uint8_t>(B().kind));
  w.U32(B().id);
  w.U64(25);
  world->Submit(alice, chain->id(), token_id, CallData{"transfer", w.Take()});
  world->scheduler().Run();

  EXPECT_EQ(chain->As<FungibleToken>(token_id)->BalanceOf(B()), 25u);
}

TEST_F(TokenFixture, InvokeRejectsMalformedArgs) {
  ContractId token_id =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  world->Submit(alice, chain->id(), token_id,
                CallData{"transfer", Bytes{1, 2}});  // truncated
  world->Submit(alice, chain->id(), token_id, CallData{"nosuchfn", {}});
  world->scheduler().Run();
  ASSERT_EQ(chain->receipts().size(), 2u);
  // Both calls fail; block order depends on sampled network delays.
  for (const Receipt& r : chain->receipts()) {
    EXPECT_FALSE(r.status.ok());
    if (r.function == "nosuchfn") {
      EXPECT_EQ(r.status.code(), StatusCode::kNotFound);
    } else {
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace xdeal
