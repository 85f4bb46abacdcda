// CbcEscrowContract (Figure 6) at the contract level: parameter pinning at
// escrow time, transfer rules, and every decide/proof path.

#include <gtest/gtest.h>

#include "cbc/validators.h"
#include "chain/world.h"
#include "contracts/cbc_escrow.h"

namespace xdeal {
namespace {

struct CbcEscrowFixture : public ::testing::Test {
  static constexpr uint32_t kHomeShard = 0;

  void SetUp() override {
    world = std::make_unique<World>(
        1, std::make_unique<SynchronousNetwork>(1, 5));
    a = world->RegisterParty("a");
    b = world->RegisterParty("b");
    outsider = world->RegisterParty("m");
    chain = world->CreateChain("c", 10);
    token_id = chain->Deploy(std::make_unique<FungibleToken>("TOK", a));
    escrow_id = chain->Deploy(std::make_unique<CbcEscrowContract>(
        AssetKind::kFungible, token_id));
    contract = chain->As<CbcEscrowContract>(escrow_id);

    validators = std::make_unique<ValidatorSet>(
        ValidatorSet::Create(/*f=*/1, "esc-unit"));
    deal = MakeDealId("cbc-escrow-unit", 1);
    start_hash = Sha256Digest("the-startdeal-entry");

    auto* token = chain->As<FungibleToken>(token_id);
    token->Mint(Holder::Party(a), 100);
    CallContext ctx = Ctx(a);
    token->Approve(ctx, Holder::Party(a), Holder::Party(a),
                   Holder::OfContract(escrow_id), 100);
    ASSERT_TRUE(InvokeEscrow(a, 100, validators->CurrentPublicKeys()).ok());
  }

  CallContext Ctx(PartyId sender) {
    gas = std::make_unique<GasMeter>();
    CallContext ctx;
    ctx.world = world.get();
    ctx.chain = chain;
    ctx.sender = sender;
    ctx.now = 0;
    ctx.gas = gas.get();
    return ctx;
  }

  /// The escrow call as CbcParty sends it; `with_shard` = false drops the
  /// trailing home-shard word.
  Status InvokeEscrow(PartyId sender, uint64_t value,
                      const std::vector<PublicKey>& vals,
                      uint32_t epoch = 0, bool with_shard = true) {
    ByteWriter w;
    w.Raw(deal.bytes.data(), 32);
    w.U32(2);
    w.U32(a.v);
    w.U32(b.v);
    w.Raw(start_hash.bytes.data(), 32);
    w.U32(static_cast<uint32_t>(vals.size()));
    for (const PublicKey& v : vals) w.Raw(v.Serialize());
    w.U32(epoch);
    w.U64(value);
    if (with_shard) w.U32(kHomeShard);
    CallContext ctx = Ctx(sender);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "escrow", args);
    return r.ok() ? Status::OK() : r.status();
  }

  Status InvokeTransfer(PartyId sender, PartyId to, uint64_t value) {
    ByteWriter w;
    w.Raw(deal.bytes.data(), 32);
    w.U32(to.v);
    w.U64(value);
    CallContext ctx = Ctx(sender);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "transfer", args);
    return r.ok() ? Status::OK() : r.status();
  }

  CbcProof MakeProof(DealOutcome outcome) {
    CbcProof proof;
    proof.status.deal_id = deal;
    proof.status.start_hash = start_hash;
    proof.status.outcome = outcome;
    proof.status.epoch = 0;
    Bytes message = StatusCertificate::Message(deal, start_hash, outcome, 0);
    for (size_t i = 0; i < validators->quorum(); ++i) {
      KeyPair kp = KeyPair::FromSeed("esc-unit/validator/0/" +
                                     std::to_string(i));
      proof.status.sigs.push_back(
          ValidatorSig{kp.public_key(), kp.Sign(message)});
    }
    return proof;
  }

  /// Presents `proof` as a DecideProof from the home shard.
  Status InvokeDecide(PartyId sender, const CbcProof& proof,
                      const DealId& which_deal) {
    DecideProof dp;
    dp.shard = kHomeShard;
    dp.proof = proof;
    return InvokeDecideBytes(sender, dp.Serialize(), which_deal);
  }

  /// The decide call with a raw proof payload.
  Status InvokeDecideBytes(PartyId sender, const Bytes& payload,
                           const DealId& which_deal) {
    ByteWriter w;
    w.Raw(which_deal.bytes.data(), 32);
    w.Blob(payload);
    CallContext ctx = Ctx(sender);
    ByteReader args(w.bytes());
    auto r = contract->Invoke(ctx, "decide", args);
    return r.ok() ? Status::OK() : r.status();
  }

  std::unique_ptr<World> world;
  PartyId a, b, outsider;
  Blockchain* chain = nullptr;
  ContractId token_id, escrow_id;
  CbcEscrowContract* contract = nullptr;
  std::unique_ptr<ValidatorSet> validators;
  DealId deal;
  Hash256 start_hash;
  std::unique_ptr<GasMeter> gas;
};

TEST_F(CbcEscrowFixture, EscrowPinsParameters) {
  EXPECT_TRUE(contract->initialized());
  EXPECT_EQ(contract->deal_id(), deal);
  EXPECT_EQ(contract->start_hash(), start_hash);
  EXPECT_EQ(contract->validators().size(), 4u);  // 3f+1, f=1
  EXPECT_EQ(contract->plist().size(), 2u);
}

TEST_F(CbcEscrowFixture, SecondEscrowMustMatchParameters) {
  auto* token = chain->As<FungibleToken>(token_id);
  token->Mint(Holder::Party(b), 10);
  CallContext ctx = Ctx(b);
  token->Approve(ctx, Holder::Party(b), Holder::Party(b),
                 Holder::OfContract(escrow_id), 10);
  // Matching parameters succeed.
  EXPECT_TRUE(InvokeEscrow(b, 10, validators->CurrentPublicKeys()).ok());
  // Mismatched validator set rejected.
  ValidatorSet other = ValidatorSet::Create(1, "evil");
  EXPECT_EQ(InvokeEscrow(b, 1, other.CurrentPublicKeys()).code(),
            StatusCode::kFailedPrecondition);
  // Mismatched start hash rejected.
  Hash256 saved = start_hash;
  start_hash = Sha256Digest("forged");
  EXPECT_EQ(InvokeEscrow(b, 1, validators->CurrentPublicKeys()).code(),
            StatusCode::kFailedPrecondition);
  start_hash = saved;
}

TEST_F(CbcEscrowFixture, ValidatorSetMustBe3fPlus1) {
  // Fresh contract; a 3-element validator set (3f+1 impossible) rejected.
  ContractId other_escrow = chain->Deploy(
      std::make_unique<CbcEscrowContract>(AssetKind::kFungible, token_id));
  auto* fresh = chain->As<CbcEscrowContract>(other_escrow);
  std::vector<PublicKey> three(3, validators->CurrentPublicKeys()[0]);
  ByteWriter w;
  w.Raw(deal.bytes.data(), 32);
  w.U32(2);
  w.U32(a.v);
  w.U32(b.v);
  w.Raw(start_hash.bytes.data(), 32);
  w.U32(3);
  for (const PublicKey& v : three) w.Raw(v.Serialize());
  w.U32(0);
  w.U64(1);
  w.U32(kHomeShard);
  CallContext ctx = Ctx(a);
  ByteReader args(w.bytes());
  EXPECT_EQ(fresh->Invoke(ctx, "escrow", args).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CbcEscrowFixture, EscrowWithoutShardWordRejected) {
  // A fresh escrow: its first escrow call pins the deal's parameters, and
  // the home shard is one of them.
  escrow_id = chain->Deploy(
      std::make_unique<CbcEscrowContract>(AssetKind::kFungible, token_id));
  contract = chain->As<CbcEscrowContract>(escrow_id);
  auto* token = chain->As<FungibleToken>(token_id);
  token->Mint(Holder::Party(b), 10);
  CallContext ctx = Ctx(b);
  token->Approve(ctx, Holder::Party(b), Holder::Party(b),
                 Holder::OfContract(escrow_id), 10);
  EXPECT_FALSE(InvokeEscrow(b, 10, validators->CurrentPublicKeys(),
                            /*epoch=*/0, /*with_shard=*/false)
                   .ok());
  EXPECT_FALSE(contract->initialized());
  EXPECT_EQ(token->BalanceOf(Holder::Party(b)), 10u);
}

TEST_F(CbcEscrowFixture, NonPlistEscrowerRejected) {
  EXPECT_EQ(InvokeEscrow(outsider, 1, validators->CurrentPublicKeys()).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(CbcEscrowFixture, TransferRules) {
  EXPECT_TRUE(InvokeTransfer(a, b, 60).ok());
  EXPECT_EQ(contract->escrow_core().OnCommitOf(b), 60u);
  // Target outside the plist rejected.
  EXPECT_EQ(InvokeTransfer(a, outsider, 1).code(),
            StatusCode::kPermissionDenied);
  // Over-transfer rejected (double-spend inside the deal).
  EXPECT_EQ(InvokeTransfer(a, b, 50).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CbcEscrowFixture, DecideCommitReleases) {
  ASSERT_TRUE(InvokeTransfer(a, b, 100).ok());
  ASSERT_TRUE(InvokeDecide(b, MakeProof(kDealCommitted), deal).ok());
  EXPECT_EQ(contract->outcome(), kDealCommitted);
  EXPECT_TRUE(contract->Released());
  auto* token = chain->As<FungibleToken>(token_id);
  EXPECT_EQ(token->BalanceOf(Holder::Party(b)), 100u);
  // Gas: 2f+1 = 3 signature verifications.
  EXPECT_EQ(gas->sig_verifies(), 3u);
}

TEST_F(CbcEscrowFixture, DecideAbortRefunds) {
  ASSERT_TRUE(InvokeTransfer(a, b, 100).ok());
  ASSERT_TRUE(InvokeDecide(a, MakeProof(kDealAborted), deal).ok());
  EXPECT_TRUE(contract->Refunded());
  auto* token = chain->As<FungibleToken>(token_id);
  EXPECT_EQ(token->BalanceOf(Holder::Party(a)), 100u);
  EXPECT_EQ(token->BalanceOf(Holder::Party(b)), 0u);
}

TEST_F(CbcEscrowFixture, SecondDecideRejected) {
  ASSERT_TRUE(InvokeDecide(a, MakeProof(kDealCommitted), deal).ok());
  EXPECT_EQ(InvokeDecide(a, MakeProof(kDealAborted), deal).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(contract->outcome(), kDealCommitted);  // first decision sticks
}

TEST_F(CbcEscrowFixture, WrongDealIdRejected) {
  EXPECT_EQ(InvokeDecide(a, MakeProof(kDealCommitted),
                         MakeDealId("other", 2))
                .code(),
            StatusCode::kNotFound);
}

TEST_F(CbcEscrowFixture, UnderQuorumProofRejected) {
  CbcProof proof = MakeProof(kDealCommitted);
  proof.status.sigs.resize(2);  // below 2f+1 = 3
  EXPECT_EQ(InvokeDecide(a, proof, deal).code(), StatusCode::kUnverified);
  EXPECT_FALSE(contract->Settled());
}

TEST_F(CbcEscrowFixture, GarbageProofBytesRejectedCleanly) {
  ByteWriter w;
  w.Raw(deal.bytes.data(), 32);
  w.Blob(Bytes{1, 2, 3, 4, 5});
  CallContext ctx = Ctx(a);
  ByteReader args(w.bytes());
  EXPECT_FALSE(contract->Invoke(ctx, "decide", args).ok());
  EXPECT_FALSE(contract->Settled());
}

TEST_F(CbcEscrowFixture, BareProofDecideRejected) {
  // A validly signed certificate that is not wrapped in a DecideProof skips
  // the shard front check, so it is not decide evidence.
  ASSERT_TRUE(InvokeTransfer(a, b, 100).ok());
  Status st = InvokeDecideBytes(b, MakeProof(kDealCommitted).Serialize(), deal);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(contract->Settled());
  EXPECT_EQ(gas->sig_verifies(), 0u);
}

TEST_F(CbcEscrowFixture, ActiveOutcomeProofRejected) {
  EXPECT_EQ(InvokeDecide(a, MakeProof(kDealActive), deal).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xdeal
