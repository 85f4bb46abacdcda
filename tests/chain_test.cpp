// Blockchain substrate: block production, receipts, gas accounting,
// observation, the World container, and World snapshots (which must reject
// hostile bytes with a Status).

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "chain/blockchain.h"
#include "chain/ids.h"
#include "chain/world.h"
#include "contracts/fungible_token.h"

namespace xdeal {
namespace {

std::unique_ptr<World> MakeWorld(uint64_t seed = 1) {
  return std::make_unique<World>(
      seed, std::make_unique<SynchronousNetwork>(1, 5));
}

CallData TransferCall(Holder to, uint64_t amount) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(to.kind));
  w.U32(to.id);
  w.U64(amount);
  return CallData{"transfer", w.Take()};
}

TEST(BlockchainTest, ProducesBlocksAtBoundaries) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  PartyId bob = world->RegisterParty("bob");
  Blockchain* chain = world->CreateChain("c", /*block_interval=*/10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 50);

  world->Submit(alice, chain->id(), token, TransferCall(Holder::Party(bob), 20));
  world->scheduler().Run();

  ASSERT_EQ(chain->blocks().size(), 1u);
  const Block& block = chain->blocks()[0];
  EXPECT_EQ(block.height, 0u);
  EXPECT_EQ(block.timestamp % 10, 0u);
  EXPECT_FALSE(block.hash.IsZero());
  EXPECT_FALSE(block.entries_root.IsZero());

  ASSERT_EQ(chain->receipts().size(), 1u);
  EXPECT_TRUE(chain->receipts()[0].status.ok());
  EXPECT_EQ(chain->As<FungibleToken>(token)->BalanceOf(Holder::Party(bob)),
            20u);
}

TEST(BlockchainTest, BlockChainingAndHashes) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 100);

  // Two transactions far apart -> two blocks.
  world->Submit(alice, chain->id(), token,
                TransferCall(Holder::Party(alice), 1));
  world->scheduler().Run();
  world->scheduler().ScheduleAt(500, [&] {
    world->Submit(alice, chain->id(), token,
                  TransferCall(Holder::Party(alice), 1));
  });
  world->scheduler().Run();

  ASSERT_EQ(chain->blocks().size(), 2u);
  EXPECT_EQ(chain->blocks()[1].parent_hash, chain->blocks()[0].hash);
  EXPECT_EQ(chain->blocks()[1].height, 1u);
  // Hash recomputes from header fields.
  const Block& b = chain->blocks()[1];
  EXPECT_EQ(b.hash, Block::ComputeHash(b.height, b.timestamp, b.parent_hash,
                                       b.entries_root));
}

TEST(BlockchainTest, FailedCallLeavesStateUntouchedButChargesGas) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  PartyId bob = world->RegisterParty("bob");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 10);

  // Bob tries to move Alice's money via "transfer" (only moves own funds).
  world->Submit(bob, chain->id(), token, TransferCall(Holder::Party(bob), 5));
  world->scheduler().Run();

  ASSERT_EQ(chain->receipts().size(), 1u);
  const Receipt& r = chain->receipts()[0];
  EXPECT_FALSE(r.status.ok());
  EXPECT_GT(r.gas_used, 0u);  // the read before the require was charged
  EXPECT_EQ(chain->As<FungibleToken>(token)->BalanceOf(Holder::Party(alice)),
            10u);
}

TEST(BlockchainTest, ObserversNotifiedAfterDelay) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  PartyId bob = world->RegisterParty("bob");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 10);

  std::vector<std::pair<Tick, uint64_t>> seen;  // (observed_at, tx_seq)
  chain->Subscribe(world->PartyEndpoint(bob), [&](const Receipt& r) {
    seen.emplace_back(world->now(), r.tx_seq);
  });

  world->Submit(alice, chain->id(), token, TransferCall(Holder::Party(bob), 1));
  world->scheduler().Run();

  ASSERT_EQ(seen.size(), 1u);
  Tick included = chain->receipts()[0].included_at;
  EXPECT_GE(seen[0].first, included + 1);   // at least min network delay
  EXPECT_LE(seen[0].first, included + 5);   // at most max network delay
}

TEST(BlockchainTest, GasTagAggregation) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 100);

  world->Submit(alice, chain->id(), token,
                TransferCall(Holder::Party(alice), 1), "phase-a");
  world->Submit(alice, chain->id(), token,
                TransferCall(Holder::Party(alice), 1), "phase-b");
  world->scheduler().Run();

  // Each OK transfer: 1 storage read (200) + 2 storage writes (10000).
  uint64_t phase_a = 0, phase_b = 0;
  for (const Receipt& r : chain->receipts()) {
    if (r.tag == "phase-a") phase_a += r.gas_used;
    if (r.tag == "phase-b") phase_b += r.gas_used;
  }
  EXPECT_EQ(phase_a, 10200u);
  EXPECT_EQ(phase_b, 10200u);
  EXPECT_EQ(world->TotalGas(), 20400u);
}

TEST(BlockchainTest, UnknownContractYieldsNotFoundReceipt) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  world->Submit(alice, chain->id(), ContractId{99}, CallData{"foo", {}});
  world->scheduler().Run();
  ASSERT_EQ(chain->receipts().size(), 1u);
  EXPECT_EQ(chain->receipts()[0].status.code(), StatusCode::kNotFound);
}

TEST(GasMeterTest, ChargesAndLimits) {
  GasMeter gas(/*limit=*/12000);
  EXPECT_TRUE(gas.ChargeStorageWrite(2).ok());   // 10000
  EXPECT_TRUE(gas.ChargeStorageRead(5).ok());    // +1000 = 11000
  EXPECT_TRUE(gas.ChargeCompute(10).ok());       // +50 = 11050
  EXPECT_EQ(gas.used(), 11050u);
  // Exceeding the limit reports OutOfGas but still accumulates.
  EXPECT_EQ(gas.ChargeSigVerify(1).code(), StatusCode::kOutOfGas);
  EXPECT_EQ(gas.used(), 14050u);
  EXPECT_EQ(gas.storage_writes(), 2u);
  EXPECT_EQ(gas.sig_verifies(), 1u);
}

TEST(WorldTest, PartiesHaveDistinctDeterministicKeys) {
  auto w1 = MakeWorld(42);
  auto w2 = MakeWorld(42);
  PartyId a1 = w1->RegisterParty("alice");
  PartyId b1 = w1->RegisterParty("bob");
  PartyId a2 = w2->RegisterParty("alice");

  EXPECT_EQ(w1->keys().PublicKeyOf(a1).value(),
            w2->keys().PublicKeyOf(a2).value());
  EXPECT_FALSE(w1->keys().PublicKeyOf(a1).value() ==
               w1->keys().PublicKeyOf(b1).value());
  EXPECT_EQ(w1->keys().NameOf(b1).value(), "bob");
  EXPECT_FALSE(w1->keys().PublicKeyOf(PartyId{99}).ok());
}

// Register derives nothing; the first KeyPairOf or PublicKeyOf derives the
// same pair FromSeed gives, whichever of the two comes first.
TEST(KeyDirectoryTest, KeysDeriveFromTheSeedWhicheverLookupComesFirst) {
  const KeyPair want = KeyPair::FromSeed("world/alice");
  const Bytes message = {1, 2, 3};

  KeyDirectory pair_first;
  PartyId a = pair_first.Register("alice");
  EXPECT_EQ(pair_first.KeyPairOf(a).public_key(), want.public_key());
  EXPECT_EQ(pair_first.KeyPairOf(a).Sign(message), want.Sign(message));
  EXPECT_EQ(pair_first.PublicKeyOf(a).value(), want.public_key());

  KeyDirectory public_first;
  PartyId b = public_first.Register("alice");
  EXPECT_EQ(public_first.PublicKeyOf(b).value(), want.public_key());
  EXPECT_EQ(public_first.KeyPairOf(b).public_key(), want.public_key());
  EXPECT_EQ(public_first.KeyPairOf(b).Sign(message), want.Sign(message));
}

// Four threads race to first use on every party of one fresh directory;
// each party derives once, and every thread reads the same keys at the
// same address.
TEST(KeyDirectoryTest, ConcurrentFirstUseReadsIdenticalKeys) {
  constexpr uint32_t kParties = 1000;
  constexpr size_t kThreads = 4;
  KeyDirectory directory;
  for (uint32_t i = 0; i < kParties; ++i) {
    directory.Register("party-" + std::to_string(i));
  }
  std::vector<std::vector<const KeyPair*>> pairs(kThreads);
  std::vector<std::vector<PublicKey>> publics(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&directory, &pairs, &publics, t] {
      pairs[t].resize(kParties);
      publics[t].resize(kParties);
      // Each thread starts at a different party and alternates which
      // lookup comes first, so both race on every entry.
      for (uint32_t k = 0; k < kParties; ++k) {
        uint32_t i = (k + static_cast<uint32_t>(t) * kParties / kThreads) %
                     kParties;
        PartyId p{i};
        if ((i + t) % 2 == 0) {
          pairs[t][i] = &directory.KeyPairOf(p);
          publics[t][i] = directory.PublicKeyOf(p).value();
        } else {
          publics[t][i] = directory.PublicKeyOf(p).value();
          pairs[t][i] = &directory.KeyPairOf(p);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint32_t i = 0; i < kParties; ++i) {
    for (size_t t = 1; t < kThreads; ++t) {
      ASSERT_EQ(pairs[t][i], pairs[0][i]) << "party " << i;
      ASSERT_EQ(publics[t][i], publics[0][i]) << "party " << i;
    }
    ASSERT_EQ(pairs[0][i]->public_key(), publics[0][i]) << "party " << i;
  }
  EXPECT_EQ(publics[0][17],
            KeyPair::FromSeed("world/party-17").public_key());
}

TEST(WorldTest, EndpointsDisjoint) {
  auto world = MakeWorld();
  PartyId p = world->RegisterParty("p");
  Blockchain* chain = world->CreateChain("c", 10);
  EXPECT_FALSE(world->PartyEndpoint(p) == world->ChainEndpoint(chain->id()));
}

// --- World snapshots -------------------------------------------------------

std::unique_ptr<Contract> TokenFactory(const std::string& type) {
  if (type == "FungibleToken") {
    return std::make_unique<FungibleToken>("", PartyId{});
  }
  return nullptr;
}

Status RestoreFresh(const Bytes& snapshot) {
  ByteReader r(snapshot);
  return MakeWorld()->Restore(r, TokenFactory);
}

/// A hand-built World snapshot: clock at 100, zeroed scheduler stats, the
/// durable-event section `durable` (count, then events), no parties, and
/// one chain "c" with block interval `interval` and body `chain_body`.
Bytes WorldSnapshot(const Bytes& durable, uint64_t interval,
                    const Bytes& chain_body) {
  ByteWriter w;
  w.U64(1).U64(2).U64(3).U64(4);  // RNG state
  w.U64(100);                     // now
  w.U64(0).U64(0).U64(0).U64(0);  // scheduler stats
  w.Raw(durable);
  w.U64(0);  // next seq
  w.U32(0);  // parties
  w.U32(1).Str("c").U64(interval).Blob(chain_body);
  return w.Take();
}

Bytes NoDurableEvents() { return ByteWriter().U32(0).Take(); }

/// A chain body with `n_blocks` blocks and the contracts in `contracts`
/// (count, then entries).
Bytes ChainBody(uint64_t n_blocks, const Bytes& contracts) {
  ByteWriter w;
  w.U64(0).U64(0).U64(0).U64(n_blocks);  // capacity, next seq, gas, blocks
  if (n_blocks > 0) w.Raw(Bytes(32, 0xAB));
  w.Raw(contracts);
  return w.Take();
}

Bytes NoContracts() { return ByteWriter().U32(0).Take(); }

TEST(WorldSnapshotTest, HandBuiltSnapshotRestores) {
  Status s = RestoreFresh(
      WorldSnapshot(NoDurableEvents(), 10, ChainBody(10, NoContracts())));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(WorldSnapshotTest, RestoredWorldCheckpointsToTheSameBytes) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  PartyId bob = world->RegisterParty("bob");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 50);
  world->Submit(alice, chain->id(), token,
                TransferCall(Holder::Party(bob), 20));
  world->scheduler().Run();
  world->scheduler().ScheduleDurableAt(500, EventLabel::Timer(bob.v),
                                       "wake", 7);
  ByteWriter first;
  ASSERT_TRUE(world->Checkpoint(&first).ok());

  auto restored = MakeWorld();
  ByteReader r(first.bytes());
  Status s = restored->Restore(r, TokenFactory);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ByteWriter second;
  ASSERT_TRUE(restored->Checkpoint(&second).ok());
  EXPECT_EQ(second.bytes(), first.bytes());
  EXPECT_EQ(restored->chain(chain->id())
                ->As<FungibleToken>(token)
                ->BalanceOf(Holder::Party(bob)),
            20u);
}

TEST(WorldSnapshotTest, RejectsZeroBlockInterval) {
  // The chain would divide by its interval at the next boundary.
  Status s = RestoreFresh(
      WorldSnapshot(NoDurableEvents(), 0, ChainBody(0, NoContracts())));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("block interval of 0"), std::string::npos)
      << s.ToString();
}

TEST(WorldSnapshotTest, RejectsMoreBlocksThanBoundaries) {
  // Blocks seal at positive multiples of the interval, up to the clock:
  // at most 100 / 10 here. 2^40 would be a terabyte-sized resize.
  for (uint64_t n_blocks : {uint64_t{11}, uint64_t{1} << 40}) {
    Status s = RestoreFresh(WorldSnapshot(NoDurableEvents(), 10,
                                          ChainBody(n_blocks, NoContracts())));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << n_blocks;
    EXPECT_NE(s.ToString().find("more blocks than block boundaries"),
              std::string::npos)
        << s.ToString();
  }
}

TEST(WorldSnapshotTest, RejectsDurableEventCountBeyondTheBytesLeft) {
  Status s = RestoreFresh(WorldSnapshot(ByteWriter().U32(0xFFFFFFF0).Take(),
                                        10, ChainBody(0, NoContracts())));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("snapshot count 4294967280 exceeds"),
            std::string::npos)
      << s.ToString();
}

TEST(WorldSnapshotTest, RejectsOutOfRangeEventKind) {
  ByteWriter durable;
  durable.U32(1).U64(0).U64(500).U8(9).U32(0).U32(0).Str("wake").U64(0);
  Status s = RestoreFresh(
      WorldSnapshot(durable.Take(), 10, ChainBody(0, NoContracts())));
  EXPECT_NE(s.ToString().find("durable event kind out of range"),
            std::string::npos)
      << s.ToString();
}

TEST(WorldSnapshotTest, RejectsOutOfRangeHolderKind) {
  ByteWriter state;
  state.Str("TOK").U32(0).U64(5);
  state.U32(1).U8(7).U32(0).U64(5);  // one balance, held by kind 7
  state.U32(0);                      // no allowances
  ByteWriter contracts;
  contracts.U32(1).Str("FungibleToken").Bool(true).Blob(state.Take());
  Status s = RestoreFresh(
      WorldSnapshot(NoDurableEvents(), 10, ChainBody(0, contracts.Take())));
  EXPECT_NE(s.ToString().find("holder kind out of range"), std::string::npos)
      << s.ToString();
}

TEST(WorldSnapshotTest, RejectsTrailingBytesInsideAChainBody) {
  Bytes body = ChainBody(0, NoContracts());
  body.push_back(0);
  Status s = RestoreFresh(WorldSnapshot(NoDurableEvents(), 10, body));
  EXPECT_NE(s.ToString().find("1 unread bytes"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace xdeal
