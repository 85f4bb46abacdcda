// The indexed observation data path: ReceiptView semantics
// against the receipt index built at block-seal time, tag-filtered delivery,
// and the index-vs-full-scan differential oracle over seeded traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chain/blockchain.h"
#include "chain/world.h"
#include "contracts/fungible_token.h"
#include "core/traffic_engine.h"
#include "util/fingerprint.h"

namespace xdeal {
namespace {

std::unique_ptr<World> MakeWorld(uint64_t seed = 1) {
  return std::make_unique<World>(seed,
                                 std::make_unique<SynchronousNetwork>(1, 5));
}

CallData TransferCall(Holder to, uint64_t amount) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(to.kind));
  w.U32(to.id);
  w.U64(amount);
  return CallData{"transfer", w.Take()};
}

// Submits `count` self-transfers from `who` on `token`, labelled `deal_tag`.
void SubmitTagged(World* world, Blockchain* chain, PartyId who,
                  ContractId token, uint64_t deal_tag, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    world->Submit(who, chain->id(), token, TransferCall(Holder::Party(who), 1),
                  "t", deal_tag);
  }
}

TEST(ObservationApiTest, ReceiptViewMatchesManualScanByTagAndContract) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId tok_a =
      chain->Deploy(std::make_unique<FungibleToken>("A", alice));
  ContractId tok_b =
      chain->Deploy(std::make_unique<FungibleToken>("B", alice));
  chain->As<FungibleToken>(tok_a)->Mint(Holder::Party(alice), 100);
  chain->As<FungibleToken>(tok_b)->Mint(Holder::Party(alice), 100);

  SubmitTagged(world.get(), chain, alice, tok_a, /*deal_tag=*/7, 3);
  SubmitTagged(world.get(), chain, alice, tok_b, /*deal_tag=*/7, 2);
  SubmitTagged(world.get(), chain, alice, tok_a, /*deal_tag=*/9, 4);
  SubmitTagged(world.get(), chain, alice, tok_a, /*deal_tag=*/0, 1);
  world->scheduler().Run();

  // Every receipt lands in exactly its own tag's log, in chain (tx_seq)
  // order; the untagged log is receipts().
  std::set<uint64_t> seqs;
  for (uint64_t tag : {0u, 7u, 9u, 999u}) {
    std::vector<uint64_t> view;
    for (const Receipt& r : chain->TaggedReceipts(tag)) {
      EXPECT_EQ(r.deal_tag, tag);
      view.push_back(r.tx_seq);
      seqs.insert(r.tx_seq);
    }
    EXPECT_TRUE(std::is_sorted(view.begin(), view.end())) << "tag " << tag;
    EXPECT_TRUE(chain->TagIndexMatchesFullScan(tag)) << "tag " << tag;
  }
  EXPECT_EQ(seqs.size(), 10u);
  EXPECT_EQ(chain->receipts().size(), 1u);
  EXPECT_EQ(chain->TaggedReceipts(7).size(), 5u);
  EXPECT_EQ(chain->ContractReceipts(7, tok_a).size(), 3u);
  EXPECT_EQ(chain->ContractReceipts(7, tok_b).size(), 2u);
  EXPECT_EQ(chain->ContractReceipts(9, tok_b).size(), 0u);
  EXPECT_TRUE(chain->ContractReceipts(9, tok_b).empty());
  for (const Receipt& r : chain->ContractReceipts(9, tok_a)) {
    EXPECT_EQ(r.deal_tag, 9u);
    EXPECT_EQ(r.contract.v, tok_a.v);
  }
}

TEST(ObservationApiTest, ReleaseTagDropsOnlyThatTag) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("A", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 100);
  size_t heard = 0;
  for (uint64_t tag : {7u, 9u}) {
    chain->Subscribe(world->PartyEndpoint(alice), tag,
                     [&heard](const Receipt&) { ++heard; });
  }
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/7, 3);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/9, 2);
  world->scheduler().Run();
  EXPECT_EQ(heard, 5u);
  EXPECT_EQ(world->scheduler().InFlight(7), 0u);

  chain->ReleaseTag(7);
  EXPECT_TRUE(chain->TaggedReceipts(7).empty());
  EXPECT_TRUE(chain->ContractReceipts(7, token).empty());
  EXPECT_EQ(chain->ObserverCount(7), 0u);
  EXPECT_EQ(chain->TaggedReceipts(9).size(), 2u);
  EXPECT_EQ(chain->ObserverCount(9), 1u);
}

TEST(ObservationApiTest, IndexedDeliveryRoutesByTag) {
  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  PartyId bob = world->RegisterParty("bob");
  PartyId carol = world->RegisterParty("carol");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("TOK", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 100);

  std::vector<uint64_t> bob_seen, carol_seen, unfiltered_seen;
  chain->Subscribe(world->PartyEndpoint(bob), /*deal_tag=*/1,
                   [&](const Receipt& r) { bob_seen.push_back(r.deal_tag); });
  chain->Subscribe(world->PartyEndpoint(carol), /*deal_tag=*/2,
                   [&](const Receipt& r) { carol_seen.push_back(r.deal_tag); });
  chain->Subscribe(world->PartyEndpoint(alice), [&](const Receipt& r) {
    unfiltered_seen.push_back(r.deal_tag);
  });

  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/1, 2);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/2, 3);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/3, 1);
  world->scheduler().Run();

  // Filtered observers got exactly their deal's receipts; the unfiltered
  // observer still sees everything.
  EXPECT_EQ(bob_seen, (std::vector<uint64_t>{1, 1}));
  EXPECT_EQ(carol_seen, (std::vector<uint64_t>{2, 2, 2}));
  EXPECT_EQ(unfiltered_seen.size(), 6u);
}

// --- the migrated traffic data path ---

TEST(ObservationApiTest, DifferentialOracleOnSeededTraffic) {
  // The post-run full-scan oracle: every chain's
  // incremental index must equal a from-scratch scan of its receipts, and
  // the workload must stay fully conformant. A mismatch lands in
  // report.violations, so empty() is the differential gate.
  TrafficOptions options;
  options.base_seed = 77;
  options.num_deals = 48;
  options.num_chains = 6;
  options.cbc_shards = 2;
  options.fullscan_oracle = true;
  TrafficReport report = RunTraffic(options);

  EXPECT_EQ(report.committed, 48u) << report.Summary();
  EXPECT_TRUE(report.violations.empty()) << report.Summary();
  EXPECT_TRUE(report.double_spends.empty()) << report.Summary();
  EXPECT_EQ(report.untagged_gas, 0u);
}

TEST(ObservationApiTest, IndexedModeDeterministicAcrossThreadsAndShards) {
  // Observation delays come from a keyed stream (KeyedObservationDelay — a
  // pure function of chain/observer/height), so fingerprints must be
  // bit-stable across validation thread counts, at one shard and at eight.
  for (size_t shards : {1u, 8u}) {
    TrafficOptions options;
    options.base_seed = 88;
    options.num_deals = 32;
    options.num_chains = 6;
    options.cbc_shards = shards;
    options.fullscan_oracle = true;
    options.num_threads = 1;
    TrafficReport baseline = RunTraffic(options);
    EXPECT_EQ(baseline.committed, 32u) << "shards=" << shards << "\n"
                                       << baseline.Summary();
    EXPECT_TRUE(baseline.violations.empty()) << baseline.Summary();

    options.num_threads = 8;
    TrafficReport threaded = RunTraffic(options);
    EXPECT_EQ(threaded.fingerprint, baseline.fingerprint)
        << "shards=" << shards;
    EXPECT_EQ(threaded.Summary(), baseline.Summary());
  }
}

TEST(ObservationApiTest, FingerprintsInvariantUnderBucketPermutation) {
  // det-lint's central claim, checked dynamically: no observable result may
  // depend on the iteration order of the chain's unordered indexes. Rehash
  // permutes exactly that order (and nothing else — the maps are
  // node-based, so views keep their bucket-vector pointers). Folding the
  // observed receipt stream into a fingerprint before and after rehashes
  // with adversarial bucket counts must be bit-identical.
  auto fold_observations = [](Blockchain* chain) {
    uint64_t fp = 0x5eedULL;
    for (uint64_t tag : {7u, 9u, 0u}) {
      for (const Receipt& r : chain->TaggedReceipts(tag)) {
        fp = MixFingerprint(fp, r.tx_seq);
        fp = MixFingerprint(fp, r.gas_used);
        fp = MixFingerprint(fp, r.block_height);
        fp = MixFingerprint(fp, FingerprintString(r.function));
      }
    }
    return fp;
  };

  auto world = MakeWorld();
  PartyId alice = world->RegisterParty("alice");
  Blockchain* chain = world->CreateChain("c", 10);
  ContractId token =
      chain->Deploy(std::make_unique<FungibleToken>("A", alice));
  chain->As<FungibleToken>(token)->Mint(Holder::Party(alice), 100);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/7, 3);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/9, 4);
  SubmitTagged(world.get(), chain, alice, token, /*deal_tag=*/0, 1);
  world->scheduler().Run();
  ASSERT_EQ(chain->TaggedReceipts(7).size() + chain->TaggedReceipts(9).size() +
                chain->receipts().size(),
            8u);

  const uint64_t baseline = fold_observations(chain);
  for (size_t buckets : {1u, 2u, 17u, 64u, 1031u}) {
    chain->RehashIndexes(buckets);
    for (uint64_t tag : {7u, 9u, 0u}) {
      EXPECT_TRUE(chain->TagIndexMatchesFullScan(tag))
          << "buckets=" << buckets << " tag=" << tag;
    }
    EXPECT_EQ(fold_observations(chain), baseline) << "buckets=" << buckets;
  }
}

}  // namespace
}  // namespace xdeal
