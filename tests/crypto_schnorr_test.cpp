// Schnorr signature round-trips, forgery rejection, determinism,
// serialization, batched verification, and verification from many threads.

#include "crypto/schnorr.h"

#include <gtest/gtest.h>

#include "sim/worker_pool.h"
#include "util/hex.h"
#include "util/rng.h"

namespace xdeal {
namespace {

TEST(SchnorrTest, SignVerifyRoundTrip) {
  KeyPair kp = KeyPair::FromSeed("alice");
  Bytes msg = ToBytes("transfer 100 coins to bob");
  Signature sig = kp.Sign(msg);
  EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
}

TEST(SchnorrTest, WrongMessageRejected) {
  KeyPair kp = KeyPair::FromSeed("alice");
  Signature sig = kp.Sign(ToBytes("message one"));
  EXPECT_FALSE(Verify(kp.public_key(), ToBytes("message two"), sig));
}

TEST(SchnorrTest, WrongKeyRejected) {
  KeyPair alice = KeyPair::FromSeed("alice");
  KeyPair bob = KeyPair::FromSeed("bob");
  Bytes msg = ToBytes("a vote");
  Signature sig = alice.Sign(msg);
  EXPECT_FALSE(Verify(bob.public_key(), msg, sig));
}

TEST(SchnorrTest, TamperedSignatureRejected) {
  KeyPair kp = KeyPair::FromSeed("carol");
  Bytes msg = ToBytes("commit deal 42");
  Signature sig = kp.Sign(msg);

  Signature bad_r = sig;
  bad_r.r = U256::AddMod(bad_r.r, U256(1), SchnorrGroup::P());
  EXPECT_FALSE(Verify(kp.public_key(), msg, bad_r));

  Signature bad_s = sig;
  bad_s.s = U256::AddMod(bad_s.s, U256(1), SchnorrGroup::N());
  EXPECT_FALSE(Verify(kp.public_key(), msg, bad_s));
}

TEST(SchnorrTest, DegenerateValuesRejected) {
  KeyPair kp = KeyPair::FromSeed("dave");
  Bytes msg = ToBytes("m");
  Signature zero_sig{U256(), U256()};
  EXPECT_FALSE(Verify(kp.public_key(), msg, zero_sig));

  PublicKey zero_key{U256()};
  EXPECT_FALSE(Verify(zero_key, msg, kp.Sign(msg)));

  // r >= p must be rejected.
  Signature big_r = kp.Sign(msg);
  big_r.r = SchnorrGroup::P();
  EXPECT_FALSE(Verify(kp.public_key(), msg, big_r));
}

TEST(SchnorrTest, DeterministicKeysAndSignatures) {
  KeyPair a1 = KeyPair::FromSeed("seed-x");
  KeyPair a2 = KeyPair::FromSeed("seed-x");
  EXPECT_EQ(a1.public_key(), a2.public_key());

  Bytes msg = ToBytes("hello");
  EXPECT_EQ(a1.Sign(msg), a2.Sign(msg));

  KeyPair b = KeyPair::FromSeed("seed-y");
  EXPECT_FALSE(a1.public_key() == b.public_key());
}

TEST(SchnorrTest, SerializationRoundTrip) {
  KeyPair kp = KeyPair::FromSeed("erin");
  Signature sig = kp.Sign(ToBytes("payload"));
  Bytes wire = sig.Serialize();
  ASSERT_EQ(wire.size(), 64u);
  auto parsed = Signature::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), sig);
  EXPECT_TRUE(Verify(kp.public_key(), ToBytes("payload"), parsed.value()));
}

TEST(SchnorrTest, DeserializeBadLength) {
  EXPECT_FALSE(Signature::Deserialize(Bytes(63)).ok());
  EXPECT_FALSE(Signature::Deserialize(Bytes(65)).ok());
}

TEST(SchnorrTest, ManyKeysManyMessages) {
  Rng rng(2024);
  for (int i = 0; i < 10; ++i) {
    KeyPair kp = KeyPair::FromSeed("party-" + std::to_string(i));
    for (int j = 0; j < 3; ++j) {
      Bytes msg(16);
      for (auto& b : msg) b = static_cast<uint8_t>(rng.Below(256));
      Signature sig = kp.Sign(msg);
      EXPECT_TRUE(Verify(kp.public_key(), msg, sig));
      msg[0] ^= 0xFF;
      EXPECT_FALSE(Verify(kp.public_key(), msg, sig));
    }
  }
}

// Known-answer vectors: the public key and serialized (r, s) for three
// seeds and two messages, recorded from the Knuth-division arithmetic. Any
// change to the field kernel that is not bit-identical moves them, and with
// them every receipt, gas figure and fingerprint in the system.
TEST(SchnorrTest, KnownAnswerVectors) {
  struct Vector {
    const char* seed;
    const char* message;
    const char* public_key;
    const char* signature;
  };
  const Vector kVectors[] = {
      {"alice", "transfer 100 coins to bob",
       "25661e63638b62b68885b39b3d24041743a021444c8beca92ea2f47685ffcf71",
       "0367ae82f39616675d30c93ba98b86b0825ebe71c510e5d60b48a560c10d4ed5"
       "6eefd127d3947d773e8829ec31266b0d8f8f584d461e1ed4408bc3f2c82a5bf8"},
      {"alice", "",
       "25661e63638b62b68885b39b3d24041743a021444c8beca92ea2f47685ffcf71",
       "35498efa0c24621776b0b218c4bb0c39e52c91c0431ca10ff0046dc284e24cd8"
       "1f326379e0967a87d10cae8cb70893ca7b237783f02e50d26016b9db4275fad3"},
      {"validator-3/epoch-0", "transfer 100 coins to bob",
       "7b547cae86b7a0de8c7fb48c02b81b2a6a73e3f82b849ceba03ab24aa9584f1f",
       "552131ca2fbcd7074897a7668f9770a3c992e708b6b8c7f66cae141c2783eaee"
       "41362a55dab8ee2ef5ab3ad9c1f1f8219549559a196586d1aba8ebb5511ef0f8"},
      {"validator-3/epoch-0", "",
       "7b547cae86b7a0de8c7fb48c02b81b2a6a73e3f82b849ceba03ab24aa9584f1f",
       "4c750c79cfc187c0bfafe30ace6e899e117c23deec4dad44af76b896027872e3"
       "676de217abb3c4827cc59e633a5bc602ad7671802191e1d5cc249256ef0768fd"},
      {"kat-seed-42", "transfer 100 coins to bob",
       "28c5de727d5e6621a08d67dcfee8c0703c5c3fb190c1379caa4830e2f95bad51",
       "45ef5e173fca4ecfafa57838fa5ce68fc81c29b810c4c450e3cc626eaefdc956"
       "478e8695c1e1fcbbba75bed2cbd47cc8b2b343a8fc6ecfd62510998da920711d"},
      {"kat-seed-42", "",
       "28c5de727d5e6621a08d67dcfee8c0703c5c3fb190c1379caa4830e2f95bad51",
       "24544825032b3449963bab6275aa81178acc52504b68902526b515a340da813c"
       "0118521ca749dd56140a164fca15cfdf1149d763ed67c958d80180cec4bfae86"},
  };
  for (const Vector& v : kVectors) {
    KeyPair kp = KeyPair::FromSeed(v.seed);
    EXPECT_EQ(kp.public_key().y.ToHex(), v.public_key) << v.seed;
    Signature sig = kp.Sign(std::string_view(v.message));
    EXPECT_EQ(HexEncode(sig.Serialize()), v.signature)
        << v.seed << " / '" << v.message << "'";
    EXPECT_TRUE(Verify(kp.public_key(), std::string_view(v.message), sig));
  }
}

TEST(SchnorrTest, VerifyReadsEveryExponentBitOfS) {
  // g has order dividing n, so g^(s+n) == g^s: Verify must accept (r, s + n)
  // exactly when it accepts (r, s). s + n sets bit 255 and carries through
  // the top limbs, so an exponentiation that dropped high bits of an
  // attacker-supplied, unreduced s would disagree here.
  const U256& n = SchnorrGroup::N();
  for (int i = 0; i < 4; ++i) {
    KeyPair kp = KeyPair::FromSeed("upper-bits-" + std::to_string(i));
    Bytes msg = ToBytes("vote " + std::to_string(i));
    Signature good = kp.Sign(msg);
    Signature bad = good;
    bad.s = U256::AddMod(bad.s, U256(1), n);
    for (const Signature& sig : {good, bad}) {
      Signature lifted = sig;
      lifted.s = sig.s.Add(n);  // s < n < 2^255: no wrap
      ASSERT_GT(lifted.s, n);
      EXPECT_EQ(Verify(kp.public_key(), msg, lifted),
                Verify(kp.public_key(), msg, sig));
    }
    EXPECT_TRUE(Verify(kp.public_key(), msg, good));
    EXPECT_FALSE(Verify(kp.public_key(), msg, bad));
  }
}

TEST(SchnorrTest, FingerprintStable) {
  KeyPair kp = KeyPair::FromSeed("frank");
  EXPECT_EQ(kp.public_key().Fingerprint(), kp.public_key().Fingerprint());
  EXPECT_EQ(kp.public_key().Fingerprint().size(), 8u);
}

// --- batched verification ---

std::vector<BatchItem> MakeBatch(size_t k, const std::string& prefix) {
  std::vector<BatchItem> items;
  for (size_t i = 0; i < k; ++i) {
    KeyPair kp = KeyPair::FromSeed(prefix + "-signer-" + std::to_string(i));
    Bytes msg = ToBytes(prefix + "-msg-" + std::to_string(i % 3));
    items.push_back({kp.public_key(), msg, kp.Sign(msg)});
  }
  return items;
}

TEST(SchnorrBatchTest, EmptyBatchVerifiesTrivially) {
  BatchVerifyResult verdict = BatchVerify({});
  EXPECT_TRUE(verdict.ok);
  EXPECT_FALSE(verdict.used_fallback);
  EXPECT_EQ(verdict.first_bad, -1);
}

TEST(SchnorrBatchTest, ValidBatchesMatchIndividualVerification) {
  // Batch sizes covering 2f+1 for f in {0..4} plus a single-item batch:
  // the combined check must accept exactly when every item verifies alone,
  // without running the fallback.
  for (size_t k : {1u, 3u, 5u, 7u, 9u}) {
    std::vector<BatchItem> items = MakeBatch(k, "ok-" + std::to_string(k));
    for (const BatchItem& item : items) {
      ASSERT_TRUE(Verify(item.key, item.message, item.sig));
    }
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_TRUE(verdict.ok) << "k=" << k;
    EXPECT_FALSE(verdict.used_fallback) << "k=" << k;
    EXPECT_EQ(verdict.first_bad, -1) << "k=" << k;
  }
}

TEST(SchnorrBatchTest, CorruptedBatchFallsBackAndNamesTheCulprit) {
  // Whichever single item is corrupted — tampered s, tampered r, wrong
  // message, swapped key — the combined check fails, the per-signature
  // fallback runs, and first_bad is exactly the corrupted index.
  for (size_t bad : {0u, 2u, 4u}) {
    std::vector<BatchItem> items = MakeBatch(5, "bad-s");
    items[bad].sig.s = U256::AddMod(items[bad].sig.s, U256(1),
                                    SchnorrGroup::N());
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok) << "bad=" << bad;
    EXPECT_TRUE(verdict.used_fallback) << "bad=" << bad;
    EXPECT_EQ(verdict.first_bad, static_cast<int>(bad));
  }
  {
    std::vector<BatchItem> items = MakeBatch(5, "bad-msg");
    items[3].message = ToBytes("a different message");
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_TRUE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 3);
  }
  {
    std::vector<BatchItem> items = MakeBatch(5, "bad-key");
    items[1].key = KeyPair::FromSeed("impostor").public_key();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_TRUE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 1);
  }
}

TEST(SchnorrBatchTest, MultipleBadItemsReportTheFirst) {
  std::vector<BatchItem> items = MakeBatch(7, "multi-bad");
  items[2].sig.s = U256::AddMod(items[2].sig.s, U256(1), SchnorrGroup::N());
  items[5].sig.s = U256::AddMod(items[5].sig.s, U256(1), SchnorrGroup::N());
  BatchVerifyResult verdict = BatchVerify(items);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.used_fallback);
  EXPECT_EQ(verdict.first_bad, 2);
}

TEST(SchnorrBatchTest, DegenerateValuesRejectedBeforeTheCombinedCheck) {
  // Zero r, zero y, and out-of-range r are caught by the pre-checks (the
  // combined equation would misbehave on them), attributed without running
  // the fallback path.
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-r");
    items[1].sig.r = U256();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 1);
  }
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-y");
    items[2].key = PublicKey{U256()};
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 2);
  }
  {
    std::vector<BatchItem> items = MakeBatch(3, "degen-range");
    items[0].sig.r = SchnorrGroup::P();
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_FALSE(verdict.ok);
    EXPECT_FALSE(verdict.used_fallback);
    EXPECT_EQ(verdict.first_bad, 0);
  }
}

TEST(SchnorrBatchTest, QuorumShapedBatchesAgreeWithPerSigOverManySeeds) {
  // Randomized differential sweep shaped like status certificates (same
  // message, 2f+1 distinct signers), occasionally corrupted: BatchVerify's
  // verdict must equal per-signature verification every time.
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    size_t f = 1 + rng.Below(4);
    size_t k = 2 * f + 1;
    Bytes msg(24);
    for (auto& b : msg) b = static_cast<uint8_t>(rng.Below(256));
    std::vector<BatchItem> items;
    for (size_t v = 0; v < k; ++v) {
      KeyPair kp = KeyPair::FromSeed("sweep-" + std::to_string(round) + "-" +
                                     std::to_string(v));
      items.push_back({kp.public_key(), msg, kp.Sign(msg)});
    }
    int corrupted = -1;
    if (rng.Below(2) == 0) {
      corrupted = static_cast<int>(rng.Below(k));
      items[corrupted].sig.s = U256::AddMod(items[corrupted].sig.s, U256(1),
                                            SchnorrGroup::N());
    }
    bool all_valid = true;
    int first_bad = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!Verify(items[i].key, items[i].message, items[i].sig)) {
        all_valid = false;
        if (first_bad < 0) first_bad = static_cast<int>(i);
      }
    }
    BatchVerifyResult verdict = BatchVerify(items);
    EXPECT_EQ(verdict.ok, all_valid) << "round " << round;
    EXPECT_EQ(verdict.first_bad, first_bad) << "round " << round;
    EXPECT_EQ(verdict.used_fallback, corrupted >= 0) << "round " << round;
  }
}

TEST(SchnorrTest, ConcurrentVerifyMatchesSerial) {
  // The shape of a multithreaded check run: Verify and BatchVerify on 4
  // WorkerPool threads at once. Every verdict, on valid and on corrupted
  // inputs alike, must equal the serial one, so the exponentiation keeps
  // no shared mutable state.
  const U256& n = SchnorrGroup::N();
  struct Single {
    PublicKey key;
    Bytes message;
    Signature sig;
  };
  std::vector<Single> singles;
  for (int i = 0; i < 12; ++i) {
    KeyPair kp = KeyPair::FromSeed("concurrent-" + std::to_string(i));
    Bytes msg = ToBytes("path vote " + std::to_string(i));
    Single single{kp.public_key(), msg, kp.Sign(msg)};
    switch (i % 4) {
      case 1: single.sig.s = U256::AddMod(single.sig.s, U256(1), n); break;
      case 2: single.sig.s = single.sig.s.Add(n); break;  // still valid
      case 3: single.message = ToBytes("another vote"); break;
      default: break;
    }
    singles.push_back(single);
  }
  std::vector<std::vector<BatchItem>> batches;
  for (size_t k : {1u, 3u, 5u, 7u}) {
    batches.push_back(MakeBatch(k, "concurrent-ok-" + std::to_string(k)));
    std::vector<BatchItem> bad =
        MakeBatch(k, "concurrent-bad-" + std::to_string(k));
    bad[k / 2].sig.s = U256::AddMod(bad[k / 2].sig.s, U256(1), n);
    batches.push_back(bad);
  }

  std::vector<int> serial_single;
  for (const Single& s : singles) {
    serial_single.push_back(Verify(s.key, s.message, s.sig) ? 1 : 0);
  }
  std::vector<int> serial_batch;
  for (const auto& batch : batches) {
    BatchVerifyResult verdict = BatchVerify(batch);
    serial_batch.push_back(verdict.ok ? -1 : verdict.first_bad);
  }

  // Each task verifies one input; every input is verified 8 times.
  constexpr size_t kRepeats = 8;
  const size_t per_round = singles.size() + batches.size();
  std::vector<int> concurrent(per_round * kRepeats, -2);
  WorkerPool pool(4);
  pool.ParallelFor(concurrent.size(), [&](size_t task) {
    const size_t index = task % per_round;
    if (index < singles.size()) {
      const Single& s = singles[index];
      concurrent[task] = Verify(s.key, s.message, s.sig) ? 1 : 0;
    } else {
      BatchVerifyResult verdict = BatchVerify(batches[index - singles.size()]);
      concurrent[task] = verdict.ok ? -1 : verdict.first_bad;
    }
  });
  for (size_t task = 0; task < concurrent.size(); ++task) {
    const size_t index = task % per_round;
    const int expect = index < singles.size()
                           ? serial_single[index]
                           : serial_batch[index - singles.size()];
    EXPECT_EQ(concurrent[task], expect) << "task " << task;
  }
  EXPECT_EQ(serial_single, (std::vector<int>{1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
                                             1, 0}));
  EXPECT_EQ(serial_batch, (std::vector<int>{-1, 0, -1, 1, -1, 2, -1, 3}));
}

}  // namespace
}  // namespace xdeal
