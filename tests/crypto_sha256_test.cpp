// SHA-256 correctness against FIPS 180-4 / NIST test vectors, plus
// incremental-update equivalence and Hash256 helpers. The differential tests
// hold the dispatched compress (SHA-NI where the CPU has it) to the portable
// one, reached through the sha256_internal declarations.

#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/rng.h"

namespace xdeal {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256Digest("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64-byte input exercises the padding path where a second block is needed.
  std::string input(64, 'x');
  Hash256 a = Sha256Digest(input);
  Sha256 h;
  h.Update(input.substr(0, 31));
  h.Update(input.substr(31));
  EXPECT_EQ(a, h.Finish());
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    size_t len = rng.Below(300);
    Bytes data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Below(256));

    Hash256 oneshot = Sha256Digest(data);

    Sha256 inc;
    size_t pos = 0;
    while (pos < len) {
      size_t take = 1 + rng.Below(17);
      take = std::min(take, len - pos);
      inc.Update(data.data() + pos, take);
      pos += take;
    }
    EXPECT_EQ(oneshot, inc.Finish()) << "trial " << trial << " len " << len;
  }
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256Digest("a"), Sha256Digest("b"));
  EXPECT_NE(Sha256Digest("abc"), Sha256Digest("abcd"));
}

// --- compress paths ------------------------------------------------------

struct FipsVector {
  std::string input;
  const char* digest;
};

std::vector<FipsVector> FipsVectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

Hash256 DigestWith(sha256_internal::CompressFn compress,
                   const std::string& s) {
  return sha256_internal::DigestWith(
      compress, reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

TEST(Sha256CompressTest, PortableMatchesFipsVectors) {
  for (const FipsVector& v : FipsVectors()) {
    EXPECT_EQ(DigestWith(&sha256_internal::CompressPortable, v.input).ToHex(),
              v.digest)
        << "length " << v.input.size();
  }
}

TEST(Sha256CompressTest, ShaNiMatchesFipsVectors) {
  sha256_internal::CompressFn sha_ni = sha256_internal::ShaNiCompress();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA-NI kernel: not an x86-64 build, or this CPU "
                    "lacks SHA-NI, SSE4.1 or SSSE3";
  }
  EXPECT_EQ(sha256_internal::DispatchedCompress(), sha_ni);
  for (const FipsVector& v : FipsVectors()) {
    EXPECT_EQ(DigestWith(sha_ni, v.input).ToHex(), v.digest)
        << "length " << v.input.size();
  }
}

Bytes RandomBytes(Rng& rng, size_t len) {
  Bytes data(len);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Below(256));
  return data;
}

// Every length from 0 to 65 blocks plus one byte, each read from every
// alignment within 16 bytes: covers the padding paths, partial and whole
// blocks, and unaligned loads in the kernel.
TEST(Sha256CompressTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4160;
  constexpr size_t kOffsets = 16;
  Rng rng(7);
  const Bytes data = RandomBytes(rng, kMaxLen);
  // shifted[o] holds `data` starting o bytes into a fresh allocation.
  std::vector<Bytes> shifted(kOffsets, Bytes(kMaxLen + kOffsets));
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    std::copy(data.begin(), data.end(), shifted[offset].begin() + offset);
  }
  for (size_t len = 0; len <= kMaxLen; ++len) {
    const Hash256 want = sha256_internal::DigestWith(
        &sha256_internal::CompressPortable, data.data(), len);
    for (size_t offset = 0; offset < kOffsets; ++offset) {
      Sha256 h;
      h.Update(shifted[offset].data() + offset, len);
      ASSERT_EQ(h.Finish(), want) << "length " << len << " offset " << offset;
    }
  }
}

TEST(Sha256CompressTest, DispatchedMatchesPortableAtRandomSplitPoints) {
  Rng rng(11);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t len = rng.Below(4161);
    const Bytes data = RandomBytes(rng, len);
    const Hash256 want = sha256_internal::DigestWith(
        &sha256_internal::CompressPortable, data.data(), len);
    // Chunks from empty to three blocks long, so Update sees a buffered
    // tail followed by whole blocks as often as it sees small pieces.
    Sha256 h;
    size_t pos = 0;
    while (pos < len) {
      size_t take = std::min<size_t>(rng.Below(193), len - pos);
      h.Update(data.data() + pos, take);
      pos += take;
    }
    ASSERT_EQ(h.Finish(), want) << "trial " << trial << " length " << len;
  }
}

TEST(Hash256Test, ZeroAndPrefix) {
  Hash256 zero{};
  EXPECT_TRUE(zero.IsZero());
  EXPECT_EQ(zero.Prefix64(), 0u);

  Hash256 h = Sha256Digest("abc");
  EXPECT_FALSE(h.IsZero());
  // ba7816bf8f01cfea as big-endian prefix.
  EXPECT_EQ(h.Prefix64(), 0xba7816bf8f01cfeaULL);
  EXPECT_EQ(h.ShortHex(), "ba7816bf");
}

TEST(Hash256Test, Ordering) {
  Hash256 a = Sha256Digest("a");
  Hash256 b = Sha256Digest("b");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

}  // namespace
}  // namespace xdeal
