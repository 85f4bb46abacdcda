// U256 arithmetic: hex round-trips, comparison, add/sub/mul/mod identities,
// Knuth-division cross-checked against __int128 for small values and against
// algebraic identities for full-width values; Knuth division in turn is the
// oracle for the fold reduction of the Schnorr moduli.

#include "crypto/u256.h"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/schnorr.h"
#include "util/rng.h"

namespace xdeal {
namespace {

U256 RandomU256(Rng* rng) {
  return U256::FromLimbsBigEndian(rng->Next64(), rng->Next64(), rng->Next64(),
                                  rng->Next64());
}

TEST(U256Test, HexRoundTrip) {
  bool ok = false;
  U256 v = U256::FromHex(
      "00112233445566778899aabbccddeeff0123456789abcdef0fedcba987654321", &ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v.ToHex(),
            "00112233445566778899aabbccddeeff0123456789abcdef0fedcba987654321");
}

TEST(U256Test, HexShortAndPrefix) {
  bool ok = false;
  EXPECT_EQ(U256::FromHex("ff", &ok), U256(255));
  EXPECT_TRUE(ok);
  EXPECT_EQ(U256::FromHex("0x10", &ok), U256(16));
  EXPECT_TRUE(ok);
  U256::FromHex("zz", &ok);
  EXPECT_FALSE(ok);
  U256::FromHex("", &ok);
  EXPECT_FALSE(ok);
}

TEST(U256Test, BytesRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    U256 v = RandomU256(&rng);
    Bytes b = v.ToBytes();
    ASSERT_EQ(b.size(), 32u);
    Hash256 h;
    std::copy(b.begin(), b.end(), h.bytes.begin());
    EXPECT_EQ(U256::FromHash(h), v);
  }
}

TEST(U256Test, CompareBasic) {
  EXPECT_LT(U256(1), U256(2));
  EXPECT_GT(U256::FromLimbsBigEndian(1, 0, 0, 0), U256(0xFFFFFFFFFFFFFFFFULL));
  EXPECT_EQ(U256(5).Compare(U256(5)), 0);
}

TEST(U256Test, AddSubInverse) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    EXPECT_EQ(a.Add(b).Sub(b), a);
    EXPECT_EQ(a.Sub(b).Add(b), a);
  }
}

TEST(U256Test, AddCarryPropagates) {
  U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  uint64_t carry = 0;
  U256 sum = max.AddWithCarry(U256(1), &carry);
  EXPECT_TRUE(sum.IsZero());
  EXPECT_EQ(carry, 1u);
}

TEST(U256Test, ShiftIdentities) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    U256 a = RandomU256(&rng);
    unsigned s = static_cast<unsigned>(rng.Below(256));
    // (a << s) >> s recovers the low bits of a.
    U256 masked = a.ShiftLeft(s).ShiftRight(s);
    U256 expect = s == 0 ? a
                         : a.ShiftLeft(s).ShiftRight(s);  // self-consistent
    EXPECT_EQ(masked, expect);
    // Shifting by >= 256 yields zero.
    EXPECT_TRUE(a.ShiftLeft(256).IsZero());
    EXPECT_TRUE(a.ShiftRight(256).IsZero());
  }
  EXPECT_EQ(U256(1).ShiftLeft(64), U256::FromLimbsBigEndian(0, 0, 1, 0));
  EXPECT_EQ(U256::FromLimbsBigEndian(0, 0, 1, 0).ShiftRight(64), U256(1));
}

TEST(U256Test, BitLength) {
  EXPECT_EQ(U256().BitLength(), 0);
  EXPECT_EQ(U256(1).BitLength(), 1);
  EXPECT_EQ(U256(255).BitLength(), 8);
  EXPECT_EQ(U256::FromLimbsBigEndian(1, 0, 0, 0).BitLength(), 193);
}

TEST(U256Test, MulModSmallMatchesInt128) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next64();
    uint64_t b = rng.Next64();
    uint64_t m = rng.Next64() | 1;  // nonzero
    __uint128_t expect = (static_cast<__uint128_t>(a) * b) % m;
    U256 got = U256::MulMod(U256(a), U256(b), U256(m));
    EXPECT_EQ(got, U256(static_cast<uint64_t>(expect)));
  }
}

TEST(U256Test, ModSmallMatchesNative) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Next64();
    uint64_t m = rng.Next64() | 1;
    EXPECT_EQ(U256::Mod(U256(a), U256(m)), U256(a % m));
  }
}

TEST(U256Test, ModIdentityFullWidth) {
  // For random full-width a and m: r = a mod m satisfies r < m, and
  // (a - r) mod m == 0 via AddMod reconstruction.
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    U256 a = RandomU256(&rng);
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(1);
    U256 r = U256::Mod(a, m);
    EXPECT_LT(r, m);
    EXPECT_TRUE(U256::SubMod(a, r, m).IsZero());
  }
}

TEST(U256Test, MulModAlgebra) {
  // Distributivity and commutativity mod a full-width modulus.
  Rng rng(29);
  for (int i = 0; i < 60; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = RandomU256(&rng);
    U256 c = RandomU256(&rng);
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(97);
    EXPECT_EQ(U256::MulMod(a, b, m), U256::MulMod(b, a, m));
    // a*(b+c) == a*b + a*c (mod m)
    U256 lhs = U256::MulMod(a, U256::AddMod(b, c, m), m);
    U256 rhs = U256::AddMod(U256::MulMod(a, b, m), U256::MulMod(a, c, m), m);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(U256Test, PowModSmall) {
  EXPECT_EQ(U256::PowMod(U256(2), U256(10), U256(1000000007)), U256(1024));
  EXPECT_EQ(U256::PowMod(U256(3), U256(0), U256(7)), U256(1));
  EXPECT_EQ(U256::PowMod(U256(0), U256(5), U256(7)), U256(0));
  // Fermat: a^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(U256::PowMod(U256(123456789), U256(1000000006), U256(1000000007)),
            U256(1));
}

TEST(U256Test, PowModExponentLaws) {
  // g^(a+b) == g^a * g^b mod p over the Schnorr prime.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();
  Rng rng(31);
  for (int i = 0; i < 10; ++i) {
    U256 a = U256::Mod(RandomU256(&rng), n);
    U256 b = U256::Mod(RandomU256(&rng), n);
    U256 lhs = U256::PowMod(U256(2), U256::AddMod(a, b, n), p);
    U256 rhs = U256::MulMod(U256::PowMod(U256(2), a, p),
                            U256::PowMod(U256(2), b, p), p);
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(U256Test, FermatOnSchnorrPrime) {
  // 2^255-19 is prime: a^(p-1) == 1 (mod p) for a not divisible by p.
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();  // p - 1
  Rng rng(37);
  for (int i = 0; i < 5; ++i) {
    U256 a = U256::Mod(RandomU256(&rng), p);
    if (a.IsZero()) a = U256(2);
    EXPECT_EQ(U256::PowMod(a, n, p), U256(1));
  }
}

// Operands for the differential tests: uniform words, plus words built from
// all-zero / all-one / random limbs so products land next to the carry and
// bit-255 boundaries of the reduction.
U256 EdgyU256(Rng* rng) {
  uint64_t limbs[4];
  for (uint64_t& limb : limbs) {
    switch (rng->Below(4)) {
      case 0: limb = 0; break;
      case 1: limb = ~0ULL; break;
      case 2: limb = rng->Below(1 << 8); break;
      default: limb = rng->Next64(); break;
    }
  }
  // limbs[0] is the most significant: half the time, clear bit 255.
  if (rng->Below(2) == 0) limbs[0] &= 0x7FFFFFFFFFFFFFFFULL;
  return U256::FromLimbsBigEndian(limbs[0], limbs[1], limbs[2], limbs[3]);
}

// The Schnorr moduli p = 2^255 - 19 and n = p - 1 = 2^255 - 20 take the
// fold reduction; U512::Mod (Knuth division) is the oracle for both.
TEST(U256Test, FoldReductionMatchesKnuthDivision) {
  const U256 two255 = U256(1).ShiftLeft(255);
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (const U256& m : {SchnorrGroup::P(), SchnorrGroup::N()}) {
    const std::vector<U256> edges = {
        U256(),   U256(1),          m.Sub(U256(1)),
        m,        m.Add(U256(1)),   two255,
        two255.Sub(U256(1)),        max,
        max.Sub(m),                 m.Add(m).Sub(U256(1)),
        m.Add(m), U256(38)};
    for (const U256& a : edges) {
      EXPECT_EQ(U256::Mod(a, m), U512::Mul(a, U256(1)).Mod(m)) << a.ToHex();
      for (const U256& b : edges) {
        EXPECT_EQ(U256::MulMod(a, b, m), U512::Mul(a, b).Mod(m))
            << a.ToHex() << " * " << b.ToHex();
      }
    }
    Rng rng(m.Low64());
    for (int i = 0; i < 100000; ++i) {
      U256 a = (i % 2 == 0) ? RandomU256(&rng) : EdgyU256(&rng);
      U256 b = (i % 3 == 0) ? RandomU256(&rng) : EdgyU256(&rng);
      ASSERT_EQ(U256::MulMod(a, b, m), U512::Mul(a, b).Mod(m))
          << a.ToHex() << " * " << b.ToHex();
      ASSERT_EQ(U256::Mod(a, m), U512::Mul(a, U256(1)).Mod(m)) << a.ToHex();
    }
  }
}

TEST(U256Test, U512MulMatchesInt128) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = rng.Next64();
    uint64_t b = rng.Next64();
    U512 prod = U512::Mul(U256(a), U256(b));
    __uint128_t expect = static_cast<__uint128_t>(a) * b;
    EXPECT_EQ(prod.limbs[0], static_cast<uint64_t>(expect));
    EXPECT_EQ(prod.limbs[1], static_cast<uint64_t>(expect >> 64));
    for (int j = 2; j < 8; ++j) EXPECT_EQ(prod.limbs[j], 0u);
  }
}

TEST(U256Test, U512ModReconstruction) {
  // For a,b full width: (a*b) mod m computed two ways must agree:
  // direct U512 path vs iterated AddMod over the binary expansion of b.
  Rng rng(47);
  for (int i = 0; i < 10; ++i) {
    U256 a = RandomU256(&rng);
    U256 b = U256(rng.Below(1 << 20));  // keep the slow path cheap
    U256 m = RandomU256(&rng);
    if (m.IsZero()) m = U256(101);

    U256 fast = U256::MulMod(a, b, m);

    U256 slow;
    U256 addend = U256::Mod(a, m);
    uint64_t bits = b.Low64();
    while (bits > 0) {
      if (bits & 1) slow = U256::AddMod(slow, addend, m);
      addend = U256::AddMod(addend, addend, m);
      bits >>= 1;
    }
    EXPECT_EQ(fast, slow);
  }
}

}  // namespace
}  // namespace xdeal
