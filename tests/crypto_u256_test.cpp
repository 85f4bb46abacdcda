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

// The exponentiation oracle: left-to-right square-and-multiply over every
// bit of `exp`, one MulMod per step.
U256 SquareAndMultiply(const U256& base, const U256& exp, const U256& m) {
  if (m == U256(1)) return U256();
  U256 result(1);
  const U256 b = U256::Mod(base, m);
  for (int i = exp.BitLength() - 1; i >= 0; --i) {
    result = U256::MulMod(result, result, m);
    if (exp.Bit(i)) result = U256::MulMod(result, b, m);
  }
  return result;
}

// Moduli for the exponentiation tests: the two fold-path Schnorr moduli,
// moduli that take Knuth division (a full-width odd one, one a bit too far
// below 2^255 to fold, a 64-bit prime), and m = 1.
std::vector<U256> ExponentiationModuli() {
  return {SchnorrGroup::P(),
          SchnorrGroup::N(),
          U256::FromHex("f3a1c07d5e2b6498a7c3e1d0b5f49286"
                        "3d7e1a0c9b8f6e5d4c3b2a1908f7e6d5"),
          U256(1).ShiftLeft(255).Sub(U256(1).ShiftLeft(40)),
          U256(1000000007),
          U256(1)};
}

// Exponents that stress a windowed scan: the ends of the range, runs of
// ones longer than any window, windows straddling the limb boundaries, and
// one exponent of every length from 1 to 256 bits.
std::vector<U256> ExponentiationExponents(Rng* rng) {
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> exps = {U256(), U256(1), U256(2), U256(3), max,
                            max.ShiftRight(1)};
  for (unsigned run : {6u, 7u, 11u, 64u, 130u}) {
    for (unsigned shift : {0u, 1u, 60u, 125u, 250u}) {
      exps.push_back(max.ShiftRight(256 - run).ShiftLeft(shift));
    }
  }
  for (unsigned boundary : {64u, 128u, 192u}) {
    for (unsigned below = 1; below <= 6; ++below) {
      // 0b1...1 (6 bits) and 0b10001 patterns whose low end sits `below`
      // bits under the limb boundary.
      exps.push_back(U256(0x3F).ShiftLeft(boundary - below));
      exps.push_back(U256(0x11).ShiftLeft(boundary - below));
      exps.push_back(U256(0x11).ShiftLeft(boundary - below).Add(U256(1)));
    }
  }
  for (unsigned length = 1; length <= 256; ++length) {
    U256 e = RandomU256(rng).ShiftRight(256 - length);
    if (!e.Bit(length - 1)) e = e.Add(U256(1).ShiftLeft(length - 1));
    exps.push_back(e);
  }
  return exps;
}

// Bases for modulus m: the edges of [0, m], and unreduced values above m.
std::vector<U256> ExponentiationBases(const U256& m, Rng* rng) {
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> bases = {U256(), U256(1), m.Sub(U256(1)), m,
                             m.Add(U256(1)), max, RandomU256(rng)};
  if (max.Sub(m) >= m) bases.push_back(m.Add(m).Add(U256(2)));
  return bases;
}

TEST(U256Test, PowModMatchesSquareAndMultiply) {
  for (const U256& m : ExponentiationModuli()) {
    Rng rng(m.Low64() ^ 0x9E3779B97F4A7C15ULL);
    const std::vector<U256> exps = ExponentiationExponents(&rng);
    for (const U256& base : ExponentiationBases(m, &rng)) {
      for (const U256& exp : exps) {
        ASSERT_EQ(U256::PowMod(base, exp, m), SquareAndMultiply(base, exp, m))
            << base.ToHex() << " ^ " << exp.ToHex() << " mod " << m.ToHex();
      }
    }
    for (int i = 0; i < 300; ++i) {
      const U256 base = (i % 2 == 0) ? RandomU256(&rng) : EdgyU256(&rng);
      const U256 exp = (i % 3 == 0) ? RandomU256(&rng) : EdgyU256(&rng);
      ASSERT_EQ(U256::PowMod(base, exp, m), SquareAndMultiply(base, exp, m))
          << base.ToHex() << " ^ " << exp.ToHex() << " mod " << m.ToHex();
    }
  }
}

// The product of every base^exp by the oracle, one term at a time.
U256 ProductOfPowers(const std::vector<std::pair<U256, U256>>& terms,
                     const U256& m) {
  U256 product = U256::Mod(U256(1), m);
  for (const auto& [base, exp] : terms) {
    product = U256::MulMod(product, SquareAndMultiply(base, exp, m), m);
  }
  return product;
}

TEST(U256Test, MultiExpModMatchesProductOfPowMods) {
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> moduli = ExponentiationModuli();
  moduli.resize(3);  // p, n and the full-width Knuth modulus
  for (const U256& m : moduli) {
    Rng rng(m.Low64() + 3);
    auto random_below = [&rng](unsigned bits) {
      return RandomU256(&rng).ShiftRight(256 - bits);
    };
    std::vector<std::vector<std::pair<U256, U256>>> cases;
    cases.push_back({});
    cases.push_back({{RandomU256(&rng), RandomU256(&rng)}});
    cases.push_back({{RandomU256(&rng), U256()}, {RandomU256(&rng), U256()}});
    for (size_t items : {1u, 2u, 3u, 5u, 9u, 17u, 20u}) {
      // Batch-shaped: per item one 128-bit and one 256-bit exponent.
      std::vector<std::pair<U256, U256>> terms;
      for (size_t i = 0; i < items; ++i) {
        terms.emplace_back(random_below(255), random_below(128));
        terms.emplace_back(random_below(255), RandomU256(&rng));
      }
      cases.push_back(terms);
    }
    const U256 shared = RandomU256(&rng);
    cases.push_back({{shared, random_below(128)},
                     {shared, RandomU256(&rng)},
                     {shared, max}});
    cases.push_back({{m, RandomU256(&rng)},
                     {m.Add(U256(1)), RandomU256(&rng)},
                     {max, random_below(128)},
                     {U256(), U256()},
                     {U256(), U256(1)}});
    cases.push_back({{EdgyU256(&rng), EdgyU256(&rng)},
                     {EdgyU256(&rng), U256(0x3F).ShiftLeft(61)},
                     {EdgyU256(&rng), U256(1).ShiftLeft(255)},
                     {U256(1), max}});
    for (const auto& terms : cases) {
      ASSERT_EQ(U256::MultiExpMod(terms, m), ProductOfPowers(terms, m))
          << terms.size() << " terms mod " << m.ToHex();
    }
  }
  EXPECT_EQ(U256::MultiExpMod({{U256(5), U256(7)}}, U256(1)), U256());
}

// U512::Square against U512::Mul(a, a), and squaring mod p and n (the
// fold path, also inside PowMod's chain) against Knuth division.
TEST(U256Test, SquareMatchesMulThenFold) {
  const U256 max = U256::FromLimbsBigEndian(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<U256> operands = {U256(), U256(1), U256(~0ULL), max,
                                max.ShiftRight(1), U256(1).ShiftLeft(255),
                                SchnorrGroup::P(), SchnorrGroup::N()};
  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    operands.push_back((i % 2 == 0) ? RandomU256(&rng) : EdgyU256(&rng));
  }
  for (const U256& a : operands) {
    const U512 square = U512::Square(a);
    ASSERT_EQ(square.limbs, U512::Mul(a, a).limbs) << a.ToHex();
    for (const U256& m : {SchnorrGroup::P(), SchnorrGroup::N()}) {
      ASSERT_EQ(U256::MulMod(a, a, m), square.Mod(m)) << a.ToHex();
      ASSERT_EQ(U256::PowMod(a, U256(2), m), square.Mod(m)) << a.ToHex();
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
