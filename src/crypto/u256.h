// U256: fixed-width 256-bit unsigned integer arithmetic.
//
// Built from scratch on 64-bit limbs (little-endian limb order) with a
// 512-bit intermediate for multiplication. This is the numeric substrate of
// the Schnorr signature scheme (schnorr.h): modular exponentiation over the
// prime field of p = 2^255 - 19, with exponents mod n = p - 1.
//
// Reduction has two paths, chosen from the modulus alone and bit-identical
// in their results. A modulus m = 2^255 - c with 0 < c < 2^32 (both p and
// n) takes the fold path: 2^256 = 2c (mod m), so a product reduces with a
// few word multiplies and one conditional subtraction. Every other modulus
// takes Knuth Algorithm D division (U512::Mod), which is also the test
// oracle for the fold path.

#ifndef XDEAL_CRYPTO_U256_H_
#define XDEAL_CRYPTO_U256_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace xdeal {

/// 256-bit unsigned integer. Value semantics; all operations are constant
/// size (no allocation). Overflow wraps mod 2^256 for Add/Sub/Mul unless the
/// wide variants are used.
class U256 {
 public:
  /// Zero.
  constexpr U256() : limbs_{0, 0, 0, 0} {}

  /// From a 64-bit value.
  constexpr explicit U256(uint64_t v) : limbs_{v, 0, 0, 0} {}

  /// From four 64-bit limbs, most-significant first (reads like hex).
  static constexpr U256 FromLimbsBigEndian(uint64_t l3, uint64_t l2,
                                           uint64_t l1, uint64_t l0) {
    U256 out;
    out.limbs_ = {l0, l1, l2, l3};
    return out;
  }

  /// Parses a hex string of up to 64 digits (no 0x prefix required).
  /// Returns zero on malformed input paired with `ok=false`.
  static U256 FromHex(std::string_view hex, bool* ok = nullptr);

  /// Interprets a 32-byte big-endian buffer (e.g. a Hash256) as an integer.
  static U256 FromHash(const Hash256& h);

  /// Big-endian 32-byte encoding.
  Bytes ToBytes() const;

  /// 64 hex digits, most significant first.
  std::string ToHex() const;

  /// True for the value zero.
  bool IsZero() const {
    return (limbs_[0] | limbs_[1] | limbs_[2] | limbs_[3]) == 0;
  }
  /// True when bit 0 is set.
  bool IsOdd() const { return limbs_[0] & 1; }

  /// Limb `i` in 0..3; limb 0 is the least significant.
  uint64_t limb(int i) const { return limbs_[i]; }
  /// The least significant 64 bits.
  uint64_t Low64() const { return limbs_[0]; }

  /// Three-way comparison: negative, zero or positive as *this <, ==, > o.
  int Compare(const U256& o) const;
  bool operator==(const U256& o) const { return limbs_ == o.limbs_; }
  bool operator!=(const U256& o) const { return limbs_ != o.limbs_; }
  bool operator<(const U256& o) const { return Compare(o) < 0; }
  bool operator<=(const U256& o) const { return Compare(o) <= 0; }
  bool operator>(const U256& o) const { return Compare(o) > 0; }
  bool operator>=(const U256& o) const { return Compare(o) >= 0; }

  /// Wrapping sum mod 2^256.
  U256 Add(const U256& o) const;
  /// Wrapping sum mod 2^256; `*carry_out` (if non-null) receives the carry
  /// out of bit 255, 0 or 1.
  U256 AddWithCarry(const U256& o, uint64_t* carry_out) const;
  /// Wrapping difference mod 2^256 (wraps on underflow).
  U256 Sub(const U256& o) const;
  /// Logical shift left; bits shifted past 255 are lost, >= 256 gives zero.
  U256 ShiftLeft(unsigned bits) const;
  /// Logical shift right; >= 256 gives zero.
  U256 ShiftRight(unsigned bits) const;

  /// Number of significant bits (0 for zero).
  int BitLength() const;
  /// Bit `i` in 0..255; bit 0 is the least significant.
  bool Bit(int i) const {
    return (limbs_[i / 64] >> (i % 64)) & 1;
  }

  // Modular arithmetic. In every function below `m` must be nonzero, the
  // operands may be unreduced (any value below 2^256), and the result is
  // canonical, in [0, m). A modulus m = 2^255 - c with 0 < c < 2^32 (the
  // Schnorr p and n) reduces by folding; any other by Knuth division. The
  // two give the same result.

  /// (a + b) mod m. Both operands are reduced first.
  static U256 AddMod(const U256& a, const U256& b, const U256& m);
  /// (a - b) mod m. Both operands are reduced first.
  static U256 SubMod(const U256& a, const U256& b, const U256& m);
  /// (a * b) mod m, from the full 512-bit product.
  static U256 MulMod(const U256& a, const U256& b, const U256& m);
  /// base^exp mod m, reading every bit of `exp` in sliding windows of up to
  /// 5 bits: a table of the 16 odd powers base^1 .. base^31, then one
  /// squaring per bit of `exp` and one multiply per window. For a 256-bit
  /// exponent that is about 255 squarings and 58 multiplies. exp = 0 gives
  /// 1 mod m. The result is exactly left-to-right square-and-multiply's.
  static U256 PowMod(const U256& base, const U256& exp, const U256& m);
  /// a mod m; returns `a` unchanged when a < m.
  static U256 Mod(const U256& a, const U256& m);

  /// Simultaneous multi-exponentiation: Π base_i^{exp_i} mod m over all
  /// (base, exp) pairs in `terms`, via interleaved (Straus) sliding windows
  /// of up to 4 bits that share ONE squaring chain across up to 32 terms.
  /// Each term with a nonzero exponent gets a table of its 8 odd powers
  /// (one squaring and 7 multiplies) and one multiply per window, about
  /// b/5 for a b-bit exponent; the chain costs b squarings for the longest
  /// one. This is the kernel behind batched Schnorr certificate
  /// verification. `m` must be nonzero; bases may be unreduced; an empty
  /// `terms` yields 1 mod m. The result is canonical, in [0, m), and equal
  /// to the product of the terms' PowMods. No heap allocation.
  static U256 MultiExpMod(const std::vector<std::pair<U256, U256>>& terms,
                          const U256& m);

 private:
  // limbs_[0] is least significant.
  std::array<uint64_t, 4> limbs_;
};

/// 512-bit product of two U256 values and its remainder by Knuth division;
/// exposed as the reference the fold path is tested against.
struct U512 {
  std::array<uint64_t, 8> limbs{};  // little-endian

  /// The exact 512-bit product a * b.
  static U512 Mul(const U256& a, const U256& b);

  /// The exact 512-bit square a * a, equal to Mul(a, a) in 10 word
  /// multiplies instead of 16: each cross product a_i * a_j is formed once
  /// and doubled. The squaring step of PowMod and MultiExpMod.
  static U512 Square(const U256& a);

  /// Remainder of this 512-bit value modulo a nonzero 256-bit modulus,
  /// canonical in [0, m), via Knuth Algorithm D with 32-bit digits. Always
  /// divides, whatever the form of `m`: this is the generic path and the
  /// oracle for the fold reduction.
  U256 Mod(const U256& m) const;
};

}  // namespace xdeal

#endif  // XDEAL_CRYPTO_U256_H_
