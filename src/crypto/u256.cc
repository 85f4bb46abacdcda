#include "crypto/u256.h"

#include <algorithm>
#include <cstring>

namespace xdeal {

namespace {

// ---------------------------------------------------------------------------
// Digit-level division kernel (Knuth TAOCP vol 2, Algorithm D), base 2^32.
//
// Divides u (un digits, little-endian) by v (vn digits, v[vn-1] != 0),
// producing quotient q (un - vn + 1 digits) and remainder r (vn digits).
// Requires un >= vn. Adapted from the classic divmnu reference code.
// ---------------------------------------------------------------------------

constexpr int kMaxU = 17;  // 512 bits = 16 digits, +1 for normalization
constexpr int kMaxV = 8;   // 256 bits

void DivRemDigits(const uint32_t* u_in, int un, const uint32_t* v_in, int vn,
                  uint32_t* q, uint32_t* r) {
  const uint64_t kBase = 1ULL << 32;

  if (vn == 1) {
    uint64_t rem = 0;
    const uint32_t d = v_in[0];
    for (int j = un - 1; j >= 0; --j) {
      uint64_t acc = (rem << 32) | u_in[j];
      q[j] = static_cast<uint32_t>(acc / d);
      rem = acc % d;
    }
    r[0] = static_cast<uint32_t>(rem);
    return;
  }

  // D1: normalize so the divisor's top digit has its high bit set.
  const int s = __builtin_clz(v_in[vn - 1]);  // 0..31
  uint32_t v[kMaxV];
  uint32_t u[kMaxU];
  for (int i = vn - 1; i > 0; --i) {
    v[i] = (v_in[i] << s) | (s ? (v_in[i - 1] >> (32 - s)) : 0);
  }
  v[0] = v_in[0] << s;
  u[un] = s ? (u_in[un - 1] >> (32 - s)) : 0;
  for (int i = un - 1; i > 0; --i) {
    u[i] = (u_in[i] << s) | (s ? (u_in[i - 1] >> (32 - s)) : 0);
  }
  u[0] = u_in[0] << s;

  // D2..D7: main loop over quotient digits.
  for (int j = un - vn; j >= 0; --j) {
    // D3: estimate qhat from the top two digits.
    uint64_t num =
        (static_cast<uint64_t>(u[j + vn]) << 32) | u[j + vn - 1];
    uint64_t qhat = num / v[vn - 1];
    uint64_t rhat = num % v[vn - 1];
    while (qhat >= kBase ||
           qhat * v[vn - 2] >
               ((rhat << 32) | u[j + vn - 2])) {
      --qhat;
      rhat += v[vn - 1];
      if (rhat >= kBase) break;
    }

    // D4: multiply and subtract.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (int i = 0; i < vn; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u[i + j]) -
                  static_cast<int64_t>(p & 0xFFFFFFFFULL) - borrow;
      u[i + j] = static_cast<uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    int64_t t = static_cast<int64_t>(u[j + vn]) -
                static_cast<int64_t>(carry) - borrow;
    u[j + vn] = static_cast<uint32_t>(t);
    q[j] = static_cast<uint32_t>(qhat);

    // D6: rare over-estimate — add the divisor back.
    if (t < 0) {
      --q[j];
      uint64_t c = 0;
      for (int i = 0; i < vn; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<uint32_t>(sum);
        c = sum >> 32;
      }
      u[j + vn] = static_cast<uint32_t>(u[j + vn] + c);
    }
  }

  // D8: denormalize the remainder.
  for (int i = 0; i < vn - 1; ++i) {
    r[i] = (u[i] >> s) |
           (s ? static_cast<uint32_t>(static_cast<uint64_t>(u[i + 1])
                                      << (32 - s))
              : 0);
  }
  r[vn - 1] = u[vn - 1] >> s;
}

// Splits 64-bit limbs into 32-bit digits (little-endian).
void ToDigits(const uint64_t* limbs, int nlimbs, uint32_t* digits) {
  for (int i = 0; i < nlimbs; ++i) {
    digits[2 * i] = static_cast<uint32_t>(limbs[i]);
    digits[2 * i + 1] = static_cast<uint32_t>(limbs[i] >> 32);
  }
}

int SignificantDigits(const uint32_t* digits, int n) {
  while (n > 0 && digits[n - 1] == 0) --n;
  return n;
}

U256 FromDigits(const uint32_t* digits, int n) {
  uint64_t limbs[4] = {0, 0, 0, 0};
  for (int i = 0; i < n && i < 8; ++i) {
    limbs[i / 2] |= static_cast<uint64_t>(digits[i]) << (32 * (i % 2));
  }
  return U256::FromLimbsBigEndian(limbs[3], limbs[2], limbs[1], limbs[0]);
}

// Generic remainder: value given as digits (up to 16), modulus as U256.
U256 ModDigits(const uint32_t* val_digits, int val_n, const U256& m) {
  uint32_t vd[kMaxV];
  uint64_t mlimbs[4] = {m.limb(0), m.limb(1), m.limb(2), m.limb(3)};
  ToDigits(mlimbs, 4, vd);
  int vn = SignificantDigits(vd, 8);
  int un = SignificantDigits(val_digits, val_n);
  if (un < vn) return FromDigits(val_digits, un);
  uint32_t q[kMaxU];
  uint32_t r[kMaxV];
  DivRemDigits(val_digits, un, vd, vn, q, r);
  return FromDigits(r, vn);
}

// ---------------------------------------------------------------------------
// Fold reduction for moduli of the form m = 2^255 - c, 0 < c < 2^32.
//
// 2^255 = c (mod m), so 2^256 = 2c: a 512-bit product H*2^256 + L reduces
// to L + H*2c (< 2^290) with no division. Folding the bits at 255 and above
// times c leaves less than 2^255 + 2^67 < 2m, so one conditional
// subtraction makes it canonical. Both Schnorr moduli have this form:
// p (c = 19) and n = p - 1 (c = 20).
// ---------------------------------------------------------------------------

// c when m = 2^255 - c with 0 < c < 2^32; 0 (use Knuth division) otherwise.
uint64_t FoldConstant(const U256& m) {
  if (m.limb(3) != 0x7FFFFFFFFFFFFFFFULL || m.limb(2) != ~0ULL ||
      m.limb(1) != ~0ULL) {
    return 0;
  }
  const uint64_t c = 0 - m.limb(0);
  return c < (1ULL << 32) ? c : 0;
}

// t (8 limbs, little-endian) folded to a value below 2^255 + 2^67 < 2m
// that is congruent to it mod m = 2^255 - c (see above): FoldMod without
// the final subtraction. Exponentiation keeps its chain in this form, as a
// product of two such values still fits in 512 bits, and reduces once at
// the end. Always inlined: a call would pass the 512 bits through memory.
[[gnu::always_inline]] inline U256 FoldPartial(const uint64_t* t,
                                               uint64_t c) {
  constexpr uint64_t kLow63 = 0x7FFFFFFFFFFFFFFFULL;
  uint64_t r[4];
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t cur = static_cast<__uint128_t>(t[i + 4]) * (2 * c) + t[i] +
                      carry;
    r[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  // Bits 255 and up: carry (< 2^34) above limb 3, plus limb 3's top bit.
  const uint64_t high = (carry << 1) | (r[3] >> 63);
  r[3] &= kLow63;
  __uint128_t add = static_cast<__uint128_t>(high) * c;  // < 2^67
  for (int i = 0; i < 4 && add != 0; ++i) {
    add += r[i];
    r[i] = static_cast<uint64_t>(add);
    add >>= 64;
  }
  return U256::FromLimbsBigEndian(r[3], r[2], r[1], r[0]);
}

// t (8 limbs, little-endian) mod m, where m = 2^255 - c.
U256 FoldMod(const uint64_t* t, uint64_t c, const U256& m) {
  U256 out = FoldPartial(t, c);
  if (out >= m) out = out.Sub(m);
  return out;
}

// ---------------------------------------------------------------------------
// Windowed exponentiation.
//
// An exponent is read as sliding windows: scanning down from the top, each
// set bit opens a window of at most W bits that ends on a set bit, so its
// value (the digit) is odd and below 2^W, and every bit outside a window is
// zero. base^exp is then a product of the odd powers base^digit, each
// squared up to its window's position; a table of the 2^(W-1) odd powers
// takes one squaring and 2^(W-1) - 1 multiplies. Every intermediate is
// congruent to the exact power mod m, and the result is reduced to [0, m)
// once, so it is exactly square-and-multiply's.
// ---------------------------------------------------------------------------

constexpr int kPowWindow = 5;       // PowMod: one base, 16 odd powers
constexpr int kMultiExpWindow = 4;  // MultiExpMod: 8 odd powers per term
constexpr size_t kStrausTerms = 32;  // MultiExpMod terms per squaring chain
static_assert(kStrausTerms <= 32, "MultiExpMod marks terms in a uint32_t");

// a * a in 10 word multiplies (U512::Square). Always inlined, as is
// FoldPartial: a call would pass the 512-bit value through memory on every
// step of an exponentiation's chain.
[[gnu::always_inline]] inline U512 SquareWide(const U256& a) {
  using u128 = __uint128_t;
  const uint64_t a0 = a.limb(0), a1 = a.limb(1), a2 = a.limb(2),
                 a3 = a.limb(3);
  // The six cross products a_i * a_j, i < j, each formed once ...
  u128 t = static_cast<u128>(a0) * a1;
  uint64_t r1 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a0) * a2 + static_cast<uint64_t>(t >> 64);
  uint64_t r2 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a0) * a3 + static_cast<uint64_t>(t >> 64);
  uint64_t r3 = static_cast<uint64_t>(t);
  uint64_t r4 = static_cast<uint64_t>(t >> 64);
  t = static_cast<u128>(a1) * a2 + r3;
  r3 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a1) * a3 + r4 + static_cast<uint64_t>(t >> 64);
  r4 = static_cast<uint64_t>(t);
  uint64_t r5 = static_cast<uint64_t>(t >> 64);
  t = static_cast<u128>(a2) * a3 + r5;
  r5 = static_cast<uint64_t>(t);
  uint64_t r6 = static_cast<uint64_t>(t >> 64);
  // ... then doubled ...
  const uint64_t r7 = r6 >> 63;
  r6 = (r6 << 1) | (r5 >> 63);
  r5 = (r5 << 1) | (r4 >> 63);
  r4 = (r4 << 1) | (r3 >> 63);
  r3 = (r3 << 1) | (r2 >> 63);
  r2 = (r2 << 1) | (r1 >> 63);
  r1 <<= 1;
  // ... plus the four squares a_i^2 on the diagonal.
  U512 out;
  t = static_cast<u128>(a0) * a0;
  out.limbs[0] = static_cast<uint64_t>(t);
  t = static_cast<u128>(r1) + static_cast<uint64_t>(t >> 64);
  out.limbs[1] = static_cast<uint64_t>(t);
  t = static_cast<u128>(a1) * a1 + r2 + static_cast<uint64_t>(t >> 64);
  out.limbs[2] = static_cast<uint64_t>(t);
  t = static_cast<u128>(r3) + static_cast<uint64_t>(t >> 64);
  out.limbs[3] = static_cast<uint64_t>(t);
  t = static_cast<u128>(a2) * a2 + r4 + static_cast<uint64_t>(t >> 64);
  out.limbs[4] = static_cast<uint64_t>(t);
  t = static_cast<u128>(r5) + static_cast<uint64_t>(t >> 64);
  out.limbs[5] = static_cast<uint64_t>(t);
  t = static_cast<u128>(a3) * a3 + r6 + static_cast<uint64_t>(t >> 64);
  out.limbs[6] = static_cast<uint64_t>(t);
  out.limbs[7] = r7 + static_cast<uint64_t>(t >> 64);
  return out;
}

// Multiplication and squaring mod one modulus, with the reduction path
// (fold or Knuth division) chosen once, in the constructor. On the fold
// path the results are only partly reduced (FoldPartial); Canonical gives
// the residue in [0, m).
class Reducer {
 public:
  explicit Reducer(const U256& m) : m_(m), c_(FoldConstant(m)) {}

  U256 Mul(const U256& a, const U256& b) const {
    return Reduce(U512::Mul(a, b));
  }
  U256 Square(const U256& a) const { return Reduce(SquareWide(a)); }
  U256 Canonical(const U256& a) const { return U256::Mod(a, m_); }

 private:
  U256 Reduce(const U512& t) const {
    return c_ != 0 ? FoldPartial(t.limbs.data(), c_) : t.Mod(m_);
  }

  const U256& m_;
  uint64_t c_;
};

// b, b^3, b^5, ..., b^(2^W - 1) mod m, indexed by digit: (*this)[d] = b^d.
template <int W>
class OddPowers {
 public:
  OddPowers() = default;
  OddPowers(const U256& b, const Reducer& r) {
    const U256 b2 = r.Square(b);
    powers_[0] = b;
    for (size_t i = 1; i < powers_.size(); ++i) {
      powers_[i] = r.Mul(powers_[i - 1], b2);
    }
  }
  const U256& operator[](unsigned digit) const { return powers_[digit >> 1]; }

 private:
  std::array<U256, size_t{1} << (W - 1)> powers_;
};

// The highest set bit of `exp` below bit `end`, or -1 if there is none.
int HighestSetBitBelow(const U256& exp, int end) {
  if (end <= 0) return -1;
  int limb = (end - 1) / 64;
  uint64_t word = exp.limb(limb) & (~0ULL >> (63 - (end - 1) % 64));
  while (word == 0) {
    if (--limb < 0) return -1;
    word = exp.limb(limb);
  }
  return limb * 64 + 63 - __builtin_clzll(word);
}

// Calls visit(low, digit) for each window of `exp`, highest first, where
// `low` is the window's lowest bit and `digit` its odd value. Runs of zero
// bits are skipped a limb at a time.
template <int W, typename Visit>
void ForEachWindow(const U256& exp, Visit visit) {
  for (int top = HighestSetBitBelow(exp, 256); top >= 0;) {
    const int start = top - W + 1 < 0 ? 0 : top - W + 1;
    // Bits start..top, which may straddle two limbs; bit top is set.
    const int limb = start / 64;
    const int shift = start % 64;
    uint64_t bits = exp.limb(limb) >> shift;
    if (shift + (top - start) >= 64) bits |= exp.limb(limb + 1) << (64 - shift);
    bits &= (uint64_t{1} << (top - start + 1)) - 1;
    const int low = start + __builtin_ctzll(bits);  // a window ends on a 1
    visit(low, static_cast<unsigned>(bits >> (low - start)));
    top = HighestSetBitBelow(exp, low);
  }
}

}  // namespace

U256 U256::FromHex(std::string_view hex, bool* ok) {
  if (ok) *ok = false;
  U256 out;
  if (hex.size() > 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) {
    hex.remove_prefix(2);
  }
  if (hex.empty() || hex.size() > 64) return out;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9') {
      v = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      v = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = c - 'A' + 10;
    } else {
      return U256();
    }
    out = out.ShiftLeft(4);
    out.limbs_[0] |= static_cast<uint64_t>(v);
  }
  if (ok) *ok = true;
  return out;
}

U256 U256::FromHash(const Hash256& h) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = 0;
    for (int j = 0; j < 8; ++j) {
      limb = (limb << 8) | h.bytes[i * 8 + j];
    }
    out.limbs_[3 - i] = limb;
  }
  return out;
}

Bytes U256::ToBytes() const {
  Bytes out(32);
  for (int i = 0; i < 4; ++i) {
    uint64_t limb = limbs_[3 - i];
    for (int j = 0; j < 8; ++j) {
      out[i * 8 + j] = static_cast<uint8_t>(limb >> (56 - 8 * j));
    }
  }
  return out;
}

std::string U256::ToHex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string out(64, '0');
  for (int i = 0; i < 64; ++i) {
    int limb = (63 - i) / 16;
    int shift = ((63 - i) % 16) * 4;
    out[i] = kDigits[(limbs_[limb] >> shift) & 0xF];
  }
  return out;
}

int U256::Compare(const U256& o) const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] < o.limbs_[i]) return -1;
    if (limbs_[i] > o.limbs_[i]) return 1;
  }
  return 0;
}

U256 U256::AddWithCarry(const U256& o, uint64_t* carry_out) const {
  U256 out;
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t sum = static_cast<__uint128_t>(limbs_[i]) + o.limbs_[i] + carry;
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry_out) *carry_out = carry;
  return out;
}

U256 U256::Add(const U256& o) const { return AddWithCarry(o, nullptr); }

U256 U256::Sub(const U256& o) const {
  U256 out;
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    __uint128_t diff = static_cast<__uint128_t>(limbs_[i]) - o.limbs_[i] - borrow;
    out.limbs_[i] = static_cast<uint64_t>(diff);
    borrow = (diff >> 64) ? 1 : 0;
  }
  return out;
}

U256 U256::ShiftLeft(unsigned bits) const {
  if (bits >= 256) return U256();
  U256 out;
  unsigned limb_shift = bits / 64;
  unsigned bit_shift = bits % 64;
  for (int i = 3; i >= 0; --i) {
    uint64_t v = 0;
    int src = i - static_cast<int>(limb_shift);
    if (src >= 0) {
      v = limbs_[src] << bit_shift;
      if (bit_shift != 0 && src - 1 >= 0) {
        v |= limbs_[src - 1] >> (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

U256 U256::ShiftRight(unsigned bits) const {
  if (bits >= 256) return U256();
  U256 out;
  unsigned limb_shift = bits / 64;
  unsigned bit_shift = bits % 64;
  for (int i = 0; i < 4; ++i) {
    uint64_t v = 0;
    unsigned src = i + limb_shift;
    if (src < 4) {
      v = limbs_[src] >> bit_shift;
      if (bit_shift != 0 && src + 1 < 4) {
        v |= limbs_[src + 1] << (64 - bit_shift);
      }
    }
    out.limbs_[i] = v;
  }
  return out;
}

int U256::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limbs_[i] != 0) {
      return 64 * i + (64 - __builtin_clzll(limbs_[i]));
    }
  }
  return 0;
}

U512 U512::Mul(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      __uint128_t cur = static_cast<__uint128_t>(a.limb(i)) * b.limb(j) +
                        out.limbs[i + j] + carry;
      out.limbs[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out.limbs[i + 4] = carry;
  }
  return out;
}

U512 U512::Square(const U256& a) { return SquareWide(a); }

U256 U512::Mod(const U256& m) const {
  uint32_t digits[16];
  ToDigits(limbs.data(), 8, digits);
  return ModDigits(digits, 16, m);
}

U256 U256::Mod(const U256& a, const U256& m) {
  if (a < m) return a;
  if (const uint64_t c = FoldConstant(m)) {
    const uint64_t t[8] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
    return FoldMod(t, c, m);
  }
  uint32_t digits[8];
  uint64_t al[4] = {a.limb(0), a.limb(1), a.limb(2), a.limb(3)};
  ToDigits(al, 4, digits);
  return ModDigits(digits, 8, m);
}

U256 U256::AddMod(const U256& a, const U256& b, const U256& m) {
  // Inputs are reduced first so the carry logic below is exact.
  U256 ar = Mod(a, m);
  U256 br = Mod(b, m);
  uint64_t carry = 0;
  U256 sum = ar.AddWithCarry(br, &carry);
  if (carry || sum >= m) {
    // With a virtual carry bit, (sum - m) mod 2^256 is the true a+b-m.
    sum = sum.Sub(m);
  }
  return sum;
}

U256 U256::SubMod(const U256& a, const U256& b, const U256& m) {
  U256 ar = Mod(a, m);
  U256 br = Mod(b, m);
  if (ar >= br) return ar.Sub(br);
  return m.Sub(br.Sub(ar));
}

U256 U256::MulMod(const U256& a, const U256& b, const U256& m) {
  const U512 product = U512::Mul(a, b);
  if (const uint64_t c = FoldConstant(m)) {
    return FoldMod(product.limbs.data(), c, m);
  }
  return product.Mod(m);
}

U256 U256::PowMod(const U256& base, const U256& exp, const U256& m) {
  if (m == U256(1)) return U256();
  if (exp.IsZero()) return U256(1);
  const Reducer r(m);
  const OddPowers<kPowWindow> powers(Mod(base, m), r);
  // Horner over the windows: between two windows, square once per bit.
  U256 result;
  int at = -1;  // the bit position `result` stands for; -1 before the first
  ForEachWindow<kPowWindow>(exp, [&](int low, unsigned digit) {
    if (at < 0) {
      result = powers[digit];
    } else {
      for (; at > low; --at) result = r.Square(result);
      result = r.Mul(result, powers[digit]);
    }
    at = low;
  });
  for (; at > 0; --at) result = r.Square(result);
  return r.Canonical(result);
}

U256 U256::MultiExpMod(const std::vector<std::pair<U256, U256>>& terms,
                       const U256& m) {
  if (m == U256(1)) return U256();
  const Reducer r(m);
  U256 result(1);
  // Terms go in chunks of kStrausTerms, each over its own squaring chain,
  // so every table lives on the stack.
  for (size_t begin = 0; begin < terms.size(); begin += kStrausTerms) {
    const size_t count = std::min(kStrausTerms, terms.size() - begin);
    OddPowers<kMultiExpWindow> powers[kStrausTerms];
    // Each term's window digits, highest first. Windows start at least W
    // bits apart, so a 256-bit exponent has at most 256 / W of them.
    uint8_t digits[kStrausTerms][256 / kMultiExpWindow] = {};
    uint8_t num_digits[kStrausTerms] = {};
    // Bit t of starts[i]: term t has a window whose lowest bit is i.
    uint32_t starts[256] = {};
    int top = -1;
    for (size_t t = 0; t < count; ++t) {
      const auto& [base, exp] = terms[begin + t];
      if (exp.IsZero()) continue;
      powers[t] = OddPowers<kMultiExpWindow>(Mod(base, m), r);
      ForEachWindow<kMultiExpWindow>(exp, [&](int low, unsigned d) {
        digits[t][num_digits[t]++] = static_cast<uint8_t>(d);
        starts[low] |= 1u << t;
        if (low > top) top = low;
      });
    }
    // One shared squaring chain from the highest window down; at each bit
    // i, multiply in every window whose lowest bit is i, which is the next
    // unused digit of its term.
    uint8_t next_digit[kStrausTerms] = {};
    U256 acc(1);
    for (int i = top; i >= 0; --i) {
      acc = r.Square(acc);
      for (uint32_t pending = starts[i]; pending != 0; pending &= pending - 1) {
        const int t = __builtin_ctz(pending);
        acc = r.Mul(acc, powers[t][digits[t][next_digit[t]++]]);
      }
    }
    result = r.Mul(result, acc);
  }
  return r.Canonical(result);
}

}  // namespace xdeal
