#include "crypto/schnorr.h"

#include <array>

#include "util/serialize.h"

namespace xdeal {

const U256& SchnorrGroup::P() {
  static const U256 p = U256::FromLimbsBigEndian(
      0x7FFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0xFFFFFFFFFFFFFFEDULL);
  return p;
}

const U256& SchnorrGroup::N() {
  static const U256 n = U256::FromLimbsBigEndian(
      0x7FFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL,
      0xFFFFFFFFFFFFFFECULL);
  return n;
}

const U256& SchnorrGroup::G() {
  static const U256 g(2);
  return g;
}

namespace {

/// Hashes arbitrary bytes to a nonzero exponent mod n.
U256 HashToExponent(const Bytes& data) {
  U256 e = U256::Mod(U256::FromHash(Sha256Digest(data)), SchnorrGroup::N());
  if (e.IsZero()) e = U256(1);
  return e;
}

/// g^k mod p from a fixed-base table T[i][j] = g^(j·16^i) mod p: g^k is the
/// product of T[i][nibble i of k] over all 64 nibbles, at most 63 multiplies
/// and no squarings. Every bit of k is read, so an unreduced k (Verify's
/// attacker-supplied s may be >= n) gives exactly PowMod(g, k, p). The
/// 32 KB table is built once, on first use; static initialisation is
/// thread-safe.
U256 PowG(const U256& k) {
  using Table = std::array<std::array<U256, 16>, 64>;
  const U256& p = SchnorrGroup::P();
  static const Table table = [&p] {
    Table t;
    U256 base = SchnorrGroup::G();  // g^(16^i) for row i
    for (auto& row : t) {
      row[0] = U256(1);
      for (int j = 1; j < 16; ++j) row[j] = U256::MulMod(row[j - 1], base, p);
      base = U256::MulMod(row[15], base, p);
    }
    return t;
  }();
  U256 result = table[0][k.Low64() & 0xF];
  for (int i = 1; i < 64; ++i) {
    const unsigned nibble = (k.limb(i / 16) >> (4 * (i % 16))) & 0xF;
    if (nibble != 0) result = U256::MulMod(result, table[i][nibble], p);
  }
  return result;
}

/// The challenge e = H(r || y || m) mod n.
U256 Challenge(const U256& r, const PublicKey& key, const Bytes& message) {
  ByteWriter w;
  w.Raw(r.ToBytes());
  w.Raw(key.y.ToBytes());
  w.Blob(message);
  return HashToExponent(w.bytes());
}

}  // namespace

std::string PublicKey::Fingerprint() const {
  return Sha256Digest(Serialize()).ShortHex();
}

Bytes Signature::Serialize() const {
  Bytes out = r.ToBytes();
  Bytes s_bytes = s.ToBytes();
  out.insert(out.end(), s_bytes.begin(), s_bytes.end());
  return out;
}

Result<Signature> Signature::Deserialize(const Bytes& bytes) {
  if (bytes.size() != 64) {
    return Status::InvalidArgument("signature must be 64 bytes");
  }
  Hash256 hr, hs;
  std::copy(bytes.begin(), bytes.begin() + 32, hr.bytes.begin());
  std::copy(bytes.begin() + 32, bytes.end(), hs.bytes.begin());
  Signature sig;
  sig.r = U256::FromHash(hr);
  sig.s = U256::FromHash(hs);
  return sig;
}

KeyPair KeyPair::FromSeed(std::string_view seed) {
  ByteWriter w;
  w.Str("xdeal-keygen-v1");
  w.Str(seed);
  U256 x = HashToExponent(w.bytes());
  PublicKey pk{PowG(x)};
  return KeyPair(x, pk);
}

Signature KeyPair::Sign(const Bytes& message) const {
  // Deterministic nonce: k = H(x || m) mod n (RFC6979-flavored, simplified).
  ByteWriter nonce_input;
  nonce_input.Str("xdeal-nonce-v1");
  nonce_input.Raw(x_.ToBytes());
  nonce_input.Blob(message);
  U256 k = HashToExponent(nonce_input.bytes());

  const U256& n = SchnorrGroup::N();
  U256 r = PowG(k);
  U256 e = Challenge(r, public_key_, message);
  U256 s = U256::AddMod(k, U256::MulMod(e, x_, n), n);
  return Signature{r, s};
}

Signature KeyPair::Sign(std::string_view message) const {
  return Sign(ToBytes(message));
}

bool Verify(const PublicKey& key, const Bytes& message, const Signature& sig) {
  const U256& p = SchnorrGroup::P();
  // Reject degenerate values.
  if (sig.r.IsZero() || key.y.IsZero()) return false;
  if (sig.r >= p || key.y >= p) return false;

  U256 e = Challenge(sig.r, key, message);
  U256 lhs = PowG(sig.s);
  U256 rhs = U256::MulMod(sig.r, U256::PowMod(key.y, e, p), p);
  return lhs == rhs;
}

bool Verify(const PublicKey& key, std::string_view message,
            const Signature& sig) {
  return Verify(key, ToBytes(message), sig);
}

namespace {

/// The i-th batch coefficient: ~128 bits from H(batch_seed || i), forced
/// odd. Odd coefficients cannot annihilate the order-2 subgroup of Z_p*
/// (p-1 is even), closing the classic batch forgery where a -1 factor
/// hides behind an even z_i.
U256 BatchCoefficient(const Hash256& batch_seed, uint64_t index) {
  ByteWriter w;
  w.Str("xdeal-batch-z-v1");
  w.Raw(batch_seed.bytes.data(), batch_seed.bytes.size());
  w.U64(index);
  U256 z = U256::FromHash(Sha256Digest(w.bytes()));
  z = U256::FromLimbsBigEndian(0, 0, z.limb(1), z.limb(0));  // low 128 bits
  if (!z.IsOdd()) z = z.Add(U256(1));
  return z;
}

}  // namespace

BatchVerifyResult BatchVerify(const std::vector<BatchItem>& items) {
  BatchVerifyResult out;
  if (items.empty()) {
    out.ok = true;
    return out;
  }
  const U256& p = SchnorrGroup::P();
  const U256& n = SchnorrGroup::N();

  // Degenerate values fail individual verification outright — catch them
  // before they can poison (or trivially satisfy) the combined equation.
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    if (item.sig.r.IsZero() || item.key.y.IsZero() || item.sig.r >= p ||
        item.key.y >= p) {
      out.first_bad = static_cast<int>(i);
      return out;
    }
  }

  // Fiat-Shamir batch seed over every (r, y, m): coefficients are fixed
  // only after the whole batch is, so no item can be chosen against them.
  ByteWriter seed_writer;
  seed_writer.Str("xdeal-batch-seed-v1");
  for (const BatchItem& item : items) {
    seed_writer.Raw(item.sig.r.ToBytes());
    seed_writer.Raw(item.key.y.ToBytes());
    seed_writer.Blob(item.message);
  }
  Hash256 batch_seed = Sha256Digest(seed_writer.bytes());

  // g^(Σ z_i·s_i mod n)  ==  Π r_i^{z_i} · y_i^{(z_i·e_i mod n)}  (mod p).
  // Exponent arithmetic mod n = p-1 is sound: every group element's order
  // divides n, so oversized attacker-supplied s values reduce the same way
  // individual verification's g^s does.
  U256 s_combined;
  std::vector<std::pair<U256, U256>> terms;
  terms.reserve(items.size() * 2);
  for (size_t i = 0; i < items.size(); ++i) {
    const BatchItem& item = items[i];
    U256 z = BatchCoefficient(batch_seed, i);
    U256 e = Challenge(item.sig.r, item.key, item.message);
    s_combined = U256::AddMod(s_combined, U256::MulMod(z, item.sig.s, n), n);
    terms.emplace_back(item.sig.r, z);
    terms.emplace_back(item.key.y, U256::MulMod(z, e, n));
  }
  U256 lhs = PowG(s_combined);
  U256 rhs = U256::MultiExpMod(terms, p);
  if (lhs == rhs) {
    out.ok = true;
    return out;
  }

  // Combined check failed: at least one signature is bad. Re-verify
  // individually to attribute blame.
  out.used_fallback = true;
  for (size_t i = 0; i < items.size(); ++i) {
    if (!Verify(items[i].key, items[i].message, items[i].sig)) {
      out.first_bad = static_cast<int>(i);
      return out;
    }
  }
  // Unreachable in exact arithmetic (all-valid batches satisfy the combined
  // equation identically); individual verification is the ground truth.
  out.ok = true;
  return out;
}

}  // namespace xdeal
