// Schnorr signatures over the multiplicative group Z_p*, p = 2^255 - 19.
//
// This is the signature scheme used by parties (path-signature votes in the
// timelock protocol) and by CBC validators (block/status certificates).
//
// Substitution note (see DESIGN.md §6): the paper assumes an
// Ethereum/Bitcoin-style signature scheme (secp256k1). We implement textbook
// Schnorr over a 255-bit prime field instead of an elliptic curve: the
// protocol-visible interface (keygen / sign / verify, 64-byte signatures) and
// the metered cost (3000 gas per verification, §7.1) are identical, and the
// arithmetic is real — signatures genuinely verify only under the signing
// key. It is NOT hardened cryptography (deterministic nonces derived by
// hashing, no side-channel defenses, composite group order), which is fine
// for a simulator and wrong for production use.
//
//   keygen:  x <- H(seed) mod n,  y = g^x mod p        (n = p - 1, g = 2)
//   sign:    k = H(x || m) mod n, r = g^k mod p,
//            e = H(r || y || m) mod n, s = (k + e*x) mod n;  sig = (r, s)
//   verify:  g^s  ==  r * y^e  (mod p)
//
// Both moduli, p = 2^255 - 19 and n = 2^255 - 20, take U256's fold
// reduction (u256.h). Every g^k (keygen, sign, verify, batch verify) comes
// from a fixed-base table of 64 x 16 powers of g, built once on first use;
// the results are bit-identical to U256::PowMod.
//
// Cost of a check: Verify is g^s from the table (at most 63 multiplies)
// plus y^e by U256::PowMod's 5-bit sliding windows (about 255 squarings
// and 58 multiplies). BatchVerify shares one chain of about 255 squarings
// (U256::MultiExpMod, 4-bit Straus windows) across its items, adding about
// 93 multiplies per item, plus one g^(sum of z_i * s_i) from the table.

#ifndef XDEAL_CRYPTO_SCHNORR_H_
#define XDEAL_CRYPTO_SCHNORR_H_

#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/u256.h"
#include "util/bytes.h"
#include "util/det.h"
#include "util/result.h"

namespace xdeal {

/// Group parameters for the signature scheme.
struct SchnorrGroup {
  /// The field prime p = 2^255 - 19 (fold path, c = 19).
  static const U256& P();
  /// The exponent modulus n = p - 1 = 2^255 - 20 (fold path, c = 20).
  static const U256& N();
  /// The generator g = 2.
  static const U256& G();
};

/// A public verification key (group element y = g^x, canonical in [1, p)).
struct PublicKey {
  U256 y;

  bool operator==(const PublicKey& o) const { return y == o.y; }
  bool operator<(const PublicKey& o) const { return y < o.y; }

  /// Canonical 32-byte encoding, used in signed messages and certificates.
  Bytes Serialize() const { return y.ToBytes(); }

  /// Short fingerprint for logging.
  std::string Fingerprint() const;
};

/// A 64-byte signature (r, s). Sign produces r canonical in [1, p) and s
/// canonical in [0, n); a received signature may carry any values.
struct Signature {
  U256 r;
  U256 s;

  bool operator==(const Signature& o) const { return r == o.r && s == o.s; }

  /// r then s, each as 32 big-endian bytes.
  Bytes Serialize() const;
  /// Parses exactly 64 bytes (else InvalidArgument). Any r and s parse,
  /// including unreduced ones; Verify decides what they are worth.
  static Result<Signature> Deserialize(const Bytes& bytes);
};

/// A signing key pair. The private exponent never leaves this object except
/// through Sign().
class KeyPair {
 public:
  /// Deterministically derives a key pair from a seed string (e.g. the party
  /// name plus a run seed). Same seed -> same keys, for reproducible runs.
  static KeyPair FromSeed(std::string_view seed);

  const PublicKey& public_key() const { return public_key_; }

  /// Signs a message (any byte string). Deterministic: the nonce is hashed
  /// from the private key and the message.
  XDEAL_DETERMINISTIC Signature Sign(const Bytes& message) const;
  /// Sign over the bytes of `message`.
  Signature Sign(std::string_view message) const;

 private:
  KeyPair(U256 x, PublicKey pk) : x_(x), public_key_(pk) {}

  U256 x_;  // private exponent
  PublicKey public_key_;
};

/// Verifies that `sig` is a valid signature on `message` under `key`.
/// Rejects r or y outside [1, p). s may be unreduced: g^s is taken over all
/// 256 bits of s, so (r, s) and (r, s + n) verify alike.
/// Counts as one "signature verification" for gas purposes (the caller,
/// i.e. a contract, charges kGasSigVerify).
XDEAL_DETERMINISTIC bool Verify(const PublicKey& key, const Bytes& message, const Signature& sig);
/// Verify over the bytes of `message`.
bool Verify(const PublicKey& key, std::string_view message,
            const Signature& sig);

/// One (key, message, signature) triple of a verification batch.
struct BatchItem {
  PublicKey key;
  Bytes message;
  Signature sig;
};

/// Outcome of BatchVerify. `ok` matches exactly what verifying each item
/// individually would conclude; `first_bad` names the first invalid item
/// when !ok; `used_fallback` reports that the combined check failed and the
/// per-signature fallback ran to attribute blame.
struct BatchVerifyResult {
  bool ok = false;
  bool used_fallback = false;
  int first_bad = -1;
};

/// Verifies a batch of independent Schnorr signatures with ONE combined
/// check: random 128-bit coefficients z_i (deterministically derived from
/// the whole batch, Fiat-Shamir style) reduce the k verification equations
/// to  g^(Σ z_i·s_i) == Π r_i^{z_i} · y_i^{z_i·e_i}  (mod p), evaluated as
/// a single shared-squaring multi-exponentiation — the O(1)-squaring-chains
/// fast path for 2f+1-signature status certificates. If the combined check
/// fails, falls back to per-signature verification to name the culprit.
/// Equivalent to individually verifying every item (up to ~2^-128 soundness
/// of the random linear combination). An empty batch verifies trivially.
XDEAL_DETERMINISTIC BatchVerifyResult BatchVerify(const std::vector<BatchItem>& items);

}  // namespace xdeal

#endif  // XDEAL_CRYPTO_SCHNORR_H_
