// Identifier types for parties, chains, and contracts, plus the global key
// directory.
//
// §3 of the paper: "We assume each party has a public key and a private key,
// and that any party's public key is known to all." The KeyDirectory is that
// assumption made concrete: a read-only mapping from party to public key that
// contracts and parties may consult freely.

#ifndef XDEAL_CHAIN_IDS_H_
#define XDEAL_CHAIN_IDS_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "crypto/schnorr.h"
#include "util/result.h"

namespace xdeal {

constexpr uint32_t kInvalidId = ~0u;

/// A party: a person, organization, or (in the paper's model) a contract.
struct PartyId {
  uint32_t v = kInvalidId;

  bool valid() const { return v != kInvalidId; }
  bool operator==(const PartyId& o) const { return v == o.v; }
  bool operator!=(const PartyId& o) const { return v != o.v; }
  bool operator<(const PartyId& o) const { return v < o.v; }
};

/// One of the independent blockchains.
struct ChainId {
  uint32_t v = kInvalidId;

  bool valid() const { return v != kInvalidId; }
  bool operator==(const ChainId& o) const { return v == o.v; }
  bool operator!=(const ChainId& o) const { return v != o.v; }
  bool operator<(const ChainId& o) const { return v < o.v; }
};

/// A contract resident on a specific chain.
struct ContractId {
  uint32_t v = kInvalidId;

  bool valid() const { return v != kInvalidId; }
  bool operator==(const ContractId& o) const { return v == o.v; }
  bool operator!=(const ContractId& o) const { return v != o.v; }
  bool operator<(const ContractId& o) const { return v < o.v; }
};

/// Global public-key directory (paper §3: all public keys are known to all).
/// Private keys are held by the World and handed only to the owning party's
/// strategy object.
///
/// A party's key pair derives on first use: Register stores only the name,
/// and the first KeyPairOf or PublicKeyOf derives the pair as
/// KeyPair::FromSeed("world/" + name). First use is thread-safe, so lookups
/// may race from any number of threads; Register must not run concurrently
/// with them.
class KeyDirectory {
 public:
  /// Registers a party by name and returns its id. Derives no key.
  PartyId Register(const std::string& name);

  /// Number of registered parties; ids run densely from 0.
  size_t size() const { return entries_.size(); }

  /// The party's public key, derived on first use; NotFound for an unknown
  /// id.
  Result<PublicKey> PublicKeyOf(PartyId p) const;
  /// The name the party was registered under; NotFound for an unknown id.
  Result<std::string> NameOf(PartyId p) const;

  /// Private-key access: only the simulation harness (World) calls this to
  /// wire a party's strategy to its keys. Derives the pair on first use.
  const KeyPair& KeyPairOf(PartyId p) const;

 private:
  struct Entry {
    explicit Entry(const std::string& n) : name(n) {}

    std::string name;
    mutable std::once_flag derived;
    mutable std::optional<KeyPair> keys;
  };

  static const KeyPair& Keys(const Entry& entry);

  // A deque, so entries (and the references KeyPairOf hands out) never move.
  std::deque<Entry> entries_;
};

}  // namespace xdeal

#endif  // XDEAL_CHAIN_IDS_H_
