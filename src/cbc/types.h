// CBC proof types (paper §6.2).
//
// The certified blockchain (CBC) orders startDeal / commit / abort entries.
// A party claiming an asset presents a *proof of commit* (every party voted
// commit before any abort) or a *proof of abort* (some party voted abort
// before all commits were in) to each escrow contract.
//
// With a BFT CBC, a proof is a *status certificate*: the deal's outcome
// signed by at least 2f+1 of the CBC's 3f+1 validators — final and
// independent of deal value (§6.2). If the validator set has been
// reconfigured k times since escrow, the proof additionally carries k
// *reconfiguration certificates*, each signing the next validator set with
// 2f+1 signatures of the previous one, so verification costs
// (k+1)(2f+1) signature checks.

#ifndef XDEAL_CBC_TYPES_H_
#define XDEAL_CBC_TYPES_H_

#include <vector>

#include "chain/gas.h"
#include "chain/ids.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "util/det.h"
#include "util/serialize.h"

namespace xdeal {

using DealOutcome = uint8_t;
constexpr DealOutcome kDealActive = 0;
constexpr DealOutcome kDealCommitted = 1;
constexpr DealOutcome kDealAborted = 2;

const char* DealOutcomeName(DealOutcome o);

/// One validator's signature over a message.
struct ValidatorSig {
  PublicKey validator;
  Signature sig;
};

/// Certifies the outcome of a deal as of CBC epoch `epoch`.
struct StatusCertificate {
  Hash256 deal_id;
  Hash256 start_hash;   // h of the definitive startDeal entry
  DealOutcome outcome = kDealActive;
  uint32_t epoch = 0;
  std::vector<ValidatorSig> sigs;

  /// The byte string each validator signs.
  static Bytes Message(const Hash256& deal_id, const Hash256& start_hash,
                       DealOutcome outcome, uint32_t epoch);
};

/// Certifies that epoch `new_epoch`'s validator set is `new_validators`,
/// signed by 2f+1 validators of epoch `new_epoch - 1`.
struct ReconfigCertificate {
  uint32_t new_epoch = 0;
  std::vector<PublicKey> new_validators;
  std::vector<ValidatorSig> sigs;

  static Bytes Message(uint32_t new_epoch,
                       const std::vector<PublicKey>& new_validators);
};

/// A complete proof presented to an escrow contract: the reconfiguration
/// chain (possibly empty) followed by the status certificate.
struct CbcProof {
  std::vector<ReconfigCertificate> reconfigs;
  StatusCertificate status;

  Bytes Serialize() const;
  static Result<CbcProof> Deserialize(const Bytes& bytes);

  /// Total signatures a contract must verify: (k+1)(2f+1) when each
  /// certificate carries exactly the 2f+1 threshold.
  size_t NumSignatures() const;
};

/// A portable, shard-attributed decide proof for cross-shard deals: the CBC
/// proof wrapped with the index of the shard whose validators issued it (the
/// deal's *home* shard). Escrows hosted on other shards pin the home shard at
/// escrow time and accept the wrapped certificate as decide evidence — but a
/// proof replayed against an escrow bound to a different shard is rejected
/// with a cheap front check ("decide: shard mismatch") before any
/// signature-verification gas is burned.
///
/// Wire format: U32 magic, U32 shard, then the bare CbcProof bytes. The
/// magic is far above CbcProof's 1024-reconfig cap, so a bare CbcProof blob
/// never parses as a DecideProof; escrow contracts accept only this
/// encoding.
struct DecideProof {
  uint32_t shard = 0;
  CbcProof proof;

  /// First wire word of a decide proof; deliberately > the 1024 reconfig
  /// cap so a bare CbcProof is never mistaken for one.
  static constexpr uint32_t kMagic = 0x58444450u;  // "PDDX" little-endian

  XDEAL_DETERMINISTIC Bytes Serialize() const;
  XDEAL_DETERMINISTIC static Result<DecideProof> Deserialize(
      const Bytes& bytes);
};

/// Verifies `proof` starting from the validator set recorded at escrow time.
/// `initial_validators` must be the 3f+1 epoch-`initial_epoch` validators.
/// Charges one kGasSigVerify per signature checked when `gas` is non-null.
/// On success returns the certified outcome.
Result<DealOutcome> VerifyCbcProof(const CbcProof& proof,
                                   const Hash256& deal_id,
                                   const Hash256& start_hash,
                                   const std::vector<PublicKey>&
                                       initial_validators,
                                   uint32_t initial_epoch, GasMeter* gas);

}  // namespace xdeal

#endif  // XDEAL_CBC_TYPES_H_
