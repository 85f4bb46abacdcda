#include "cbc/types.h"

#include <set>

namespace xdeal {

const char* DealOutcomeName(DealOutcome o) {
  switch (o) {
    case kDealActive: return "active";
    case kDealCommitted: return "committed";
    case kDealAborted: return "aborted";
  }
  return "unknown";
}

Bytes StatusCertificate::Message(const Hash256& deal_id,
                                 const Hash256& start_hash,
                                 DealOutcome outcome, uint32_t epoch) {
  ByteWriter w;
  w.Str("xdeal-cbc-status");
  w.Raw(deal_id.bytes.data(), deal_id.bytes.size());
  w.Raw(start_hash.bytes.data(), start_hash.bytes.size());
  w.U8(outcome);
  w.U32(epoch);
  return w.Take();
}

Bytes ReconfigCertificate::Message(
    uint32_t new_epoch, const std::vector<PublicKey>& new_validators) {
  ByteWriter w;
  w.Str("xdeal-cbc-reconfig");
  w.U32(new_epoch);
  w.U32(static_cast<uint32_t>(new_validators.size()));
  for (const PublicKey& v : new_validators) w.Raw(v.Serialize());
  return w.Take();
}

namespace {

void WriteSigs(ByteWriter* w, const std::vector<ValidatorSig>& sigs) {
  w->U32(static_cast<uint32_t>(sigs.size()));
  for (const ValidatorSig& vs : sigs) {
    w->Raw(vs.validator.Serialize());
    w->Raw(vs.sig.Serialize());
  }
}

Result<std::vector<ValidatorSig>> ReadSigs(ByteReader* r) {
  auto count = r->U32();
  if (!count.ok()) return count.status();
  if (count.value() > 4096) {
    return Status::InvalidArgument("proof: too many signatures");
  }
  std::vector<ValidatorSig> sigs;
  sigs.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto key_bytes = r->Raw(32);
    if (!key_bytes.ok()) return key_bytes.status();
    Hash256 h;
    std::copy(key_bytes.value().begin(), key_bytes.value().end(),
              h.bytes.begin());
    auto sig_bytes = r->Raw(64);
    if (!sig_bytes.ok()) return sig_bytes.status();
    auto sig = Signature::Deserialize(sig_bytes.value());
    if (!sig.ok()) return sig.status();
    sigs.push_back(ValidatorSig{PublicKey{U256::FromHash(h)}, sig.value()});
  }
  return sigs;
}

Result<Hash256> ReadHash(ByteReader* r) {
  auto bytes = r->Raw(32);
  if (!bytes.ok()) return bytes.status();
  Hash256 h;
  std::copy(bytes.value().begin(), bytes.value().end(), h.bytes.begin());
  return h;
}

}  // namespace

Bytes CbcProof::Serialize() const {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(reconfigs.size()));
  for (const ReconfigCertificate& rc : reconfigs) {
    w.U32(rc.new_epoch);
    w.U32(static_cast<uint32_t>(rc.new_validators.size()));
    for (const PublicKey& v : rc.new_validators) w.Raw(v.Serialize());
    WriteSigs(&w, rc.sigs);
  }
  w.Raw(status.deal_id.bytes.data(), 32);
  w.Raw(status.start_hash.bytes.data(), 32);
  w.U8(status.outcome);
  w.U32(status.epoch);
  WriteSigs(&w, status.sigs);
  return w.Take();
}

Result<CbcProof> CbcProof::Deserialize(const Bytes& bytes) {
  ByteReader r(bytes);
  CbcProof proof;
  auto count = r.U32();
  if (!count.ok()) return count.status();
  if (count.value() > 1024) {
    return Status::InvalidArgument("proof: too many reconfigs");
  }
  for (uint32_t i = 0; i < count.value(); ++i) {
    ReconfigCertificate rc;
    auto epoch = r.U32();
    if (!epoch.ok()) return epoch.status();
    rc.new_epoch = epoch.value();
    auto nvals = r.U32();
    if (!nvals.ok()) return nvals.status();
    if (nvals.value() > 4096) {
      return Status::InvalidArgument("proof: too many validators");
    }
    for (uint32_t j = 0; j < nvals.value(); ++j) {
      auto h = ReadHash(&r);
      if (!h.ok()) return h.status();
      rc.new_validators.push_back(PublicKey{U256::FromHash(h.value())});
    }
    auto sigs = ReadSigs(&r);
    if (!sigs.ok()) return sigs.status();
    rc.sigs = std::move(sigs).value();
    proof.reconfigs.push_back(std::move(rc));
  }
  auto deal_id = ReadHash(&r);
  if (!deal_id.ok()) return deal_id.status();
  proof.status.deal_id = deal_id.value();
  auto start_hash = ReadHash(&r);
  if (!start_hash.ok()) return start_hash.status();
  proof.status.start_hash = start_hash.value();
  auto outcome = r.U8();
  if (!outcome.ok()) return outcome.status();
  proof.status.outcome = outcome.value();
  auto epoch = r.U32();
  if (!epoch.ok()) return epoch.status();
  proof.status.epoch = epoch.value();
  auto sigs = ReadSigs(&r);
  if (!sigs.ok()) return sigs.status();
  proof.status.sigs = std::move(sigs).value();
  return proof;
}

Bytes DecideProof::Serialize() const {
  ByteWriter w;
  w.U32(kMagic);
  w.U32(shard);
  w.Raw(proof.Serialize());
  return w.Take();
}

Result<DecideProof> DecideProof::Deserialize(const Bytes& bytes) {
  ByteReader r(bytes);
  auto magic = r.U32();
  if (!magic.ok()) return magic.status();
  if (magic.value() != kMagic) {
    return Status::InvalidArgument("proof: not a decide proof");
  }
  DecideProof dp;
  auto shard = r.U32();
  if (!shard.ok()) return shard.status();
  dp.shard = shard.value();
  auto rest = r.Raw(r.remaining());
  if (!rest.ok()) return rest.status();
  auto proof = CbcProof::Deserialize(rest.value());
  if (!proof.ok()) return proof.status();
  dp.proof = std::move(proof).value();
  return dp;
}

size_t CbcProof::NumSignatures() const {
  size_t n = status.sigs.size();
  for (const ReconfigCertificate& rc : reconfigs) n += rc.sigs.size();
  return n;
}

namespace {

/// Verifies that `sigs` contains at least 2f+1 distinct signatures by
/// members of `validators` (|validators| = 3f+1) over `message`.
Status VerifyQuorum(const std::vector<ValidatorSig>& sigs,
                    const std::vector<PublicKey>& validators,
                    const Bytes& message, GasMeter* gas) {
  if (validators.empty()) {
    return Status::InvalidArgument("proof: empty validator set");
  }
  size_t f = (validators.size() - 1) / 3;
  size_t quorum = 2 * f + 1;
  // No duplicate signers (cheap check before the expensive one).
  std::set<PublicKey> seen;
  for (const ValidatorSig& vs : sigs) {
    if (!seen.insert(vs.validator).second) {
      return Status::InvalidArgument("proof: duplicate validator signature");
    }
  }
  for (const ValidatorSig& vs : sigs) {
    bool member = false;
    for (const PublicKey& v : validators) {
      if (v == vs.validator) {
        member = true;
        break;
      }
    }
    if (!member) {
      return Status::PermissionDenied("proof: signer is not a validator");
    }
    // Gas is still charged per signature: the metered cost of checking a
    // certificate is unchanged by HOW the simulator verifies it, so
    // receipts (and every fingerprint folded over them) stay identical.
    if (gas != nullptr) {
      XDEAL_RETURN_IF_ERROR(gas->ChargeSigVerify());
    }
  }
  // The quorum's signatures are independent, so verify them as ONE batch
  // (a single shared-squaring multi-exponentiation instead of 2f+1
  // sequential PowMod pairs). On a bad batch, BatchVerify falls back to
  // per-signature verification and names the first culprit.
  std::vector<BatchItem> batch;
  batch.reserve(sigs.size());
  for (const ValidatorSig& vs : sigs) {
    batch.push_back(BatchItem{vs.validator, message, vs.sig});
  }
  BatchVerifyResult verdict = BatchVerify(batch);
  if (!verdict.ok) {
    std::string blame =
        verdict.first_bad >= 0
            ? "proof: bad validator signature (signer " +
                  sigs[verdict.first_bad].validator.Fingerprint() + ")"
            : "proof: bad validator signature";
    return Status::Unverified(blame);
  }
  if (sigs.size() < quorum) {
    return Status::Unverified("proof: not enough validator signatures");
  }
  return Status::OK();
}

}  // namespace

Result<DealOutcome> VerifyCbcProof(
    const CbcProof& proof, const Hash256& deal_id, const Hash256& start_hash,
    const std::vector<PublicKey>& initial_validators, uint32_t initial_epoch,
    GasMeter* gas) {
  // Walk the reconfiguration chain from the escrow-time validator set.
  std::vector<PublicKey> current = initial_validators;
  uint32_t epoch = initial_epoch;
  for (const ReconfigCertificate& rc : proof.reconfigs) {
    if (rc.new_epoch != epoch + 1) {
      return Status::InvalidArgument("proof: reconfig epoch gap");
    }
    if (rc.new_validators.empty() || rc.new_validators.size() % 3 != 1) {
      return Status::InvalidArgument("proof: new validator set not 3f+1");
    }
    Bytes message = ReconfigCertificate::Message(rc.new_epoch,
                                                 rc.new_validators);
    XDEAL_RETURN_IF_ERROR(VerifyQuorum(rc.sigs, current, message, gas));
    current = rc.new_validators;
    epoch = rc.new_epoch;
  }

  if (!(proof.status.deal_id == deal_id)) {
    return Status::InvalidArgument("proof: deal id mismatch");
  }
  if (!(proof.status.start_hash == start_hash)) {
    return Status::InvalidArgument("proof: startDeal hash mismatch");
  }
  if (proof.status.epoch != epoch) {
    return Status::InvalidArgument("proof: status epoch mismatch");
  }
  if (proof.status.outcome != kDealCommitted &&
      proof.status.outcome != kDealAborted) {
    return Status::InvalidArgument("proof: outcome must be decisive");
  }
  Bytes message = StatusCertificate::Message(
      proof.status.deal_id, proof.status.start_hash, proof.status.outcome,
      proof.status.epoch);
  XDEAL_RETURN_IF_ERROR(VerifyQuorum(proof.status.sigs, current, message,
                                     gas));
  return proof.status.outcome;
}

}  // namespace xdeal
