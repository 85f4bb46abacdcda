// CbcService: the sharded certified-blockchain backend (§6 at scale).
//
// The paper's CBC protocol routes every deal through ONE certified chain
// backed by ONE validator set. Under multi-deal traffic that chain is the
// first quadratic hotspot: every party of every CBC deal observes every
// receipt the shared log produces, so D concurrent deals cost O(D²)
// observation work (and O(D²) receipt scans at collection time). The classic
// remedy from partial replication (Sutra & Shapiro 2008) applies directly:
// run S independent certified logs, hash each deal to one of them, and let
// each shard carry its own validator set — deals on different shards never
// contend, and a validator reconfiguration on one shard leaves the others'
// certificate chains untouched.
//
// The service is the single point CBC deal runs resolve against: given a
// deal id it answers "which chain hosts this deal's log" and "which
// validators certify it", and it serves status certificates from the right
// shard. With num_shards = 1 it degenerates to exactly the paper's single
// shared CBC (bit-identical traffic fingerprints to the pre-sharding code).

#ifndef XDEAL_CBC_CBC_SERVICE_H_
#define XDEAL_CBC_CBC_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "cbc/validators.h"
#include "chain/world.h"
#include "crypto/sha256.h"
#include "util/det.h"

namespace xdeal {

/// The certified-blockchain backend of the CBC protocol (§6): S shards,
/// each a certified chain with its own validator set, with deals hashed to
/// shards by deal id.
class CbcService {
 public:
  struct Options {
    /// S: independent certified chains, each with its own validator set.
    size_t num_shards = 1;
    /// Per-shard BFT fault budget (3f+1 validators, quorum 2f+1).
    size_t f = 1;
    /// Shard 0's chain is named `chain_name` (matching the single-CBC
    /// convention); shard i > 0 appends "-s<i>".
    std::string chain_name = "cbc";
    /// Validator key seed; same suffix rule as chain_name, so a 1-shard
    /// service reproduces ValidatorSet::Create(f, validator_seed) exactly.
    std::string validator_seed = "cbc";
    Tick block_interval = 10;
    /// Max transactions per block on every shard chain (0 = unlimited).
    uint64_t block_capacity = 0;
  };

  /// Creates the S shard chains in `world` immediately (deterministic chain
  /// ids: shard i is the i-th chain created by this constructor).
  CbcService(World* world, Options options);

  /// Attach mode, for a World restored from a checkpoint: binds to the
  /// already-existing shard chains by name (creating nothing) and replays
  /// ValidatorSet::Reconfigure() on each shard until it reaches
  /// `shard_epochs[s]`. Validator keys and reconfiguration certificates are
  /// pure functions of (seed, epoch), so the replayed sets and the recorded
  /// history are bit-identical to the uninterrupted service's. Returns
  /// nullptr if any shard chain is missing from the world.
  static std::unique_ptr<CbcService> Attach(
      World* world, Options options,
      const std::vector<uint32_t>& shard_epochs);

  /// Current validator epoch of every shard, in shard order — exactly what
  /// a checkpoint must carry for Attach to replay.
  std::vector<uint32_t> ShardEpochs() const;

  size_t num_shards() const { return shards_.size(); }
  size_t f() const { return options_.f; }

  /// Deterministic, stable deal→shard assignment: a function of the deal id
  /// bytes and S only — independent of World state, insertion order, or how
  /// many deals the service has seen.
  XDEAL_DETERMINISTIC size_t ShardOf(const Hash256& deal_id) const;

  ChainId chain(size_t shard) const { return shards_[shard].chain; }
  ValidatorSet& validators(size_t shard) { return shards_[shard].validators; }
  /// Read-only access to shard `shard`'s current validator set.
  const ValidatorSet& validators(size_t shard) const {
    return shards_[shard].validators;
  }

  /// Where a deal's pieces live once assets — not deals — map to shards: the
  /// deal's *home* shard hosts its CBC log (and issues its certificates),
  /// while each asset maps to the shard whose chain hosts it (assets on
  /// non-shard chains ride on the home shard). `asset_shards` is parallel to
  /// the `asset_chains` input of PlaceAssets.
  struct Placement {
    size_t home_shard = 0;
    std::vector<size_t> asset_shards;

    /// True when any asset settles on a shard other than the home shard —
    /// i.e. some escrow will need a portable DecideProof instead of reading
    /// its own shard's log.
    bool cross_shard() const {
      for (size_t s : asset_shards) {
        if (s != home_shard) return true;
      }
      return false;
    }

    /// Number of distinct shards the deal touches (home shard included).
    size_t SpanCount() const;
  };

  /// Resolves the placement of a deal: home shard from the deal id (so S=1
  /// and single-shard deals behave exactly as before), plus the shard of
  /// each asset chain. This is the one call site answering "which chain
  /// hosts the log / which shard settles this asset" for every CbcRun.
  XDEAL_DETERMINISTIC Placement PlaceAssets(
      const Hash256& deal_id, const std::vector<ChainId>& asset_chains) const;

  /// Serves a status certificate for `deal_id` from its shard's validators
  /// (the log must be the one hosted on that shard's chain).
  XDEAL_DETERMINISTIC StatusCertificate IssueStatus(const CbcLogContract& log,
                                const Hash256& deal_id) const;

  /// Issues the portable decide proof for `deal_id`: the home shard's status
  /// certificate plus the reconfiguration chain from `escrow_epoch` (the
  /// epoch the deal's escrows pinned) to the shard's current epoch. Escrows
  /// on *other* shards verify it against the pinned home-shard validators.
  XDEAL_DETERMINISTIC DecideProof IssueDecideProof(const CbcLogContract& log,
                                                   const Hash256& deal_id,
                                                   uint32_t escrow_epoch) const;

  /// Rotates one shard's validator set and returns the reconfiguration
  /// certificate. Other shards' epochs and keys are untouched. The service
  /// records the certificate so later decide proofs can chain from any
  /// escrow-time epoch (ReconfigsSince).
  ReconfigCertificate Reconfigure(size_t shard);

  /// The recorded reconfiguration chain of `shard` with new_epoch > `epoch`,
  /// in issue order — exactly what a proof built against an epoch-`epoch`
  /// escrow must carry.
  std::vector<ReconfigCertificate> ReconfigsSince(size_t shard,
                                                  uint32_t epoch) const;

  World& world() { return *world_; }

 private:
  struct Shard {
    ChainId chain;
    ValidatorSet validators;
    std::vector<ReconfigCertificate> reconfig_history;
  };

  // Attach-mode constructor: binds shards_ externally (see Attach).
  struct AttachTag {};
  CbcService(World* world, Options options, AttachTag)
      : world_(world), options_(std::move(options)) {}

  World* world_;
  Options options_;
  std::vector<Shard> shards_;
};

}  // namespace xdeal

#endif  // XDEAL_CBC_CBC_SERVICE_H_
