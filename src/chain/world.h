// World: the simulation container — scheduler, RNG, network model, key
// directory, and the set of independent blockchains.
//
// The World is the root object every scenario builds: create chains, register
// parties, deploy contracts, then drive parties that submit transactions and
// observe receipts. All cross-component timing flows through the network
// model so scenarios can swap synchrony assumptions without touching
// protocol code.

#ifndef XDEAL_CHAIN_WORLD_H_
#define XDEAL_CHAIN_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/ids.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/det.h"
#include "util/rng.h"

namespace xdeal {

/// The simulated universe: one deterministic scheduler, the network model,
/// the registered parties and their keys, and every blockchain.
class World {
 public:
  /// `seed` drives every random choice; `net` supplies message delays.
  World(uint64_t seed, std::unique_ptr<NetworkModel> net);

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  Rng& rng() { return rng_; }
  Tick now() const { return scheduler_.now(); }
  uint64_t seed() const { return seed_; }

  /// Registers a party. Its keys derive deterministically from its name, on
  /// first use (see KeyDirectory).
  PartyId RegisterParty(const std::string& name);

  /// Creates a new independent blockchain.
  Blockchain* CreateChain(const std::string& name, Tick block_interval);

  /// The chain `id` names, or nullptr if no such chain was created.
  Blockchain* chain(ChainId id);
  /// Read-only access to the chain `id` names (nullptr if none).
  const Blockchain* chain(ChainId id) const;
  size_t num_chains() const { return chains_.size(); }

  const KeyDirectory& keys() const { return key_directory_; }

  /// Private-key handle for a party's own strategy object.
  const KeyPair& KeyPairOf(PartyId p) const {
    return key_directory_.KeyPairOf(p);
  }

  /// Submits a transaction from `from` to a contract on `chain_id`.
  /// The message reaches the chain after a sampled network delay and executes
  /// at the following block boundary. Returns immediately (fire and forget);
  /// results arrive through chain subscription or direct state reads.
  /// `deal_tag` labels the resulting receipt so multi-deal workloads can
  /// attribute gas/latency per deal (0 = untagged).
  XDEAL_DETERMINISTIC void Submit(PartyId from, ChainId chain_id, ContractId contract,
              CallData call, std::string tag = "", uint64_t deal_tag = 0);

  /// Samples a one-way delay between two endpoints. Consumes the World's
  /// sequential RNG stream.
  XDEAL_DETERMINISTIC Tick SampleDelay(Endpoint from, Endpoint to);

  /// Observation delay for receipt delivery: drawn through the network
  /// model from a private stream keyed on (world seed, chain, observer,
  /// block height). A pure function of its inputs — it consumes nothing
  /// from the sequential RNG, so delivery reaches only the interested
  /// observers without perturbing anyone else's draws.
  XDEAL_DETERMINISTIC Tick KeyedObservationDelay(ChainId chain, Endpoint who,
                             uint64_t block_height);

  Endpoint PartyEndpoint(PartyId p) const { return Endpoint{p.v}; }
  /// A chain's network endpoint, offset by 2^24 from the party endpoints.
  Endpoint ChainEndpoint(ChainId c) const {
    return Endpoint{kChainEndpointBase + c.v};
  }

  /// Sum of gas across all chains (global cost, Figure 4 rows).
  uint64_t TotalGas() const;

  /// Serializes the World's durable state into `w`: RNG stream position,
  /// scheduler clock + pending durable events, party registry, and every
  /// chain's Checkpoint in its own blob. Only valid at a quiescent
  /// boundary — the scheduler may hold nothing but durable events
  /// (pending() == pending_durable()) and every mempool must be empty.
  XDEAL_DETERMINISTIC Status Checkpoint(ByteWriter* w) const;

  /// Restores a freshly constructed World (same seed + network model) from
  /// a Checkpoint: re-registers parties by name (keys re-derive
  /// deterministically), recreates chains and their contracts via
  /// `factory`, re-imports durable events at their original (time, seq)
  /// positions, and fast-forwards the RNG/clock. After Restore the next
  /// scheduled event fires bit-identically to the uninterrupted run.
  /// Hostile bytes are rejected with a Status.
  XDEAL_DETERMINISTIC Status Restore(ByteReader& r,
                                     const Blockchain::ContractFactory& factory);

 private:
  static constexpr uint32_t kChainEndpointBase = 1u << 24;

  /// The one listing of the World's snapshot (see SnapshotIO): Checkpoint
  /// runs it on a const World to encode, Restore on a fresh one to decode.
  template <typename Self>
  static void Transfer(Self& self, SnapshotIO& io,
                       const Blockchain::ContractFactory& factory);

  Scheduler scheduler_;
  uint64_t seed_;
  Rng rng_;
  std::unique_ptr<NetworkModel> network_;
  KeyDirectory key_directory_;
  std::vector<std::unique_ptr<Blockchain>> chains_;
};

}  // namespace xdeal

#endif  // XDEAL_CHAIN_WORLD_H_
