// Blockchain: a publicly-readable, tamper-evident, append-only ledger that
// hosts contracts (paper §3).
//
// The simulator's chain produces a block at each block-interval boundary for
// which transactions are pending. Each included transaction executes its
// target contract deterministically under a GasMeter and yields a Receipt.
// Parties subscribe to a chain and receive receipt notifications after a
// network-model observation delay — this is the only way information leaves
// a chain.
//
// Receipts are indexed at block-seal time by deal_tag and by
// (deal_tag, contract), so observation is O(own receipts): consumers read
// their slice through ReceiptView (a whole filtered history) instead of
// scanning the world. The unfiltered receipts() vector remains available as
// the differential-testing oracle for the index.

#ifndef XDEAL_CHAIN_BLOCKCHAIN_H_
#define XDEAL_CHAIN_BLOCKCHAIN_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/contract.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/det.h"

namespace xdeal {

class World;

/// The durable record of one executed transaction.
struct Receipt {
  uint64_t tx_seq = 0;          // unique per chain
  ChainId chain;
  ContractId contract;
  PartyId sender;
  std::string function;
  Status status;                // OK or the failed `require`
  Bytes ret;                    // serialized return value (empty on failure)
  uint64_t gas_used = 0;
  uint64_t sig_verifies = 0;
  uint64_t storage_writes = 0;
  Tick included_at = 0;
  uint64_t block_height = 0;
  std::string tag;              // caller-supplied label (phase attribution)
  uint64_t deal_tag = 0;        // workload label: which deal submitted this
                                // (0 = untagged / single-deal world)
};

/// A produced block: header + the receipts of its transactions.
struct Block {
  uint64_t height = 0;
  Tick timestamp = 0;
  Hash256 parent_hash;
  Hash256 entries_root;         // Merkle root over receipt digests
  Hash256 hash;                 // H(height || timestamp || parent || root)
  std::vector<uint64_t> tx_seqs;

  /// The block hash H(height || timestamp || parent || root).
  static Hash256 ComputeHash(uint64_t height, Tick timestamp,
                             const Hash256& parent, const Hash256& root);
};

/// A read-only, index-backed view over the subset of a chain's receipts
/// matching a deal_tag (optionally narrowed to one contract). Obtained from
/// Blockchain::TaggedReceipts / ContractReceipts in O(log #keys); iteration
/// costs O(matching receipts), never O(chain length). Views are invalidated
/// only by destroying the chain; producing more blocks simply extends them.
class ReceiptView {
 public:
  /// Forward iterator dereferencing to the underlying Receipt.
  class Iterator {
   public:
    Iterator(const std::vector<Receipt>* receipts,
             const std::vector<uint32_t>* indexes, size_t pos)
        : receipts_(receipts), indexes_(indexes), pos_(pos) {}
    /// The receipt at the current position.
    const Receipt& operator*() const {
      return (*receipts_)[(*indexes_)[pos_]];
    }
    const Receipt* operator->() const { return &operator*(); }
    /// Advances to the next matching receipt.
    Iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return pos_ != o.pos_; }
    bool operator==(const Iterator& o) const { return pos_ == o.pos_; }

   private:
    const std::vector<Receipt>* receipts_;
    const std::vector<uint32_t>* indexes_;
    size_t pos_;
  };

  /// An empty view (no matching receipts).
  ReceiptView() = default;

  size_t size() const { return indexes_ == nullptr ? 0 : indexes_->size(); }
  bool empty() const { return size() == 0; }
  /// The i-th matching receipt, in chain order.
  const Receipt& operator[](size_t i) const {
    return (*receipts_)[(*indexes_)[i]];
  }
  Iterator begin() const { return Iterator(receipts_, indexes_, 0); }
  Iterator end() const { return Iterator(receipts_, indexes_, size()); }

 private:
  friend class Blockchain;
  ReceiptView(const std::vector<Receipt>* receipts,
              const std::vector<uint32_t>* indexes)
      : receipts_(receipts), indexes_(indexes) {}

  const std::vector<Receipt>* receipts_ = nullptr;
  const std::vector<uint32_t>* indexes_ = nullptr;  // nullptr = empty view
};

/// An append-only contract-hosting ledger.
class Blockchain {
 public:
  using Observer = std::function<void(const Receipt&)>;
  /// Constructs an empty contract of the named type for a snapshotted
  /// contract being decoded (layering: the chain layer cannot name concrete
  /// contract types, so the caller — who can — supplies the factory).
  /// Returning nullptr means "unknown type" and rejects the snapshot.
  using ContractFactory =
      std::function<std::unique_ptr<Contract>(const std::string& type_name)>;

  Blockchain(World* world, ChainId id, std::string name, Tick block_interval);

  ChainId id() const { return id_; }
  const std::string& name() const { return name_; }
  Tick block_interval() const { return block_interval_; }

  /// Installs a contract; returns its id. Deployment is instantaneous in the
  /// simulator (deploy-time gas is out of scope for the paper's analysis).
  ContractId Deploy(std::unique_ptr<Contract> contract);

  /// Direct state access. Contract state is public (§3), so parties may read
  /// it off-chain at no gas cost; tests and validation logic use this.
  Contract* contract(ContractId id);
  /// Read-only state access to the contract `id` names.
  const Contract* contract(ContractId id) const;

  /// Typed convenience: dynamic_cast the contract to T.
  template <typename T>
  T* As(ContractId id) {
    return dynamic_cast<T*>(contract(id));
  }
  /// Typed read-only convenience: dynamic_cast the contract to const T.
  template <typename T>
  const T* As(ContractId id) const {
    return dynamic_cast<const T*>(contract(id));
  }

  /// Enqueues a transaction arriving at the chain at time `arrival`; it will
  /// execute in the block at the next interval boundary (or a later one when
  /// block capacity is limited and earlier arrivals fill the block). Returns
  /// the tx seq. `deal_tag` labels the receipt for per-deal accounting.
  XDEAL_DETERMINISTIC uint64_t SubmitAt(Tick arrival, PartyId sender, ContractId contract,
                    CallData call, std::string tag, uint64_t deal_tag = 0);

  /// Caps how many transactions one block may include; overflow rolls over
  /// to the next boundary in arrival order. 0 (the default) = unlimited.
  /// Finite capacity is how traffic workloads create real queueing delay.
  void set_max_txs_per_block(uint64_t cap) { max_txs_per_block_ = cap; }
  uint64_t max_txs_per_block() const { return max_txs_per_block_; }

  /// Registers an observer endpoint; every future receipt is delivered to it
  /// after an observation delay sampled from the network model.
  void Subscribe(Endpoint who, Observer cb);

  /// Tag-filtered subscription: only receipts whose deal_tag matches are
  /// delivered, making per-block delivery O(interested observers), not
  /// O(all observers).
  void Subscribe(Endpoint who, uint64_t deal_tag, Observer cb);

  const std::vector<Block>& blocks() const { return blocks_; }
  const std::vector<Receipt>& receipts() const { return receipts_; }

  /// All receipts carrying `deal_tag`, in chain order — O(log #tags), backed
  /// by the index built at block-seal time.
  ReceiptView TaggedReceipts(uint64_t deal_tag) const;

  /// All receipts carrying `deal_tag` that executed on `contract`.
  ReceiptView ContractReceipts(uint64_t deal_tag, ContractId contract) const;

  /// Differential oracle: recomputes every tag/(tag, contract) bucket by
  /// full scan and compares against the incremental index. Returns true iff
  /// the index is exactly the scan. O(chain length) — test/debug only.
  XDEAL_DETERMINISTIC bool TagIndexMatchesFullScan() const;

  /// Test hook: forces both unordered indexes to at least `bucket_count`
  /// buckets, permuting their internal iteration order. Rehashing a
  /// node-based unordered_map moves no elements, so ReceiptView pointers
  /// into the bucket vectors stay valid; only bucket traversal order
  /// changes. Determinism tests call this between runs to prove no
  /// observable result depends on that order.
  void RehashIndexes(size_t bucket_count) {
    tag_index_.rehash(bucket_count);
    observers_by_tag_.rehash(bucket_count);
  }

  /// Total gas consumed by all executed transactions.
  uint64_t total_gas() const { return total_gas_; }

  /// Next block boundary strictly after `t`.
  Tick NextBoundaryAfter(Tick t) const {
    return (t / block_interval_ + 1) * block_interval_;
  }

  /// Transactions enqueued but not yet included in any block, across all
  /// pending boundaries. This is the chain-occupancy signal admission
  /// controllers read: under finite block capacity a deep queue here means
  /// inclusion delay is already stretching toward protocol deadlines.
  uint64_t pending_txs() const {
    uint64_t pending = 0;
    for (const auto& [boundary, txs] : mempool_) pending += txs.size();
    return pending;
  }

  /// Serializes the chain's durable state into `w`. Only valid at a
  /// quiescent boundary: the mempool must be empty (every submitted tx
  /// already sealed into a block), otherwise FailedPrecondition. The
  /// snapshot is slim by design: block headers are carried as (count,
  /// last-hash) so heights and parent-chaining continue correctly; receipts
  /// are NOT carried (the restored chain's receipt history restarts empty —
  /// every deal that produced them has settled, and all cross-epoch
  /// accounting lives in the engine's cumulative counters, not in the
  /// chain).
  XDEAL_DETERMINISTIC Status Checkpoint(ByteWriter* w) const;

  /// Restores a freshly constructed chain (same name/id/interval, its
  /// World's clock already restored) from a Checkpoint. Contracts that
  /// snapshot their state are rebuilt via `factory` + TransferState; the
  /// rest become inert retired placeholders that preserve ContractId
  /// numbering and reject invocation.
  XDEAL_DETERMINISTIC Status Restore(ByteReader& r,
                                     const ContractFactory& factory);

 private:
  /// The one listing of the chain's snapshot (see SnapshotIO): Checkpoint
  /// runs it on a const chain to encode, Restore on a fresh one to decode.
  template <typename Self>
  static void Transfer(Self& self, SnapshotIO& io,
                       const ContractFactory& factory);

  struct PendingTx {
    uint64_t seq;
    PartyId sender;
    ContractId contract;
    CallData call;
    std::string tag;
    uint64_t deal_tag;
  };

  struct ObserverRec {
    Endpoint who;
    Observer cb;
    uint64_t deal_tag = 0;
    bool filtered = false;
  };

  XDEAL_DETERMINISTIC void ProduceBlock(Tick boundary);
  Receipt Execute(const PendingTx& tx, Tick now, uint64_t height);
  void DeliverIndexed(const std::vector<size_t>& receipt_indexes,
                      uint64_t height);
  void ScheduleDelivery(const ObserverRec& obs, Tick delay,
                        size_t receipt_index);

  World* world_;
  ChainId id_;
  std::string name_;
  Tick block_interval_;
  uint64_t next_seq_ = 0;
  uint64_t total_gas_ = 0;
  uint64_t max_txs_per_block_ = 0;  // 0 = unlimited

  std::vector<std::unique_ptr<Contract>> contracts_;
  std::map<Tick, std::vector<PendingTx>> mempool_;  // keyed by boundary
  std::vector<Block> blocks_;
  std::vector<Receipt> receipts_;
  // Receipt indexes, appended at block-seal time in chain order. Values are
  // positions in receipts_. Node-based maps: ReceiptView caches pointers to
  // the bucket vectors, which stay valid as buckets grow.
  std::unordered_map<uint64_t, std::vector<uint32_t>> tag_index_;
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint32_t>>
      tag_contract_index_;
  std::vector<ObserverRec> observers_;
  // Observer positions by subscription tag (filtered subscriptions only) —
  // lets delivery fan a receipt out to exactly the observers that
  // asked for its deal, independent of how many others watch the chain.
  std::unordered_map<uint64_t, std::vector<size_t>> observers_by_tag_;
  std::vector<size_t> unfiltered_observers_;
};

}  // namespace xdeal

#endif  // XDEAL_CHAIN_BLOCKCHAIN_H_
