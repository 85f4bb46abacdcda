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
// Storage follows live deals, not history. Receipts and tag-filtered
// observers are kept per deal_tag: each tag has one log of its receipts in
// chain order, indexed by contract, so observation is O(own receipts) and
// consumers read their slice through ReceiptView. A multi-deal engine
// releases a settled deal's log and observers in one erase (ReleaseTag) and
// swaps its contracts for retired placeholders (Retire); a single-deal
// (untagged) world never releases anything and keeps its full history in
// the tag-0 log. Block history is the count and the last header: block
// heights and the parent link of the next block are all that later blocks
// read.

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

/// A read-only view over one deal_tag's receipt log (optionally narrowed to
/// one contract through the log's index). Obtained from
/// Blockchain::TaggedReceipts / ContractReceipts in O(1) / O(log #contracts);
/// iteration costs O(matching receipts), never O(chain length). Producing
/// more blocks simply extends a view; releasing its tag (or destroying the
/// chain) invalidates it.
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
      return (*receipts_)[indexes_ == nullptr ? pos_ : (*indexes_)[pos_]];
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

  /// Number of matching receipts.
  size_t size() const {
    if (indexes_ != nullptr) return indexes_->size();
    return receipts_ == nullptr ? 0 : receipts_->size();
  }
  bool empty() const { return size() == 0; }
  /// The i-th matching receipt, in chain order.
  const Receipt& operator[](size_t i) const {
    return (*receipts_)[indexes_ == nullptr ? i : (*indexes_)[i]];
  }
  Iterator begin() const { return Iterator(receipts_, indexes_, 0); }
  Iterator end() const { return Iterator(receipts_, indexes_, size()); }

 private:
  friend class Blockchain;
  ReceiptView(const std::vector<Receipt>* receipts,
              const std::vector<uint32_t>* indexes)
      : receipts_(receipts), indexes_(indexes) {}

  const std::vector<Receipt>* receipts_ = nullptr;  // nullptr = empty view
  const std::vector<uint32_t>* indexes_ = nullptr;  // nullptr = every receipt
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

  /// Replaces contract `id` with an inert placeholder that keeps its type
  /// name and ContractId and rejects every call with a "Retired:"
  /// FailedPrecondition — the contract a snapshot restore installs for it.
  /// Contracts that snapshot their state (token ledgers) are kept.
  void Retire(ContractId id);

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

  /// Blocks sealed so far (restored chains count the blocks before the
  /// snapshot).
  uint64_t num_blocks() const { return num_blocks_; }
  /// The newest block's header (default-constructed before the first
  /// block). On a restored chain only its height and hash are known.
  const Block& last_block() const { return last_block_; }

  /// The untagged receipts (deal_tag 0) in chain order: a single-deal
  /// world's whole history.
  ReceiptView receipts() const { return TaggedReceipts(0); }

  /// All receipts carrying `deal_tag`, in chain order — one hash lookup
  /// into the per-tag logs appended at block-seal time.
  ReceiptView TaggedReceipts(uint64_t deal_tag) const;

  /// All receipts carrying `deal_tag` that executed on `contract`.
  ReceiptView ContractReceipts(uint64_t deal_tag, ContractId contract) const;

  /// Observers subscribed to `deal_tag` (tag-filtered subscriptions only).
  size_t ObserverCount(uint64_t deal_tag) const;

  /// Drops everything the chain keeps for `deal_tag`: its receipt log, its
  /// contract index and its observers. Views of the tag are invalidated.
  /// Call it once nothing of the tag is in flight; a later receipt of the
  /// tag would start a fresh log that no observer hears.
  void ReleaseTag(uint64_t deal_tag) { logs_.erase(deal_tag); }

  /// Differential oracle for one tag: recomputes the tag log's per-contract
  /// index by full scan of the log and checks that every receipt in it
  /// carries the tag, in strictly increasing tx_seq (chain) order. Returns
  /// true iff all hold. O(tag's receipts) — test/debug only.
  XDEAL_DETERMINISTIC bool TagIndexMatchesFullScan(uint64_t deal_tag) const;

  /// Test hook: forces the per-tag map to at least `bucket_count` buckets,
  /// permuting its internal iteration order. Rehashing a node-based
  /// unordered_map moves no elements, so ReceiptView pointers into the logs
  /// stay valid; only bucket traversal order changes. Determinism tests
  /// call this between runs to prove no observable result depends on that
  /// order.
  void RehashIndexes(size_t bucket_count) { logs_.rehash(bucket_count); }

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
  /// snapshot carries what the chain keeps: the block count and the last
  /// block's hash, so heights and parent-chaining continue correctly, and
  /// every contract — token ledgers with their state, every other contract
  /// as its type name only. Receipts and observers are NOT carried: at a
  /// quiescent boundary every deal has settled and released its tag, and
  /// all cross-epoch accounting lives in the engine's cumulative counters.
  XDEAL_DETERMINISTIC Status Checkpoint(ByteWriter* w) const;

  /// Restores a freshly constructed chain (same name/id/interval, its
  /// World's clock already restored) from a Checkpoint. Contracts that
  /// snapshot their state are rebuilt via `factory` + TransferState; the
  /// rest become the retired placeholders Retire installs, which preserve
  /// ContractId numbering and reject invocation. The restored chain's
  /// header state (num_blocks, last_block's height and hash) equals the
  /// straight run's.
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
  };

  /// Everything the chain keeps for one deal_tag.
  struct TagLog {
    std::vector<Receipt> receipts;  // chain order
    // Positions in `receipts` per contract. A node-based map: ReceiptView
    // caches pointers to these vectors, which stay valid as they grow.
    std::map<uint32_t, std::vector<uint32_t>> by_contract;
    std::vector<ObserverRec> observers;  // tag-filtered, subscription order
  };

  XDEAL_DETERMINISTIC void ProduceBlock(Tick boundary);
  Receipt Execute(const PendingTx& tx, Tick now, uint64_t height);
  void DeliverIndexed(const std::vector<Receipt>& block_receipts,
                      uint64_t height);
  void ScheduleDelivery(const ObserverRec& obs, Tick delay,
                        const Receipt& receipt);

  World* world_;
  ChainId id_;
  std::string name_;
  Tick block_interval_;
  uint64_t next_seq_ = 0;
  uint64_t total_gas_ = 0;
  uint64_t max_txs_per_block_ = 0;  // 0 = unlimited

  std::vector<std::unique_ptr<Contract>> contracts_;
  std::map<Tick, std::vector<PendingTx>> mempool_;  // keyed by boundary
  uint64_t num_blocks_ = 0;
  Block last_block_;
  // Per-tag receipt logs and tag-filtered observers, appended at block-seal
  // time. Node-based: ReceiptView caches pointers into the logs, which stay
  // valid across rehashing. Delivery fans a receipt out to exactly the
  // observers of its tag, however many others watch the chain.
  std::unordered_map<uint64_t, TagLog> logs_;
  std::vector<ObserverRec> unfiltered_observers_;
};

}  // namespace xdeal

#endif  // XDEAL_CHAIN_BLOCKCHAIN_H_
