#include "chain/blockchain.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "chain/world.h"

namespace xdeal {

Hash256 Block::ComputeHash(uint64_t height, Tick timestamp,
                           const Hash256& parent, const Hash256& root) {
  ByteWriter w;
  w.Str("xdeal-block");
  w.U64(height);
  w.U64(timestamp);
  w.Raw(parent.bytes.data(), parent.bytes.size());
  w.Raw(root.bytes.data(), root.bytes.size());
  return Sha256Digest(w.bytes());
}

Blockchain::Blockchain(World* world, ChainId id, std::string name,
                       Tick block_interval)
    : world_(world),
      id_(id),
      name_(std::move(name)),
      block_interval_(block_interval) {
  assert(block_interval_ > 0);
}

ContractId Blockchain::Deploy(std::unique_ptr<Contract> contract) {
  ContractId id{static_cast<uint32_t>(contracts_.size())};
  contract->OnDeployed(id);
  contracts_.push_back(std::move(contract));
  return id;
}

Contract* Blockchain::contract(ContractId id) {
  if (id.v >= contracts_.size()) return nullptr;
  return contracts_[id.v].get();
}

const Contract* Blockchain::contract(ContractId id) const {
  if (id.v >= contracts_.size()) return nullptr;
  return contracts_[id.v].get();
}

uint64_t Blockchain::SubmitAt(Tick arrival, PartyId sender,
                              ContractId contract, CallData call,
                              std::string tag, uint64_t deal_tag) {
  uint64_t seq = next_seq_++;
  Tick boundary = NextBoundaryAfter(arrival);
  bool schedule = mempool_.find(boundary) == mempool_.end();
  mempool_[boundary].push_back(PendingTx{seq, sender, contract,
                                         std::move(call), std::move(tag),
                                         deal_tag});
  if (schedule) {
    world_->scheduler().ScheduleAt(boundary, EventLabel::BlockProduction(id_.v),
                                   [this, boundary] { ProduceBlock(boundary); });
  }
  return seq;
}

void Blockchain::Subscribe(Endpoint who, Observer cb) {
  unfiltered_observers_.push_back(observers_.size());
  observers_.push_back(ObserverRec{who, std::move(cb), 0, false});
}

void Blockchain::Subscribe(Endpoint who, uint64_t deal_tag, Observer cb) {
  observers_by_tag_[deal_tag].push_back(observers_.size());
  observers_.push_back(ObserverRec{who, std::move(cb), deal_tag, true});
}

ReceiptView Blockchain::TaggedReceipts(uint64_t deal_tag) const {
  auto it = tag_index_.find(deal_tag);
  if (it == tag_index_.end()) return ReceiptView();
  return ReceiptView(&receipts_, &it->second);
}

ReceiptView Blockchain::ContractReceipts(uint64_t deal_tag,
                                         ContractId contract) const {
  auto it = tag_contract_index_.find(std::make_pair(deal_tag, contract.v));
  if (it == tag_contract_index_.end()) return ReceiptView();
  return ReceiptView(&receipts_, &it->second);
}

bool Blockchain::TagIndexMatchesFullScan() const {
  // std::map, not unordered: this oracle's mismatch path feeds test
  // diagnostics, and det-lint forbids unordered iteration anywhere under a
  // deterministic root. Sorted order costs nothing here (test-only oracle).
  std::map<uint64_t, std::vector<uint32_t>> scan_tags;
  std::map<std::pair<uint64_t, uint32_t>, std::vector<uint32_t>> scan_pairs;
  for (size_t i = 0; i < receipts_.size(); ++i) {
    const Receipt& r = receipts_[i];
    scan_tags[r.deal_tag].push_back(static_cast<uint32_t>(i));
    scan_pairs[std::make_pair(r.deal_tag, r.contract.v)].push_back(
        static_cast<uint32_t>(i));
  }
  if (scan_tags.size() != tag_index_.size() ||
      scan_pairs.size() != tag_contract_index_.size()) {
    return false;
  }
  for (const auto& [tag, indexes] : scan_tags) {
    auto it = tag_index_.find(tag);
    if (it == tag_index_.end() || it->second != indexes) return false;
  }
  for (const auto& [key, indexes] : scan_pairs) {
    auto it = tag_contract_index_.find(key);
    if (it == tag_contract_index_.end() || it->second != indexes) return false;
  }
  return true;
}

Receipt Blockchain::Execute(const PendingTx& tx, Tick now, uint64_t height) {
  Receipt receipt;
  receipt.tx_seq = tx.seq;
  receipt.chain = id_;
  receipt.contract = tx.contract;
  receipt.sender = tx.sender;
  receipt.function = tx.call.function;
  receipt.included_at = now;
  receipt.block_height = height;
  receipt.tag = tx.tag;
  receipt.deal_tag = tx.deal_tag;

  Contract* target = contract(tx.contract);
  if (target == nullptr) {
    receipt.status = Status::NotFound("no such contract");
    return receipt;
  }

  GasMeter gas;
  CallContext ctx;
  ctx.world = world_;
  ctx.chain = this;
  ctx.sender = tx.sender;
  ctx.now = now;
  ctx.block_height = height;
  ctx.gas = &gas;

  ByteReader args(tx.call.args);
  Result<Bytes> result = target->Invoke(ctx, tx.call.function, args);
  receipt.status = result.ok() ? Status::OK() : result.status();
  if (result.ok()) receipt.ret = std::move(result).value();
  receipt.gas_used = gas.used();
  receipt.sig_verifies = gas.sig_verifies();
  receipt.storage_writes = gas.storage_writes();
  return receipt;
}

void Blockchain::ScheduleDelivery(const ObserverRec& obs, Tick delay,
                                  size_t receipt_index) {
  // Copy the receipt into the closure: the vector may grow later.
  Receipt snapshot = receipts_[receipt_index];
  Observer observer = obs.cb;
  world_->scheduler().ScheduleAfter(
      delay, EventLabel::Observation(id_.v, obs.who.id),
      [observer = std::move(observer), snapshot = std::move(snapshot)] {
        observer(snapshot);
      });
}

void Blockchain::DeliverIndexed(const std::vector<size_t>& receipt_indexes,
                                uint64_t height) {
  // Each receipt reaches only the observers subscribed to its deal_tag (plus
  // unfiltered observers), so per-block delivery is O(receipts × interested
  // observers), not O(receipts × all observers). Delays come from a keyed
  // per-(chain, observer, block) stream instead of the World's sequential
  // RNG, so skipping uninterested observers draws nothing and cannot perturb
  // anyone else's schedule.
  std::map<uint64_t, std::vector<size_t>> by_tag;
  for (size_t idx : receipt_indexes) {
    by_tag[receipts_[idx].deal_tag].push_back(idx);
  }
  for (const auto& [tag, idxs] : by_tag) {
    auto it = observers_by_tag_.find(tag);
    if (it == observers_by_tag_.end()) continue;
    for (size_t oi : it->second) {
      const ObserverRec& obs = observers_[oi];
      Tick delay = world_->KeyedObservationDelay(id_, obs.who, height);
      for (size_t idx : idxs) ScheduleDelivery(obs, delay, idx);
    }
  }
  for (size_t oi : unfiltered_observers_) {
    const ObserverRec& obs = observers_[oi];
    Tick delay = world_->KeyedObservationDelay(id_, obs.who, height);
    for (size_t idx : receipt_indexes) ScheduleDelivery(obs, delay, idx);
  }
}

namespace {

// Placeholder installed at restore for per-deal contracts whose deals had
// settled by the checkpoint boundary. It keeps ContractId numbering intact
// (later deployments land on the same ids as the uninterrupted run) while
// rejecting any invocation — nothing legitimately calls a settled deal's
// contracts, and the differential checkpoint tests prove it. It reports the
// original type, so a restored chain checkpoints to the uninterrupted run's
// bytes and the name does not grow with every restore.
class RetiredContract : public Contract {
 public:
  explicit RetiredContract(std::string original_type)
      : original_type_(std::move(original_type)) {}

  std::string TypeName() const override { return original_type_; }

  Result<Bytes> Invoke(CallContext& /*ctx*/, const std::string& fn,
                       ByteReader& /*args*/) override {
    return Status::FailedPrecondition("contract Retired:" + original_type_ +
                                      " cannot execute " + fn);
  }

 private:
  std::string original_type_;
};

}  // namespace

Status Blockchain::Checkpoint(ByteWriter* w) const {
  SnapshotIO io(w);
  Transfer(*this, io, nullptr);
  return io.status();
}

Status Blockchain::Restore(ByteReader& r, const ContractFactory& factory) {
  SnapshotIO io(r);
  Transfer(*this, io, factory);
  return io.status();
}

template <typename Self>
void Blockchain::Transfer(Self& self, SnapshotIO& io,
                          const ContractFactory& factory) {
  constexpr bool kDecode = !std::is_const_v<Self>;
  if (!kDecode && !self.mempool_.empty()) {
    io.Fail(Status::FailedPrecondition(
        "chain " + self.name_ + ": checkpoint requires an empty mempool (" +
        std::to_string(self.pending_txs()) + " txs pending)"));
  }
  if (kDecode && (!self.contracts_.empty() || !self.blocks_.empty() ||
                  self.next_seq_ != 0)) {
    io.Fail(Status::FailedPrecondition(
        "chain " + self.name_ +
        ": restore requires a freshly constructed chain"));
  }
  io.U64(self.max_txs_per_block_);
  io.U64(self.next_seq_);
  io.U64(self.total_gas_);
  // Blocks are sealed only at positive multiples of the interval, at most
  // once each, and never past the clock.
  uint64_t n_blocks = self.blocks_.size();
  io.U64(n_blocks);
  io.Check(n_blocks <= self.world_->now() / self.block_interval_,
           "chain snapshot: more blocks than block boundaries so far");
  Hash256 last_hash =
      self.blocks_.empty() ? Hash256{} : self.blocks_.back().hash;
  if (n_blocks > 0) io.Raw(last_hash.bytes.data(), last_hash.bytes.size());
  if constexpr (kDecode) {
    if (io.ok()) {
      // Pad the block list with header-only placeholders so heights (which
      // feed keyed observation delays) and the parent link of the next
      // real block match the uninterrupted run; only the back() hash is
      // load-bearing.
      self.blocks_.resize(n_blocks);
      for (uint64_t h = 0; h < n_blocks; ++h) self.blocks_[h].height = h;
      if (!self.blocks_.empty()) self.blocks_.back().hash = last_hash;
    }
  }

  size_t n_contracts = self.contracts_.size();
  io.Count(n_contracts);
  for (size_t i = 0; i < n_contracts && io.ok(); ++i) {
    Contract* contract = kDecode ? nullptr : self.contracts_[i].get();
    std::string type_name = kDecode ? "" : contract->TypeName();
    bool snap = !kDecode && contract->SupportsSnapshot();
    io.Str(type_name);
    io.Bool(snap);
    if (!io.ok()) return;
    std::unique_ptr<Contract> restored;
    if (kDecode) {
      if (!snap) {
        restored = std::make_unique<RetiredContract>(type_name);
      } else if (factory) {
        restored = factory(type_name);
      }
      if (restored == nullptr) {
        io.Fail(Status::InvalidArgument(
            "chain snapshot: no factory for contract type " + type_name));
        return;
      }
      contract = restored.get();
    }
    if (snap) {
      io.Nested(
          [contract](ByteWriter* w) {
            SnapshotIO state(w);
            return contract->TransferState(state);
          },
          [contract](ByteReader& r) {
            SnapshotIO state(r);
            return contract->TransferState(state);
          });
    }
    if constexpr (kDecode) {
      if (io.ok()) self.Deploy(std::move(restored));
    }
  }
}

void Blockchain::ProduceBlock(Tick boundary) {
  auto it = mempool_.find(boundary);
  if (it == mempool_.end()) return;
  std::vector<PendingTx> txs = std::move(it->second);
  mempool_.erase(it);

  // Finite block capacity: include the first `cap` arrivals, roll the rest
  // over to the next boundary *ahead of* anything that arrives later (they
  // were submitted first). This is where heavy traffic turns into queueing
  // delay that can stretch past protocol deadlines.
  if (max_txs_per_block_ > 0 && txs.size() > max_txs_per_block_) {
    Tick next = boundary + block_interval_;
    auto next_it = mempool_.find(next);
    bool schedule = next_it == mempool_.end();
    std::vector<PendingTx>& overflow_queue = mempool_[next];
    overflow_queue.insert(
        overflow_queue.begin(),
        std::make_move_iterator(txs.begin() + max_txs_per_block_),
        std::make_move_iterator(txs.end()));
    txs.resize(max_txs_per_block_);
    if (schedule) {
      world_->scheduler().ScheduleAt(next, EventLabel::BlockProduction(id_.v),
                                     [this, next] { ProduceBlock(next); });
    }
  }

  uint64_t height = blocks_.size();
  Block block;
  block.height = height;
  block.timestamp = boundary;
  block.parent_hash = blocks_.empty() ? Hash256{} : blocks_.back().hash;

  std::vector<Hash256> leaf_hashes;
  std::vector<size_t> receipt_indexes;
  leaf_hashes.reserve(txs.size());
  for (const PendingTx& tx : txs) {
    Receipt r = Execute(tx, boundary, height);
    total_gas_ += r.gas_used;
    block.tx_seqs.push_back(r.tx_seq);

    ByteWriter w;
    w.U64(r.tx_seq).U32(r.sender.v).Str(r.function).Blob(r.ret);
    w.U8(static_cast<uint8_t>(r.status.code()));
    leaf_hashes.push_back(Sha256Digest(w.bytes()));

    uint32_t pos = static_cast<uint32_t>(receipts_.size());
    tag_index_[r.deal_tag].push_back(pos);
    tag_contract_index_[std::make_pair(r.deal_tag, r.contract.v)].push_back(
        pos);
    receipt_indexes.push_back(pos);
    receipts_.push_back(std::move(r));
  }
  block.entries_root = MerkleRoot(leaf_hashes);
  block.hash = Block::ComputeHash(block.height, block.timestamp,
                                  block.parent_hash, block.entries_root);
  blocks_.push_back(block);

  DeliverIndexed(receipt_indexes, height);
}

}  // namespace xdeal
