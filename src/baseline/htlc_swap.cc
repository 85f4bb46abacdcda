#include "baseline/htlc_swap.h"

#include <algorithm>
#include <cassert>

namespace xdeal {

bool IsSwapExpressible(const DealSpec& spec) {
  // Every asset must be moved exactly once, directly by its escrower.
  std::map<uint32_t, size_t> transfer_count;
  for (const TransferStep& t : spec.transfers) ++transfer_count[t.asset];
  for (const auto& [asset, count] : transfer_count) {
    if (count != 1) return false;
  }
  for (const TransferStep& t : spec.transfers) {
    bool from_is_escrower = false;
    for (const EscrowStep& e : spec.escrows) {
      if (e.asset == t.asset && e.party == t.from) from_is_escrower = true;
    }
    if (!from_is_escrower) return false;  // passes on assets it never owned
  }
  // Every escrowed asset must actually move (otherwise it is pointless).
  for (const EscrowStep& e : spec.escrows) {
    if (transfer_count.find(e.asset) == transfer_count.end()) return false;
  }
  return !spec.transfers.empty();
}

Result<SwapSpec> ToSwapSpec(const DealSpec& spec) {
  if (!IsSwapExpressible(spec)) {
    return Status::FailedPrecondition(
        "deal is not swap-expressible (multi-hop or broker-style transfers)");
  }
  // The arcs must form a single cycle covering all parties.
  std::map<uint32_t, const TransferStep*> next;
  for (const TransferStep& t : spec.transfers) {
    if (next.count(t.from.v) > 0) {
      return Status::FailedPrecondition("swap: party has multiple out-arcs");
    }
    next[t.from.v] = &t;
  }
  if (next.size() != spec.parties.size()) {
    return Status::FailedPrecondition("swap: not a single cycle");
  }
  SwapSpec swap;
  PartyId cur = spec.parties.front();
  for (size_t i = 0; i < spec.parties.size(); ++i) {
    auto it = next.find(cur.v);
    if (it == next.end()) {
      return Status::FailedPrecondition("swap: cycle broken");
    }
    const TransferStep* t = it->second;
    swap.parties.push_back(cur);
    swap.legs.push_back(
        SwapLeg{spec.assets[t->asset], t->from, t->to, t->value});
    cur = t->to;
  }
  if (!(cur == spec.parties.front())) {
    return Status::FailedPrecondition("swap: arcs do not close a cycle");
  }
  return swap;
}

// ---------------------------------------------------------------------------
// SwapParty
// ---------------------------------------------------------------------------

World& SwapParty::world() { return run_->world(); }
const SwapSpec& SwapParty::spec() const { return run_->spec(); }

void SwapParty::FundOwnLeg() {
  if (funded_) return;
  funded_ = true;
  const SwapLeg& leg = spec().legs[index_];
  ByteWriter w;
  w.U64(leg.value);
  world().Submit(self_, leg.asset.chain, run_->ContractIdOfLeg(index_),
                 CallData{"deposit", w.Take()}, "swap-deploy");
}

void SwapParty::ClaimIncoming(const Bytes& secret) {
  if (claimed_) return;
  claimed_ = true;
  size_t incoming = (index_ + spec().legs.size() - 1) % spec().legs.size();
  const SwapLeg& leg = spec().legs[incoming];
  ByteWriter w;
  w.Blob(secret);
  world().Submit(self_, leg.asset.chain, run_->ContractIdOfLeg(incoming),
                 CallData{"claim", w.Take()}, "swap-claim");
}

void SwapParty::OnStart() {
  // Leader (index 0) funds first; everyone else reacts to observations.
  if (index_ == 0) FundOwnLeg();
}

void SwapParty::OnObservedReceipt(const Receipt& receipt) {
  if (!receipt.status.ok()) return;
  size_t k = spec().legs.size();
  // Identify which leg this receipt touches.
  size_t leg_index = k;
  for (size_t i = 0; i < k; ++i) {
    if (spec().legs[i].asset.chain == receipt.chain &&
        run_->ContractIdOfLeg(i) == receipt.contract) {
      leg_index = i;
      break;
    }
  }
  if (leg_index == k) return;

  if (receipt.function == "deposit") {
    // Deployment propagates: we fund after our predecessor funds.
    size_t predecessor = (index_ + k - 1) % k;
    if (leg_index == predecessor && index_ != 0) FundOwnLeg();
    // Leader claims once the last leg (its incoming) is funded.
    if (index_ == 0 && leg_index == k - 1) {
      ClaimIncoming(run_->leader_secret());
    }
    return;
  }
  if (receipt.function == "claim") {
    // Our outgoing leg was claimed: the secret is now public — claim our
    // incoming leg with it.
    if (leg_index == index_) {
      const HtlcContract* contract = run_->ContractOfLeg(index_);
      if (contract != nullptr && contract->revealed_secret().has_value()) {
        ClaimIncoming(*contract->revealed_secret());
      }
    }
  }
}

void SwapParty::OnRefundWatch() {
  const HtlcContract* contract = run_->ContractOfLeg(index_);
  if (contract == nullptr || !contract->funded() || contract->claimed() ||
      contract->refunded()) {
    return;
  }
  const SwapLeg& leg = spec().legs[index_];
  world().Submit(self_, leg.asset.chain, run_->ContractIdOfLeg(index_),
                 CallData{"refund", {}}, "swap-refund");
}

// ---------------------------------------------------------------------------
// HtlcSwapRun
// ---------------------------------------------------------------------------

HtlcSwapRun::HtlcSwapRun(World* world, SwapSpec spec, SwapConfig config,
                         StrategyFactory factory)
    : world_(world), spec_(std::move(spec)), config_(config) {
  for (size_t i = 0; i < spec_.parties.size(); ++i) {
    PartyId p = spec_.parties[i];
    std::unique_ptr<SwapParty> strategy;
    if (factory) strategy = factory(p);
    if (!strategy) strategy = std::make_unique<SwapParty>();
    strategy->run_ = this;
    strategy->self_ = p;
    strategy->index_ = i;
    parties_[p.v] = std::move(strategy);
  }
}

HtlcContract* HtlcSwapRun::ContractOfLeg(size_t leg) const {
  return world_->chain(spec_.legs[leg].asset.chain)
      ->As<HtlcContract>(contracts_[leg]);
}

Tick HtlcSwapRun::TimeoutOfLeg(size_t leg) const {
  // Strictly decreasing along the cycle: leg i times out at
  // start + (2k - i) * deploy_gap + claim_margin.
  size_t k = spec_.legs.size();
  return config_.start_time +
         static_cast<Tick>(2 * k - leg) * config_.deploy_gap +
         config_.claim_margin;
}

Status HtlcSwapRun::Start() {
  if (spec_.parties.size() < 2 || spec_.legs.size() != spec_.parties.size()) {
    return Status::InvalidArgument("swap: need a cycle of >= 2 parties");
  }
  // The leader's secret and hashlock.
  ByteWriter w;
  w.Str("swap-secret");
  w.U32(spec_.parties.front().v);
  secret_ = Sha256Digest(w.bytes()).bytes.size() ? Bytes(32) : Bytes();
  Hash256 seed = Sha256Digest(w.bytes());
  std::copy(seed.bytes.begin(), seed.bytes.end(), secret_.begin());
  hashlock_ = Sha256Digest(secret_);

  // Deploy one HTLC per leg on the leg's chain.
  for (size_t i = 0; i < spec_.legs.size(); ++i) {
    const SwapLeg& leg = spec_.legs[i];
    Blockchain* chain = world_->chain(leg.asset.chain);
    if (chain == nullptr) return Status::NotFound("swap: chain missing");
    contracts_.push_back(chain->Deploy(std::make_unique<HtlcContract>(
        leg.asset.kind, leg.asset.token, leg.from, leg.to, hashlock_,
        TimeoutOfLeg(i))));
  }

  // Approvals (setup, untimed in the analysis).
  for (size_t i = 0; i < spec_.legs.size(); ++i) {
    const SwapLeg& leg = spec_.legs[i];
    Holder spender = Holder::OfContract(contracts_[i]);
    CallData approve =
        leg.asset.kind == AssetKind::kFungible
            ? FungibleToken::ApproveCall(spender, leg.value)
            : TicketRegistry::ApproveCall(leg.value, spender);
    size_t leg_copy = i;
    world_->scheduler().ScheduleAt(
        config_.setup_time, EventLabel::Timer(spec_.legs[i].from.v),
        [this, leg_copy, call = std::move(approve)]() mutable {
          const SwapLeg& l = spec_.legs[leg_copy];
          world_->Submit(l.from, l.asset.chain, l.asset.token,
                         std::move(call), "setup");
        });
  }

  // Observation wiring: every party watches every leg's chain.
  std::set<ChainId> chains;
  for (const SwapLeg& leg : spec_.legs) chains.insert(leg.asset.chain);
  for (const auto& [pid, strategy] : parties_) {
    SwapParty* raw = strategy.get();
    for (ChainId c : chains) {
      world_->chain(c)->Subscribe(
          world_->PartyEndpoint(PartyId{pid}),
          [raw](const Receipt& r) { raw->OnObservedReceipt(r); });
    }
  }

  // Kickoff + refund watchdogs.
  for (const auto& [pid, strategy] : parties_) {
    SwapParty* raw = strategy.get();
    world_->scheduler().ScheduleAt(config_.start_time, EventLabel::Timer(pid),
                                   [raw] { raw->OnStart(); });
    Tick watch = TimeoutOfLeg(raw->index_) + config_.refund_margin;
    world_->scheduler().ScheduleAt(watch, EventLabel::Timer(pid),
                                   [raw] { raw->OnRefundWatch(); });
  }
  return Status::OK();
}

SwapResult HtlcSwapRun::Collect() const {
  SwapResult result;
  result.all_claimed = true;
  result.all_refunded = true;
  for (size_t i = 0; i < spec_.legs.size(); ++i) {
    const HtlcContract* c = ContractOfLeg(i);
    if (c == nullptr) continue;
    if (c->claimed()) ++result.claimed_legs;
    if (c->refunded()) ++result.refunded_legs;
    result.all_claimed = result.all_claimed && c->claimed();
    result.all_refunded = result.all_refunded && c->refunded();
  }
  for (uint32_t c = 0; c < world_->num_chains(); ++c) {
    const Blockchain* chain = world_->chain(ChainId{c});
    for (const Receipt& r : chain->receipts()) {
      if (!r.status.ok()) continue;
      if (r.tag == "swap-deploy") result.gas_deploy += r.gas_used;
      if (r.tag == "swap-claim") {
        result.gas_claim += r.gas_used;
        result.settle_time = std::max(result.settle_time, r.included_at);
      }
      if (r.tag == "swap-refund") {
        result.gas_refund += r.gas_used;
        result.settle_time = std::max(result.settle_time, r.included_at);
      }
    }
  }
  return result;
}

}  // namespace xdeal
