#include "core/broker_pool.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

#include "contracts/escrow_view.h"
#include "contracts/fungible_token.h"
#include "util/percentile.h"
#include "util/rng.h"

namespace xdeal {

namespace {

/// The options both constructors run on: broker_every and hop_depth of 0
/// mean 1, and max_units is raised to min_units.
BrokerOptions Normalized(BrokerOptions options) {
  options.broker_every = std::max<size_t>(1, options.broker_every);
  options.hop_depth = std::max<size_t>(1, options.hop_depth);
  options.max_units = std::max(options.max_units, options.min_units);
  return options;
}

}  // namespace

BrokerPool::BrokerPool(DealEnv* env, const BrokerOptions& options,
                       const std::vector<ChainId>& chains)
    : BrokerPool(env, options, AttachTag{}) {
  if (!enabled()) return;  // inert: no World mutation at all
  assert(!chains.empty());

  for (size_t b = 0; b < options_.num_brokers; ++b) {
    brokers_.push_back(env_->AddParty("broker-" + std::to_string(b)));
  }

  // The settlement coin lives on the first pool chain; each broker's
  // commodity token on one of the remaining chains — so a broker deal's buy
  // side (coins) and sell side (goods) escrow on different chains whenever
  // the pool has more than one.
  World& world = env_->world();
  ContractId coin_contract = world.chain(chains[0])->Deploy(
      std::make_unique<FungibleToken>("broker-coin", brokers_[0]));
  coin_ = AssetRef{chains[0], coin_contract, AssetKind::kFungible,
                   "broker-coin"};

  reserved_.resize(options_.num_brokers);
  crashed_.assign(options_.num_brokers, 0);
  for (size_t b = 0; b < options_.num_brokers; ++b) {
    ChainId chain = chains[chains.size() > 1 ? 1 + (b % (chains.size() - 1))
                                             : 0];
    std::string label = "commodity-" + std::to_string(b);
    ContractId contract = world.chain(chain)->Deploy(
        std::make_unique<FungibleToken>(label, brokers_[b]));
    commodities_.push_back(
        AssetRef{chain, contract, AssetKind::kFungible, label});

    FungibleToken* coin =
        world.chain(coin_.chain)->As<FungibleToken>(coin_.token);
    Status minted = coin->Mint(Holder::Party(brokers_[b]),
                               options_.working_capital);
    assert(minted.ok());
    FungibleToken* commodity =
        world.chain(chain)->As<FungibleToken>(contract);
    minted = commodity->Mint(Holder::Party(brokers_[b]), options_.inventory);
    assert(minted.ok());
    (void)minted;
  }
}

// Bindings arrive via Restore(); nothing is created or minted — the
// restored world already holds the parties, tokens, and balances.
BrokerPool::BrokerPool(DealEnv* env, const BrokerOptions& options, AttachTag)
    : env_(env), options_(Normalized(options)) {}

bool BrokerPool::IsBrokerDeal(size_t deal_index) const {
  return enabled() && deal_index % options_.broker_every == 0;
}

size_t BrokerPool::BrokerOf(size_t deal_index) const {
  return (deal_index / options_.broker_every) % options_.num_brokers;
}

size_t BrokerPool::ChainDepth() const {
  return std::min(options_.hop_depth, options_.num_brokers);
}

uint64_t BrokerPool::PricedMarginFor(size_t broker, uint64_t* occupancy_out) {
  if (occupancy_out != nullptr) *occupancy_out = 0;
  if (options_.margin_slope == 0 || options_.working_capital == 0) {
    return options_.unit_margin;
  }
  uint64_t free = FreeCapital(broker);
  uint64_t in_use = options_.working_capital > free
                        ? options_.working_capital - free
                        : 0;
  if (occupancy_out != nullptr) *occupancy_out = in_use;
  return options_.unit_margin +
         options_.margin_slope * in_use / options_.working_capital;
}

DealSpec BrokerPool::MakeDeal(size_t deal_index, uint64_t seed) {
  assert(IsBrokerDeal(deal_index));
  // Independent stream from the shape/arrival seeds: the broker plan must
  // not correlate with anything else drawn from the deal seed.
  Rng rng(seed ^ 0x62726F6B657273ULL);  // "brokers" stream
  const size_t broker = BrokerOf(deal_index);
  const uint64_t units = options_.min_units +
                         rng.Below(options_.max_units - options_.min_units + 1);
  // Drawn unconditionally so the per-deal stream is identical at every
  // depth; hop chains ignore it (they are always capital-fronting).
  const bool sell_side = rng.Below(2) == 1;
  std::vector<Stake>& stakes = (deals_[deal_index] = Deal{}).stakes;

  const size_t depth = ChainDepth();
  if (depth > 1) {
    BrokerChainParams params;
    params.commodity = commodities_[broker];
    params.coin = coin_;
    params.units = units;
    params.seed = seed;
    params.name_prefix = "d" + std::to_string(deal_index) + "-";
    // Hop i's float covers what it pays upstream: the seller's price for
    // the first hop, then the accumulating margins of every hop before it.
    uint64_t upstream_cost = units * kBrokerUnitPrice;
    for (size_t i = 0; i < depth; ++i) {
      Stake stake;
      stake.broker = (broker + i) % options_.num_brokers;
      stake.asset = static_cast<uint32_t>(1 + i);
      stake.capital = upstream_cost;
      stake.margin = PricedMarginFor(stake.broker, &stake.occupancy);
      params.brokers.push_back(brokers_[stake.broker]);
      params.margins.push_back(stake.margin);
      upstream_cost += units * stake.margin;
      stakes.push_back(stake);
    }
    return GenerateBrokerChainDeal(env_, params);
  }

  Stake stake;
  stake.broker = broker;
  stake.asset = sell_side ? 0 : 2;
  if (sell_side) {
    stake.inventory = units;
  } else {
    stake.capital = units * kBrokerUnitPrice;
  }
  stake.margin = PricedMarginFor(broker, &stake.occupancy);
  stakes.push_back(stake);

  BrokerDealParams params;
  params.broker = brokers_[broker];
  params.commodity = commodities_[broker];
  params.coin = coin_;
  params.sell_side = sell_side;
  params.units = units;
  params.unit_margin = stake.margin;
  params.seed = seed;
  params.name_prefix = "d" + std::to_string(deal_index) + "-";
  return GenerateBrokerDeal(env_, params);
}

const std::vector<BrokerPool::Stake>& BrokerPool::StakesOf(
    size_t deal_index) const {
  static const std::vector<Stake> kNone;
  auto it = deals_.find(deal_index);
  return it == deals_.end() ? kNone : it->second.stakes;
}

uint64_t BrokerPool::CapitalNeed(size_t deal_index) const {
  uint64_t need = 0;
  for (const Stake& stake : StakesOf(deal_index)) need += stake.capital;
  return need;
}

uint64_t BrokerPool::InventoryNeed(size_t deal_index) const {
  uint64_t need = 0;
  for (const Stake& stake : StakesOf(deal_index)) need += stake.inventory;
  return need;
}

uint64_t BrokerPool::BalanceOf(const AssetRef& asset, PartyId party) const {
  const FungibleToken* token =
      env_->world().chain(asset.chain)->As<FungibleToken>(asset.token);
  assert(token != nullptr);
  return token->BalanceOf(Holder::Party(party));
}

void BrokerPool::Prune(size_t broker) {
  PartyId party = brokers_[broker];
  auto done = [party](const Reservation& r) {
    // Once the deposit is on chain the broker's balance already reflects it
    // (and a settled escrow has been paid back out), so the reservation's
    // job is done.
    return r.view == nullptr || r.view->Settled() ||
           r.view->escrow_core().EscrowedOf(party) > 0;
  };
  std::vector<Reservation>& reservations = reserved_[broker];
  reservations.erase(
      std::remove_if(reservations.begin(), reservations.end(), done),
      reservations.end());
}

void BrokerPool::PruneAll() {
  for (size_t b = 0; b < brokers_.size(); ++b) Prune(b);
}

void BrokerPool::CrashBroker(size_t broker) {
  if (broker < crashed_.size()) crashed_[broker] = 1;
}

void BrokerPool::RecoverBroker(size_t broker) {
  if (broker < crashed_.size()) crashed_[broker] = 0;
}

uint64_t BrokerPool::FreeCapital(size_t broker) {
  Prune(broker);
  uint64_t pending = 0;
  if (crashed_[broker] == 0) {
    for (const Reservation& r : reserved_[broker]) pending += r.capital;
  }
  uint64_t coins = BalanceOf(coin_, brokers_[broker]);
  return coins > pending ? coins - pending : 0;
}

uint64_t BrokerPool::FreeInventory(size_t broker) {
  Prune(broker);
  uint64_t pending = 0;
  if (crashed_[broker] == 0) {
    for (const Reservation& r : reserved_[broker]) pending += r.inventory;
  }
  uint64_t stock = BalanceOf(commodities_[broker], brokers_[broker]);
  return stock > pending ? stock - pending : 0;
}

bool BrokerPool::CapitalShort(size_t deal_index) {
  // Stakes never repeat a broker (depth is clamped to the pool size), so
  // each competes only with that broker's OTHER in-flight deals. Every
  // stake is read, short or not: each read prunes that broker's book.
  bool short_stake = false;
  for (const Stake& stake : StakesOf(deal_index)) {
    if (stake.capital > FreeCapital(stake.broker) ||
        stake.inventory > FreeInventory(stake.broker)) {
      short_stake = true;
    }
  }
  return short_stake;
}

std::vector<PartyId> BrokerPool::SharedPartiesOf(size_t deal_index) const {
  std::vector<PartyId> parties;
  for (const Stake& stake : StakesOf(deal_index)) {
    parties.push_back(brokers_[stake.broker]);
  }
  return parties;
}

std::vector<BrokerPool::PricePoint> BrokerPool::PricePointsOf(
    size_t deal_index) const {
  std::vector<PricePoint> points;
  for (const Stake& stake : StakesOf(deal_index)) {
    points.push_back(PricePoint{stake.occupancy, stake.margin});
  }
  return points;
}

const DealEscrowView* BrokerPool::EscrowViewOf(DealRuntime& runtime,
                                               uint32_t asset) const {
  const AssetRef& ref = runtime.spec().assets[asset];
  const Blockchain* chain = env_->world().chain(ref.chain);
  return chain == nullptr
             ? nullptr
             : dynamic_cast<const DealEscrowView*>(
                   chain->contract(runtime.escrow_contracts()[asset]));
}

void BrokerPool::OnDealDeployed(size_t deal_index, DealRuntime& runtime) {
  for (const Stake& stake : StakesOf(deal_index)) {
    reserved_[stake.broker].push_back(Reservation{
        stake.capital, stake.inventory, EscrowViewOf(runtime, stake.asset)});
  }
}

void BrokerPool::RecordOutcome(const BrokerDealOutcome& outcome) {
  auto it = deals_.find(outcome.deal_index);
  if (it != deals_.end()) it->second.outcome = outcome;
}

Status BrokerPool::Checkpoint(ByteWriter* w) const {
  SnapshotIO io(w);
  Transfer(*this, io);
  return io.status();
}

Status BrokerPool::Restore(ByteReader& r) {
  SnapshotIO io(r);
  Transfer(*this, io);
  return io.status();
}

template <typename Self>
void BrokerPool::Transfer(Self& self, SnapshotIO& io) {
  constexpr bool kDecode = !std::is_const_v<Self>;
  for (size_t b = 0; b < self.brokers_.size(); ++b) {
    if (!kDecode && !self.reserved_[b].empty()) {
      io.Fail(Status::FailedPrecondition(
          "broker pool checkpoint: broker " + std::to_string(b) +
          " still holds live reservations (PruneAll before checkpointing; a "
          "compliant quiescent boundary leaves none)"));
    }
  }
  const World& world = self.env_->world();
  auto is_ledger = [&world](const AssetRef& a) {
    return a.chain.v < world.num_chains() &&
           world.chain(a.chain)->As<FungibleToken>(a.token) != nullptr;
  };
  auto transfer_asset = [&io, &is_ledger](auto& a) {
    io.U32(a.chain.v);
    io.U32(a.token.v);
    io.Enum(a.kind, AssetKind::kNft,
            "broker snapshot: asset kind out of range");
    io.Str(a.label);
    io.Check(is_ledger(a), "broker snapshot: asset is not a token ledger");
  };
  const size_t n = self.options_.num_brokers;
  auto transfer_broker = [&io, n](auto& broker) {
    io.Size(broker);
    if (io.reading() && broker >= n) {
      io.Fail(Status::InvalidArgument("broker snapshot: broker " +
                                      std::to_string(broker) +
                                      " out of range"));
    }
  };

  io.List(self.brokers_, [&io](auto& b) { io.U32(b.v); });
  io.Check(self.brokers_.size() == n,
           "broker snapshot: broker count mismatches options");
  if (!io.ok()) return;
  if constexpr (kDecode) {
    self.commodities_.assign(n, AssetRef{});
    self.crashed_.assign(n, 0);
    self.reserved_.assign(n, {});
  }
  transfer_asset(self.coin_);
  for (auto& c : self.commodities_) transfer_asset(c);
  for (auto& c : self.crashed_) io.U8(c);
  io.Entries(
      self.deals_,
      [&io, &transfer_broker](auto& deal_index, auto& deal) {
        io.Size(deal_index);
        io.List(deal.stakes, [&io, &transfer_broker](auto& stake) {
          transfer_broker(stake.broker);
          io.U32(stake.asset);
          io.U64(stake.capital);
          io.U64(stake.inventory);
          io.U64(stake.margin);
          io.U64(stake.occupancy);
        });
        auto& outcome = deal.outcome;
        if constexpr (kDecode) outcome.deal_index = deal_index;
        io.U64(outcome.arrival_at);
        io.U64(outcome.admitted_at);
        io.U64(outcome.settle_time);
        io.U64(outcome.latency);
        io.U64(outcome.gas);
        io.Bool(outcome.started);
        io.Bool(outcome.committed);
        io.Bool(outcome.aborted);
        io.Bool(outcome.shed);
        io.Bool(outcome.all_settled);
      },
      SnapshotIO::Prefix::kU64);
}

std::vector<BrokerRecord> BrokerPool::BuildRecords() const {
  std::vector<BrokerRecord> records(brokers_.size());

  struct Event {
    Tick at = 0;
    bool release = false;
    uint64_t capital = 0;
    uint64_t inventory = 0;
  };
  std::vector<std::vector<Event>> events(brokers_.size());
  std::vector<std::vector<Tick>> latencies(brokers_.size());

  // Every stake attributes the deal to its broker, with that stake's
  // capital and inventory. Gas and latency go to the FIRST stake only so
  // chain deals are not multiply counted in pool-wide sums.
  for (const auto& [deal_index, deal] : deals_) {
    const BrokerDealOutcome& outcome = deal.outcome;
    for (size_t s = 0; s < deal.stakes.size(); ++s) {
      const Stake& stake = deal.stakes[s];
      BrokerRecord& rec = records[stake.broker];
      ++rec.deals;
      if (outcome.committed) ++rec.committed;
      if (outcome.aborted) ++rec.aborted;
      if (outcome.shed) ++rec.shed;
      if (!outcome.shed && outcome.admitted_at > outcome.arrival_at) {
        ++rec.delayed;
      }
      if (s == 0) {
        rec.gas += outcome.gas;
        if (outcome.all_settled && outcome.settle_time > 0) {
          latencies[stake.broker].push_back(outcome.latency);
          rec.latency_max = std::max(rec.latency_max, outcome.latency);
        }
      }
      if (outcome.started) {
        events[stake.broker].push_back(Event{outcome.admitted_at, false,
                                             stake.capital, stake.inventory});
        // A deal that never fully settles holds its resources forever — the
        // timeline deliberately never releases it.
        if (outcome.all_settled && outcome.settle_time > 0) {
          events[stake.broker].push_back(Event{
              outcome.settle_time, true, stake.capital, stake.inventory});
        }
      }
    }
  }

  for (size_t b = 0; b < brokers_.size(); ++b) {
    BrokerRecord& rec = records[b];
    rec.index = b;
    rec.party = brokers_[b].v;
    rec.capital_limit = options_.working_capital;
    rec.inventory_limit = options_.inventory;
    rec.latency_p50 = Percentile(latencies[b], 50);

    // Releases sort before reserves at the same tick: capital freed by a
    // settlement is available to a deal admitted that instant.
    std::sort(events[b].begin(), events[b].end(),
              [](const Event& x, const Event& y) {
                if (x.at != y.at) return x.at < y.at;
                return x.release && !y.release;
              });
    uint64_t capital = 0;
    uint64_t inventory = 0;
    rec.timeline.reserve(events[b].size());
    for (const Event& event : events[b]) {
      if (event.release) {
        capital -= std::min(capital, event.capital);
        inventory -= std::min(inventory, event.inventory);
      } else {
        capital += event.capital;
        inventory += event.inventory;
      }
      rec.peak_capital_in_use = std::max(rec.peak_capital_in_use, capital);
      rec.peak_inventory_in_use =
          std::max(rec.peak_inventory_in_use, inventory);
      rec.timeline.push_back(BrokerSample{event.at, capital, inventory});
    }

    uint64_t coins = BalanceOf(coin_, brokers_[b]);
    uint64_t stock = BalanceOf(commodities_[b], brokers_[b]);
    rec.coin_delta = static_cast<int64_t>(coins) -
                     static_cast<int64_t>(options_.working_capital);
    rec.inventory_delta = static_cast<int64_t>(stock) -
                          static_cast<int64_t>(options_.inventory);
    rec.portfolio_ok = rec.coin_delta >= 0 && rec.inventory_delta >= 0;
  }
  return records;
}

}  // namespace xdeal
