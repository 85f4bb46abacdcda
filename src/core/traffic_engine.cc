#include "core/traffic_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "cbc/cbc_service.h"
#include "contracts/fungible_token.h"
#include "core/adversaries.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/env.h"
#include "core/watchtower.h"
#include "crypto/sha256.h"
#include "sim/worker_pool.h"
#include "util/fingerprint.h"
#include "util/percentile.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace xdeal {
namespace {

/// Per-deal PartyFactory: injects the offline-party strategy, arms the
/// watchtower, and registers broker reservations — all through the uniform
/// OnDeployed hook.
class TrafficPartyFactory : public PartyFactory {
 public:
  bool offline = false;
  PartyId offline_party;

  bool arm_tower = false;
  World* world = nullptr;
  PartyId tower_operator;
  std::vector<std::unique_ptr<Watchtower>>* towers = nullptr;

  /// Tower crash injection (default off): every `tower_crash_every`-th
  /// armed tower is killed `tower_crash_after` ticks after arming, and
  /// restarts `tower_recover_after` ticks later (0 = never). The shared
  /// counter spans the whole run so the k-th armed tower is the same tower
  /// whichever batch armed it.
  size_t tower_crash_every = 0;
  Tick tower_crash_after = 0;
  Tick tower_recover_after = 0;
  uint64_t* towers_armed = nullptr;

  /// Set on broker deals: once contracts exist, the pool starts tracking
  /// the capital/inventory reservation this deal opened.
  BrokerPool* broker_pool = nullptr;
  size_t deal_index = 0;

  /// Cross-shard replay injection: this party presents the home shard's
  /// decide evidence re-declared for the wrong shard.
  bool stale_proof = false;
  PartyId stale_party;

  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId p) override {
    if (offline && p == offline_party) {
      // Escrows, then goes dark: no transfers, votes, forwarding, or refund
      // claims. Its deposit is stranded unless a watchtower steps in.
      return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
    }
    return nullptr;
  }

  std::unique_ptr<CbcParty> MakeCbcParty(PartyId p) override {
    if (stale_proof && p == stale_party) {
      return std::make_unique<CbcStaleShardProofParty>();
    }
    return nullptr;
  }

  void OnDeployed(DealRuntime& runtime) override {
    if (broker_pool != nullptr) {
      broker_pool->OnDealDeployed(deal_index, runtime);
    }
    if (!arm_tower) return;
    TimelockRun* run = runtime.timelock_run();
    if (run == nullptr) return;  // towers relay timelock votes only
    auto tower = std::make_unique<Watchtower>(
        world, runtime.spec(), run->deployment(), tower_operator,
        runtime.spec().parties, run->config().deal_tag);
    tower->Arm();
    towers->push_back(std::move(tower));
    uint64_t seq = towers_armed != nullptr ? (*towers_armed)++ : 0;
    if (tower_crash_every > 0 && tower_crash_after > 0 &&
        seq % tower_crash_every == 0) {
      Watchtower* t = towers->back().get();
      world->scheduler().ScheduleAfter(tower_crash_after,
                                       [t] { t->Crash(); });
      if (tower_recover_after > 0) {
        world->scheduler().ScheduleAfter(
            tower_crash_after + tower_recover_after, [t] { t->Recover(); });
      }
    }
  }
};

/// One deal's full lifetime inside the shared World. The runtime and
/// checker are arena-allocated (one batch-scoped Arena owns all of them);
/// the slot holds non-owning pointers.
struct DealSlot {
  TrafficDealRecord rec;
  DealSpec spec;
  DealRuntime* runtime = nullptr;
  DealChecker* checker = nullptr;
  /// Configured at generation time; must outlive Deploy, which may fire from
  /// an admission event mid-run, so it lives in the slot.
  TrafficPartyFactory factory;
  /// Set on deals touched by injection (double-spend or offline party): the
  /// deviating party, excluded from this deal's compliant set.
  bool has_adversary = false;
  PartyId adversary;
  /// Dynamic-pricing broker deal whose spec generation is deferred to its
  /// first admission attempt, so hop margins are priced from live capital
  /// occupancy instead of generation-time zero.
  bool deferred_broker = false;
};

/// The hop-chain capital admission signal: samples every broker along the
/// deal's resale chain via the pool; one over-committed hop blocks the
/// whole chain. Registered only when the pool runs chains (depth > 1).
class HopCapitalSignal : public AdmissionSignal {
 public:
  HopCapitalSignal(BrokerPool* pool, bool gate) : pool_(pool), gate_(gate) {}
  const char* name() const override { return "hop-capital"; }
  Reading Sample(const AdmissionContext& ctx) override {
    Reading r;
    r.gating = gate_;
    uint64_t need = 0;
    r.over = pool_->ChainCapitalShort(ctx.deal_index, &need);
    r.load = need;
    return r;
  }

 private:
  BrokerPool* pool_;
  bool gate_;
};

std::vector<PartyId> CompliantPartiesOf(const DealSlot& slot) {
  std::vector<PartyId> compliant;
  for (PartyId p : slot.spec.parties) {
    if (!slot.has_adversary || p != slot.adversary) compliant.push_back(p);
  }
  return compliant;
}

/// Post-run evaluation of one deal; read-only on the World, safe to run
/// concurrently for distinct slots.
void ValidateDeal(DealSlot* slot) {
  TrafficDealRecord& rec = slot->rec;
  if (!rec.started) return;

  DealResult result = slot->runtime->Collect();
  rec.settle_time = result.settle_time;
  // Open-loop sojourn time: measured from arrival, so any admission wait
  // the controller imposed is part of the latency the workload observed.
  rec.latency =
      rec.settle_time > rec.arrival_at ? rec.settle_time - rec.arrival_at : 0;
  // Property 3 presumes every party compliant; injection-touched deals are
  // exempt (their abort is the expected defense, not a liveness failure).
  JudgeDeal(result, *slot->checker, CompliantPartiesOf(*slot), !rec.tainted,
            &rec);
}

/// Builds the 2-party over-commit swap for an injected double-spend: the
/// host deal's first escrower re-promises the SAME tokens to a fresh
/// counterparty. Only one of the two escrow pulls can succeed on-chain.
DealSpec BuildDoubleSpendSpec(DealEnv* env, const DealSlot& host,
                              size_t deal_index, uint64_t seed,
                              size_t num_chains, Rng* rng) {
  const std::string prefix = "d" + std::to_string(deal_index) + "-";
  PartyId spender = host.spec.escrows[0].party;
  uint64_t amount = host.spec.escrows[0].value;

  DealSpec spec;
  spec.deal_id = MakeDealId(prefix + "doublespend", seed);
  PartyId mark = env->AddParty(prefix + "mark");
  spec.parties = {spender, mark};
  // Asset 0: the host deal's asset 0 — same token contract, same chain.
  spec.assets.push_back(host.spec.assets[0]);
  // Asset 1: a fresh token the counterparty actually owns.
  ChainId chain = ChainId{static_cast<uint32_t>(rng->Below(num_chains))};
  uint32_t fresh =
      env->AddFungibleAsset(&spec, chain, prefix + "tok", mark);
  env->Mint(spec, fresh, mark, amount);

  spec.escrows.push_back(EscrowStep{0, spender, amount});
  spec.escrows.push_back(EscrowStep{fresh, mark, amount});
  spec.transfers.push_back(TransferStep{0, spender, mark, amount});
  spec.transfers.push_back(TransferStep{fresh, mark, spender, amount});
  return spec;
}

/// (chain, escrow contract) -> (slot index, asset index), over the started
/// deals that `keep` accepts. Receipt evidence is matched against these.
template <typename Keep>
std::map<std::pair<uint32_t, uint32_t>, std::pair<size_t, uint32_t>>
EscrowSites(const std::vector<DealSlot>& slots, Keep keep) {
  std::map<std::pair<uint32_t, uint32_t>, std::pair<size_t, uint32_t>> sites;
  for (size_t i = 0; i < slots.size(); ++i) {
    const DealSlot& slot = slots[i];
    // A deal whose Deploy() failed may have deployed only a prefix of its
    // escrow contracts; it submitted nothing, so it has no evidence to add.
    if (!slot.rec.started || !keep(slot)) continue;
    const std::vector<ContractId>& escrows = slot.runtime->escrow_contracts();
    for (uint32_t a = 0; a < slot.spec.NumAssets(); ++a) {
      sites[{slot.spec.assets[a].chain.v, escrows[a].v}] = {i, a};
    }
  }
  return sites;
}

/// Calls `visit` on every receipt sealed since `cursor` (this batch's
/// window), chain by chain.
template <typename Visit>
void ForEachNewReceipt(const World& world, const std::vector<size_t>& cursor,
                       Visit visit) {
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    const std::vector<Receipt>& all = world.chain(ChainId{c})->receipts();
    for (size_t ri = cursor[c]; ri < all.size(); ++ri) visit(all[ri]);
  }
}

/// Cross-references escrow receipts between deals: a party whose escrow pull
/// failed in one deal while the same token funded its escrow in another is
/// a cross-deal double-spender. Evidence-based — independent of injection.
std::vector<DoubleSpendIncident> DetectDoubleSpends(
    const World& world, const std::vector<DealSlot>& slots,
    const std::vector<size_t>& cursor) {
  auto sites = EscrowSites(slots, [](const DealSlot&) { return true; });

  // (token chain, token contract, party) -> deals where its escrow pull
  // succeeded / failed.
  struct Evidence {
    std::vector<size_t> funded;
    std::vector<size_t> bounced;
  };
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, Evidence> by_token;
  ForEachNewReceipt(world, cursor, [&](const Receipt& r) {
    if (r.tag != "escrow") return;
    auto site = sites.find({r.chain.v, r.contract.v});
    if (site == sites.end()) return;
    auto [deal, asset] = site->second;
    const AssetRef& token = slots[deal].spec.assets[asset];
    Evidence& ev = by_token[{token.chain.v, token.token.v, r.sender.v}];
    (r.status.ok() ? ev.funded : ev.bounced).push_back(deal);
  });

  std::vector<DoubleSpendIncident> incidents;
  std::set<std::pair<size_t, size_t>> seen;
  for (const auto& [key, ev] : by_token) {
    for (size_t loser : ev.bounced) {
      for (size_t winner : ev.funded) {
        if (winner == loser || !seen.insert({loser, winner}).second) continue;
        DoubleSpendIncident incident;
        incident.loser_deal = slots[loser].rec.index;
        incident.winner_deal = slots[winner].rec.index;
        incident.party = std::get<2>(key);
        incident.seed = slots[loser].rec.seed;
        incidents.push_back(incident);
      }
    }
  }
  std::sort(incidents.begin(), incidents.end(),
            [](const DoubleSpendIncident& a, const DoubleSpendIncident& b) {
              return std::tie(a.loser_deal, a.winner_deal) <
                     std::tie(b.loser_deal, b.winner_deal);
            });
  return incidents;
}

/// Marks `slot` as touched by its deviating party `adversary`.
void Taint(DealSlot* slot, PartyId adversary) {
  slot->has_adversary = true;
  slot->adversary = adversary;
  slot->rec.tainted = true;
}

/// The fold every fingerprint in the engine starts from.
constexpr uint64_t kFpInit = 0x452821E638D01377ULL;

/// Block production period of every chain, pool and CBC shards alike.
constexpr Tick kBlockInterval = 10;
/// Per-deal shape ranges, drawn from the deal's derived seed. The lower
/// bound on assets is an option (TrafficOptions::min_assets).
constexpr size_t kMinParties = 2;
constexpr size_t kMaxParties = 4;
constexpr size_t kMaxAssets = 3;
/// Extra transfer hops beyond the n + (m-1) well-formedness floor.
constexpr size_t kExtraTransfers = 2;

/// Snapshot envelope framing.
constexpr char kSnapshotMagic[8] = {'X', 'D', 'S', 'N', 'A', 'P', '0', '1'};
/// Payload layout version; FromSnapshot rejects every other one.
constexpr uint32_t kSnapshotVersion = 2;

Status ValidateServiceOptions(const TrafficOptions& options) {
  if (options.deals_per_epoch == 0) {
    return Status::InvalidArgument(
        "service mode requires deals_per_epoch > 0");
  }
  return Status::OK();
}

/// Order-sensitive fold over every workload-defining option. Stamped into
/// the snapshot envelope so a restore under different options is rejected
/// instead of silently diverging. num_threads is deliberately excluded:
/// validation threading must not affect results, and restoring under a
/// different thread count is a supported (and tested) configuration.
uint64_t OptionsFingerprint(const TrafficOptions& o) {
  uint64_t fp = 0x9E3779B97F4A7C15ULL;
  auto mix = [&fp](uint64_t v) { fp = MixFingerprint(fp, v); };
  mix(o.base_seed);
  mix(o.num_deals);
  mix(o.num_chains);
  mix(o.cbc_shards);
  mix(o.cbc_xshard_every);
  mix(o.cbc_reconfig_times.size());
  for (Tick t : o.cbc_reconfig_times) mix(t);
  mix(o.stale_proof_deals.size());
  for (size_t d : o.stale_proof_deals) mix(d);
  mix(o.block_capacity);
  mix(o.admission_gap);
  mix(o.delta);
  mix(static_cast<uint64_t>(o.arrival));
  mix(static_cast<uint64_t>(o.mean_interarrival * 1024.0));
  mix(o.admission.enabled ? 1 : 0);
  mix(o.admission.max_scheduler_backlog);
  mix(o.admission.max_chain_occupancy);
  mix(o.admission.retry_delay);
  mix(o.admission.max_retries);
  mix(o.admission.broker_gate ? 1 : 0);
  mix(o.min_assets);
  mix(o.nft_every);
  mix(o.protocol_mix.size());
  for (Protocol p : o.protocol_mix) mix(static_cast<uint64_t>(p));
  mix(o.double_spend_deals.size());
  for (size_t d : o.double_spend_deals) mix(d);
  mix(o.offline_party_deals.size());
  for (size_t d : o.offline_party_deals) mix(d);
  mix(o.watchtower_every);
  mix(o.brokers.num_brokers);
  mix(o.brokers.broker_every);
  mix(o.brokers.working_capital);
  mix(o.brokers.inventory);
  mix(o.brokers.min_units);
  mix(o.brokers.max_units);
  mix(o.brokers.unit_price);
  mix(o.brokers.unit_margin);
  mix(o.brokers.hop_depth);
  mix(o.brokers.margin_slope);
  mix(o.fullscan_oracle ? 1 : 0);
  mix(o.deals_per_epoch);
  mix(o.tower_crash_every);
  mix(o.tower_crash_after);
  mix(o.tower_recover_after);
  mix(o.broker_crash_times.size());
  for (Tick t : o.broker_crash_times) mix(t);
  mix(o.broker_recover_after);
  return fp;
}

}  // namespace

uint64_t TrafficDealSeed(uint64_t base_seed, uint64_t deal_index) {
  SplitMix64 base(base_seed ^ 0x7261666669636BULL);  // "traffick" stream
  SplitMix64 mixed(base.Next() ^
                   (deal_index * 0xD1B54A32D192ED03ULL +
                    0x9E3779B97F4A7C15ULL));
  uint64_t seed = mixed.Next();
  return seed == 0 ? 1 : seed;
}

/// The one traffic engine. It owns the World, the shared chain pool, the
/// BrokerPool, the CbcService, the protocol drivers and the watchtowers, and
/// runs deals in batches: RunTraffic is one batch of num_deals, and every
/// TrafficService epoch is the next batch of deals_per_epoch.
struct TrafficService::Impl {
  /// What one batch produced beyond its EpochReport: the per-deal records,
  /// incidents and congestion peaks that RunTraffic reports.
  struct Batch {
    EpochReport epoch;
    std::vector<TrafficDealRecord> deals;
    std::vector<DoubleSpendIncident> double_spends;
    AdmissionStats admission;
    size_t peak_backlog = 0;
    Tick peak_backlog_at = 0;
  };

  /// Derives the option-only state and an empty World; BuildFresh or a
  /// snapshot restore fills it.
  explicit Impl(const TrafficOptions& o);

  /// Populates a fresh World: pool chains, BrokerPool, CbcService and the
  /// tower operator register in that order, then every validator
  /// reconfiguration and broker crash is scheduled as a durable event, so
  /// it survives a checkpoint and re-fires at its original (time, seq).
  void BuildFresh();
  void RegisterHandlers();
  CbcService::Options CbcOptions() const;
  void MakeCbcDriver();

  /// Runs deals [next_deal, next_deal + count): generates them, deploys
  /// them (inline, or through admission events when the controller is on),
  /// drives the World to its quiescent boundary, scans this batch's
  /// receipts for evidence, validates, and folds the epoch fingerprint.
  Batch RunBatch(size_t count);
  Result<Bytes> DoCheckpoint();
  ServiceReport BuildFinal() const;

  TrafficOptions options;
  size_t num_chains = 1;
  std::vector<Protocol> mix;
  bool any_cbc = false;
  std::set<size_t> double_spend;
  std::set<size_t> offline;
  std::set<size_t> stale_proof;

  std::unique_ptr<DealEnv> env;
  std::vector<ChainId> pool;
  std::unique_ptr<BrokerPool> broker_pool;
  std::unique_ptr<CbcService> cbc_service;
  TimelockDriver timelock_driver;
  std::unique_ptr<CbcDriver> cbc_driver;
  /// Towers armed this session; old towers stay subscribed but are inert
  /// (their tags never recur).
  std::vector<std::unique_ptr<Watchtower>> towers;
  PartyId tower_operator;

  // --- cross-batch state (everything here lands in the checkpoint) ---
  size_t next_deal = 0;
  size_t epochs_run = 0;
  uint64_t towers_armed = 0;
  uint64_t cbc_seen = 0;
  uint64_t cumulative_fp = kFpInit;
  size_t total_timelock = 0;
  size_t total_cbc = 0;
  size_t total_broker_deals = 0;
  size_t total_cross_shard = 0;
  uint64_t total_messages = 0;
  Tick makespan = 0;
  std::vector<EpochReport> reports;
  std::vector<TrafficViolation> violations;
  std::vector<BrokerDealOutcome> outcomes;

  /// Per-chain scan-start index: each seal scans only receipts its batch
  /// produced. NOT serialized — a restored chain starts with an empty
  /// receipt vector, so both paths scan exactly the new batch's receipts.
  std::vector<size_t> receipt_cursor;
};

TrafficService::Impl::Impl(const TrafficOptions& o) : options(o) {
  num_chains = std::max<size_t>(1, options.num_chains);
  mix = options.protocol_mix.empty()
            ? std::vector<Protocol>{Protocol::kTimelock}
            : options.protocol_mix;
  for (Protocol p : mix) any_cbc = any_cbc || p == Protocol::kCbc;
  double_spend = std::set<size_t>(options.double_spend_deals.begin(),
                                  options.double_spend_deals.end());
  offline = std::set<size_t>(options.offline_party_deals.begin(),
                             options.offline_party_deals.end());
  stale_proof = std::set<size_t>(options.stale_proof_deals.begin(),
                                 options.stale_proof_deals.end());
  EnvConfig env_config;
  env_config.seed = options.base_seed;
  env_config.block_interval = kBlockInterval;
  env = std::make_unique<DealEnv>(std::move(env_config));
}

void TrafficService::Impl::BuildFresh() {
  World& world = env->world();
  // The shared chain pool every deal's assets are multiplexed onto.
  for (size_t c = 0; c < num_chains; ++c) {
    ChainId id = env->AddChain("pool-" + std::to_string(c));
    world.chain(id)->set_max_txs_per_block(options.block_capacity);
    pool.push_back(id);
  }
  // B shared broker identities with finite working capital and commodity
  // inventory, deals round-robined over them. Inert when num_brokers == 0
  // (no parties, tokens, or RNG draws).
  broker_pool = std::make_unique<BrokerPool>(env.get(), options.brokers, pool);
  // The certified backend all CBC deals execute against: S shards, each a
  // chain + validator set of its own. With S = 1 this is exactly §6's single
  // shared CBC.
  if (any_cbc) {
    cbc_service = std::make_unique<CbcService>(&world, CbcOptions());
    MakeCbcDriver();
  }
  // One operator identity for every watchtower.
  if (options.watchtower_every > 0) {
    tower_operator = env->AddParty("watchtower");
  }
  receipt_cursor.assign(world.num_chains(), 0);
  RegisterHandlers();

  Scheduler& sched = world.scheduler();
  if (cbc_service != nullptr) {
    for (Tick t : options.cbc_reconfig_times) {
      for (size_t s = 0; s < cbc_service->num_shards(); ++s) {
        sched.ScheduleDurableAt(t, EventLabel{}, "cbc-reconfig", s);
      }
    }
  }
  if (broker_pool->enabled() && !options.broker_crash_times.empty()) {
    const size_t num_brokers = broker_pool->num_brokers();
    for (size_t i = 0; i < options.broker_crash_times.size(); ++i) {
      const uint64_t b = i % num_brokers;
      sched.ScheduleDurableAt(options.broker_crash_times[i], EventLabel{},
                              "broker-crash", b);
      if (options.broker_recover_after > 0) {
        sched.ScheduleDurableAt(
            options.broker_crash_times[i] + options.broker_recover_after,
            EventLabel{}, "broker-recover", b);
      }
    }
  }
}

void TrafficService::Impl::RegisterHandlers() {
  Scheduler& sched = env->world().scheduler();
  Impl* self = this;
  // At each reconfiguration tick every shard rotates its validator set
  // (epoch + 1). Deals escrowed before the boundary still settle: their
  // decide proofs chain the new epochs' certificates through the service's
  // reconfiguration history.
  sched.RegisterDurableHandler("cbc-reconfig", [self](uint64_t shard) {
    if (self->cbc_service != nullptr) {
      self->cbc_service->Reconfigure(static_cast<size_t>(shard));
    }
  });
  // A broker crash loses her in-memory book; a recovery rebuilds it from
  // on-chain escrow evidence.
  sched.RegisterDurableHandler("broker-crash", [self](uint64_t b) {
    self->broker_pool->CrashBroker(static_cast<size_t>(b));
  });
  sched.RegisterDurableHandler("broker-recover", [self](uint64_t b) {
    self->broker_pool->RecoverBroker(static_cast<size_t>(b));
  });
}

CbcService::Options TrafficService::Impl::CbcOptions() const {
  CbcService::Options service_options;
  service_options.num_shards = std::max<size_t>(1, options.cbc_shards);
  service_options.f = 1;
  service_options.chain_name = "cbc";
  service_options.validator_seed =
      "traffic-" + std::to_string(options.base_seed);
  service_options.block_interval = kBlockInterval;
  service_options.block_capacity = options.block_capacity;
  return service_options;
}

void TrafficService::Impl::MakeCbcDriver() {
  // The schedule carries options.delta into both protocols; keep the §6
  // "wait at least Δ before rescinding" precondition satisfied when the
  // workload asks for a Δ above the stock patience.
  CbcDriver::Options cbc_options;
  cbc_options.abort_patience =
      std::max(cbc_options.abort_patience, options.delta);
  cbc_driver = std::make_unique<CbcDriver>(cbc_service.get(), cbc_options);
}

TrafficService::Impl::Batch TrafficService::Impl::RunBatch(size_t count) {
  World& world = env->world();
  Scheduler& sched = world.scheduler();
  const size_t first = next_deal;
  const Tick base = world.now();

  // The global arrival schedule is a pure function of (process, base_seed)
  // over the deal-index prefix. Each deal arrives its schedule offset from
  // the previous deal's arrival (from 0 for deal 0) after the batch's start,
  // so batch 0 keeps the schedule as built and a restored run re-derives
  // the same offsets as one that ran straight through.
  const std::vector<Tick> arrivals = BuildArrivalSchedule(
      options.arrival, first + count, options.base_seed,
      options.arrival == ArrivalProcess::kFixedStagger
          ? static_cast<double>(options.admission_gap)
          : options.mean_interarrival);
  const Tick anchor = first == 0 ? 0 : arrivals[first - 1];

  // Runtimes and checkers live exactly as long as the batch: every deal in
  // it settles before the seal, and the broker pool prunes every escrow-view
  // pointer at the boundary, so nothing dangles into the next batch.
  Arena arena;
  std::vector<DealSlot> slots(count);

  // Anchors slot i's schedule at `admit_time` and deploys it: inline during
  // generation, or from an admission event when the controller is on.
  auto deploy_deal = [this, &world, &slots, &arena, first](size_t i,
                                                           Tick admit_time) {
    DealSlot& slot = slots[i];
    TrafficDealRecord& rec = slot.rec;
    rec.admitted_at = admit_time;

    // One shifted schedule drives either protocol. Deal tags are GLOBAL
    // (index + 1) so gas attribution and observation stay collision-free
    // across the engine's lifetime.
    DealTimings timings = DealTimings::DefaultsFor(rec.protocol);
    timings.ShiftBy(admit_time);
    timings.delta = options.delta;
    timings.deal_tag = static_cast<uint64_t>(first + i) + 1;

    ProtocolDriver& driver = rec.protocol == Protocol::kCbc
                                 ? static_cast<ProtocolDriver&>(*cbc_driver)
                                 : timelock_driver;
    slot.runtime = driver.CreateDealIn(&arena, &world, slot.spec, timings,
                                       &slot.factory);
    Status started = slot.runtime->Deploy();
    if (!started.ok()) {
      rec.violation = "start-failed: " + started.ToString();
      return;
    }
    slot.checker = arena.Create<DealChecker>(
        &world, slot.spec, slot.runtime->escrow_contracts(),
        timings.deal_tag);
    if (rec.broker != 0) {
      // The brokers' balances move with every concurrent deal they are in;
      // their per-deal token expectations are undefined. Solvency is
      // asserted across the whole deal set by the portfolio check — every
      // hop of a chain deal is such a shared party.
      for (PartyId p : broker_pool->SharedPartiesOf(first + i)) {
        slot.checker->MarkSharedParty(p);
      }
    }
    slot.checker->CaptureInitial();
    rec.started = true;
  };

  // Installs slot i's spec and records its shape. For a CBC deal it also
  // resolves where the assets land (CbcService::PlaceAssets) and whether
  // they span shards — the same resolution the deal's own CbcRun performs
  // at deploy time.
  auto set_spec = [this, &slots](size_t i, DealSpec spec) {
    DealSlot& slot = slots[i];
    TrafficDealRecord& rec = slot.rec;
    slot.spec = std::move(spec);
    rec.parties = slot.spec.NumParties();
    rec.assets = slot.spec.NumAssets();
    rec.transfers = slot.spec.NumTransfers();
    if (rec.protocol != Protocol::kCbc || cbc_service == nullptr ||
        slot.spec.assets.empty()) {
      return;
    }
    std::vector<ChainId> asset_chains;
    asset_chains.reserve(slot.spec.assets.size());
    for (const AssetRef& a : slot.spec.assets) asset_chains.push_back(a.chain);
    rec.cross_shard = cbc_service->PlaceAssets(slot.spec.deal_id, asset_chains)
                          .cross_shard();
  };
  // A broker deal's spec, priced from the pool's live state.
  auto set_broker_spec = [this, &slots, &set_spec](size_t i) {
    TrafficDealRecord& rec = slots[i].rec;
    set_spec(i, broker_pool->MakeDeal(rec.index, rec.seed));
    rec.broker_capital_need = broker_pool->CapitalNeed(rec.index);
    rec.broker_inventory_need = broker_pool->InventoryNeed(rec.index);
  };

  // Dynamic pricing defers broker spec generation to the admission event
  // (margins priced from live occupancy); without the controller there is
  // no admission event, so generation stays eager.
  const bool defer_broker =
      broker_pool->DynamicPricing() && options.admission.enabled;

  // --- generation: sequential by construction (mutates the World), indexed
  //     globally so derived seeds, protocol mix, injections and broker
  //     round-robin continue the stream every earlier batch drew from ---
  for (size_t i = 0; i < count; ++i) {
    const size_t d = first + i;
    DealSlot& slot = slots[i];
    TrafficDealRecord& rec = slot.rec;
    rec.index = d;
    rec.seed = TrafficDealSeed(options.base_seed, d);
    rec.protocol = mix[d % mix.size()];
    rec.arrival_at = base + (arrivals[d] - anchor);
    rec.admitted_at = rec.arrival_at;
    Rng rng(rec.seed);

    // Double-spend hosts must live in the same batch (the injected swap
    // re-promises the host's tokens; the host's slot must still be open).
    const bool inject = double_spend.count(d) > 0 && i > 0 &&
                        double_spend.count(d - 1) == 0;
    if (inject) {
      set_spec(i, BuildDoubleSpendSpec(env.get(), slots[i - 1], d, rec.seed,
                                       num_chains, &rng));
      Taint(&slot, slot.spec.parties[0]);
      Taint(&slots[i - 1], slot.spec.parties[0]);
    } else if (broker_pool->IsBrokerDeal(d)) {
      // Figure-1 shape: this deal's middle party is a shared broker (or a
      // chain of them) whose capital/inventory the deal locks in flight.
      rec.broker = broker_pool->BrokerOf(d) + 1;
      slot.deferred_broker = defer_broker;  // spec built at first admission
      if (!defer_broker) set_broker_spec(i);
    } else {
      GenParams gen;
      gen.n_parties = kMinParties + rng.Below(kMaxParties - kMinParties + 1);
      gen.m_assets =
          options.min_assets + rng.Below(kMaxAssets - options.min_assets + 1);
      gen.t_transfers =
          gen.n_parties + (gen.m_assets - 1) + rng.Below(kExtraTransfers + 1);
      gen.nft_every = options.nft_every;
      gen.seed = rec.seed;
      gen.name_prefix = "d" + std::to_string(d) + "-";
      const bool xshard = rec.protocol == Protocol::kCbc &&
                          options.cbc_xshard_every > 0 &&
                          cbc_service != nullptr &&
                          cbc_seen % options.cbc_xshard_every == 0;
      // Cross-shard placement draws a contiguous window of the service's
      // SHARD chains, so assets settle on shards other than the deal's home
      // shard via portable DecideProofs; otherwise a contiguous window of
      // the pool, so deals overlap on chains.
      const size_t width = xshard ? cbc_service->num_shards() : num_chains;
      const size_t span = std::min(gen.m_assets, width);
      const size_t start = rng.Below(width);
      for (size_t j = 0; j < span; ++j) {
        gen.use_chains.push_back(xshard
                                     ? cbc_service->chain((start + j) % width)
                                     : pool[(start + j) % width]);
      }
      gen.num_chains = span;
      set_spec(i, GenerateRandomDeal(env.get(), gen));
    }
    if (rec.protocol == Protocol::kCbc) ++cbc_seen;

    if (rec.protocol == Protocol::kHtlc) {
      rec.violation = "start-failed: htlc has no traffic driver";
      continue;
    }

    // The per-deal factory: injections, watchtower arming, broker hooks.
    TrafficPartyFactory& factory = slot.factory;
    if (offline.count(d) > 0 && !inject &&
        rec.protocol == Protocol::kTimelock && !slot.spec.escrows.empty()) {
      factory.offline = true;
      factory.offline_party = slot.spec.escrows[0].party;
      Taint(&slot, factory.offline_party);
    }
    if (stale_proof.count(d) > 0 && !inject && rec.broker == 0 &&
        rec.protocol == Protocol::kCbc && !slot.spec.escrows.empty()) {
      // Cross-shard replay: the first escrower presents the home shard's
      // decide evidence re-declared for the wrong shard. The escrows must
      // reject it ("decide: shard mismatch"); the replayer is this deal's
      // deviating party.
      factory.stale_proof = true;
      factory.stale_party = slot.spec.escrows[0].party;
      Taint(&slot, factory.stale_party);
    }
    if (options.watchtower_every > 0 &&
        d % options.watchtower_every == 0 &&
        rec.protocol == Protocol::kTimelock) {
      factory.arm_tower = true;
      factory.world = &world;
      factory.tower_operator = tower_operator;
      factory.towers = &towers;
      factory.tower_crash_every = options.tower_crash_every;
      factory.tower_crash_after = options.tower_crash_after;
      factory.tower_recover_after = options.tower_recover_after;
      factory.towers_armed = &towers_armed;
    }
    if (rec.broker != 0) {
      factory.broker_pool = broker_pool.get();
      factory.deal_index = d;
    }
    if (!options.admission.enabled) deploy_deal(i, rec.admitted_at);
  }

  // --- admission events: with the controller on, deployment itself moves
  //     onto the scheduler. Each deal's arrival consults the controller
  //     against live backlog/occupancy; over-threshold deals retry after a
  //     delay quantum and are shed once out of retries. Events are created
  //     in index order, so equal-time arrivals stay deterministic, and all
  //     of them fire before the seal, so nothing here is checkpointed. ---
  AdmissionController controller(options.admission, &world);
  if (broker_pool->enabled() && broker_pool->ChainDepth() > 1) {
    // Chain deals register the hop-capital extension signal instead of the
    // single-broker built-in: one short hop blocks the whole chain.
    controller.RegisterSignal(std::make_unique<HopCapitalSignal>(
        broker_pool.get(), options.admission.broker_gate));
  }
  std::function<void(size_t)> admission_event;
  // Arrival and retry events the engine itself has scheduled but that have
  // not fired yet. They sit in the same event queue the controller reads as
  // its backlog signal, so Decide() subtracts them — an open-loop generator
  // must not mistake its own future arrivals for congestion.
  size_t own_admission_events = 0;
  if (options.admission.enabled) {
    const Tick retry_delay =
        options.admission.retry_delay > 0 ? options.admission.retry_delay : 1;
    admission_event = [this, &sched, &slots, &controller, &admission_event,
                       &deploy_deal, &own_admission_events, &set_broker_spec,
                       first, retry_delay](size_t i) {
      --own_admission_events;  // this event just fired
      const size_t d = first + i;
      DealSlot& slot = slots[i];
      TrafficDealRecord& rec = slot.rec;
      // Dynamic pricing: the deferred broker spec is built at the deal's
      // FIRST admission attempt, so each hop's margin is priced from live
      // capital occupancy; retries keep the first-arrival price.
      if (slot.deferred_broker && slot.spec.parties.empty()) {
        set_broker_spec(i);
      }
      // Broker deals carry the capital signal: single-hop deals pass this
      // broker's live free capital/inventory to the broker built-in; chain
      // deals are covered by the registered hop-capital signal instead.
      const bool chain_deal = rec.broker != 0 && broker_pool->ChainDepth() > 1;
      BrokerSignal broker_signal;
      const bool has_broker_signal = rec.broker != 0 && !chain_deal;
      if (has_broker_signal) broker_signal = broker_pool->SignalFor(d);
      AdmissionDecision decision =
          controller.Decide(rec.admission_retries, own_admission_events,
                            has_broker_signal ? &broker_signal : nullptr, d);
      if (decision == AdmissionDecision::kDelay) {
        ++rec.admission_retries;
        ++own_admission_events;
        sched.ScheduleAfter(retry_delay,
                            [&admission_event, i] { admission_event(i); });
        return;
      }
      // The wait this deal's retries cost, whether it is admitted or the
      // policy gave up on it.
      rec.admission_wait = sched.now() - rec.arrival_at;
      if (decision == AdmissionDecision::kShed) {
        rec.shed = true;
        return;
      }
      deploy_deal(i, sched.now());
    };
    for (size_t i = 0; i < count; ++i) {
      if (slots[i].rec.protocol == Protocol::kHtlc) continue;  // no driver
      ++own_admission_events;
      sched.ScheduleAt(slots[i].rec.arrival_at,
                       [&admission_event, i] { admission_event(i); });
    }
  }

  // --- drive to the quiescent boundary: every non-durable event fires
  //     (admission events, tower watches and crash closures included); only
  //     future durable events may remain pending. Durable events whose time
  //     falls inside the batch fire in time order like any other. The step
  //     hook tracks when the backlog peaks. ---
  Batch result;
  sched.SetStepObserver([&result](Tick now, size_t pending) {
    if (pending > result.peak_backlog) {
      result.peak_backlog = pending;
      result.peak_backlog_at = now;
    }
  });
  while (sched.pending() > sched.pending_durable()) sched.Step();
  sched.SetStepObserver(nullptr);
  const Tick sealed_at = world.now();
  receipt_cursor.resize(world.num_chains(), 0);

  // --- differential oracle: the incrementally built receipt indexes must
  //     agree with a from-scratch full scan on every chain ---
  std::vector<uint32_t> index_mismatch_chains;
  if (options.fullscan_oracle) {
    for (uint32_t c = 0; c < world.num_chains(); ++c) {
      if (!world.chain(ChainId{c})->TagIndexMatchesFullScan()) {
        index_mismatch_chains.push_back(c);
      }
    }
  }

  // --- broker over-commitment: a broker whose escrow pull bounced promised
  //     the same finite capital/inventory to too many deals at once. She is
  //     that deal's deviating party, tainted before validation so its clean
  //     abort is judged as the defense it is. Derived from receipts, so any
  //     replay of the same seed taints the same deals. ---
  if (broker_pool->enabled()) {
    auto sites = EscrowSites(
        slots, [](const DealSlot& slot) { return slot.rec.broker != 0; });
    ForEachNewReceipt(world, receipt_cursor, [&](const Receipt& r) {
      if (r.tag != "escrow" || r.status.ok()) return;
      auto it = sites.find({r.chain.v, r.contract.v});
      if (it == sites.end()) return;
      DealSlot& slot = slots[it->second.first];
      PartyId broker = broker_pool->BrokerParty(slot.rec.broker - 1);
      if (r.sender == broker) Taint(&slot, broker);
    });
  }

  // --- cross-shard replay evidence: decide submissions rejected on the
  //     escrow's shard-binding check. The rejections are counted and the
  //     replaying party's deal tainted from the receipts alone. ---
  size_t stale = 0;
  if (cbc_service != nullptr) {
    auto sites = EscrowSites(slots, [](const DealSlot& slot) {
      return slot.rec.protocol == Protocol::kCbc;
    });
    ForEachNewReceipt(world, receipt_cursor, [&](const Receipt& r) {
      if (r.tag != "decide" || r.status.ok() ||
          r.status.ToString().find("shard mismatch") == std::string::npos) {
        return;
      }
      ++stale;
      auto it = sites.find({r.chain.v, r.contract.v});
      if (it != sites.end()) Taint(&slots[it->second.first], r.sender);
    });
  }

  // --- per-deal gas/receipt attribution: tags outside the batch's global
  //     range are leakage (a conformant engine keeps it zero: every deal
  //     settles before its batch seals) ---
  uint64_t untagged = 0;
  ForEachNewReceipt(world, receipt_cursor, [&](const Receipt& r) {
    if (r.deal_tag <= first || r.deal_tag > first + count) {
      untagged += r.gas_used;
      return;
    }
    TrafficDealRecord& rec = slots[r.deal_tag - first - 1].rec;
    rec.gas += r.gas_used;
    ++rec.messages;
  });

  // --- validate: independent per deal, read-only on the World; workers
  //     write into their own slots, so any thread count folds identically ---
  WorkerPool workers(options.num_threads);
  workers.ParallelFor(count, [&slots](size_t i) { ValidateDeal(&slots[i]); });

  result.double_spends = DetectDoubleSpends(world, slots, receipt_cursor);

  // --- seal: fold the epoch fingerprint (a batch header, then every
  //     deal's record, then the batch's evidence), chain it into the
  //     cumulative fold, accumulate totals ---
  EpochReport& epoch = result.epoch;
  epoch.index = epochs_run;
  epoch.first_deal = first;
  epoch.num_deals = count;
  const size_t violations_before = violations.size();

  std::vector<Tick> latencies;
  uint64_t fp = kFpInit;
  fp = MixFingerprint(fp, epochs_run);
  fp = MixFingerprint(fp, first);
  fp = MixFingerprint(fp, count);
  fp = MixFingerprint(fp, base);
  for (DealSlot& slot : slots) {
    TrafficDealRecord& rec = slot.rec;
    ++(rec.protocol == Protocol::kTimelock ? total_timelock : total_cbc);
    epoch.committed += rec.committed ? 1 : 0;
    epoch.aborted += rec.aborted ? 1 : 0;
    epoch.gas += rec.gas;
    total_messages += rec.messages;
    makespan = std::max(makespan, rec.settle_time);
    if (rec.all_settled && rec.settle_time > 0) {
      latencies.push_back(rec.latency);
    }
    if (!rec.violation.empty()) {
      violations.push_back(
          TrafficViolation{rec.index, rec.seed, rec.protocol, rec.violation});
    }
    if (rec.cross_shard) ++total_cross_shard;
    if (rec.broker != 0) {
      ++total_broker_deals;
      rec.price_points = broker_pool->PricePointsOf(rec.index);
      BrokerDealOutcome outcome;
      outcome.deal_index = rec.index;
      outcome.arrival_at = rec.arrival_at;
      outcome.admitted_at = rec.admitted_at;
      outcome.settle_time = rec.settle_time;
      outcome.latency = rec.latency;
      outcome.started = rec.started;
      outcome.committed = rec.committed;
      outcome.aborted = rec.aborted;
      outcome.shed = rec.shed;
      outcome.all_settled = rec.all_settled;
      outcome.gas = rec.gas;
      outcomes.push_back(outcome);
    }

    fp = MixFingerprint(fp, rec.index);
    fp = MixFingerprint(fp, rec.seed);
    fp = MixFingerprint(fp, rec.OutcomeBits());
    fp = MixFingerprint(fp, rec.gas);
    fp = MixFingerprint(fp, rec.messages);
    fp = MixFingerprint(fp, rec.settle_time);
    fp = MixFingerprint(fp, FingerprintString(rec.violation));
    fp = MixFingerprint(fp, rec.arrival_at);
    fp = MixFingerprint(fp, rec.admitted_at);
    fp = MixFingerprint(fp, static_cast<uint64_t>(rec.shed) |
                                static_cast<uint64_t>(rec.admission_retries)
                                    << 1);
    fp = MixFingerprint(fp, rec.admission_wait);
    fp = MixFingerprint(fp, rec.broker);
    fp = MixFingerprint(fp, rec.broker_capital_need);
    fp = MixFingerprint(fp, rec.broker_inventory_need);
    fp = MixFingerprint(fp, rec.price_points.size());
    for (const BrokerPool::PricePoint& pt : rec.price_points) {
      fp = MixFingerprint(fp, pt.occupancy);
      fp = MixFingerprint(fp, pt.margin);
    }
    fp = MixFingerprint(fp, rec.cross_shard ? 1 : 0);
  }
  fp = MixFingerprint(fp, stale);
  fp = MixFingerprint(fp, untagged);
  for (const DoubleSpendIncident& incident : result.double_spends) {
    fp = MixFingerprint(fp, incident.loser_deal);
    fp = MixFingerprint(fp, incident.winner_deal);
    fp = MixFingerprint(fp, incident.party);
  }
  fp = MixFingerprint(fp, sealed_at);
  for (uint32_t c : index_mismatch_chains) {
    violations.push_back(TrafficViolation{
        0, options.base_seed, Protocol::kTimelock,
        "receipt-index-mismatch: chain " + std::to_string(c) +
            " tag index disagrees with full scan"});
  }

  epoch.violations = violations.size() - violations_before;
  epoch.double_spends = result.double_spends.size();
  epoch.stale_decide_rejections = stale;
  epoch.untagged_gas = untagged;
  epoch.latency_p50 = Percentile(latencies, 50);
  epoch.latency_p99 = Percentile(latencies, 99);
  epoch.sealed_at = sealed_at;
  epoch.events_executed = sched.stats().executed;
  epoch.epoch_fingerprint = fp;
  cumulative_fp = MixFingerprint(cumulative_fp, fp);
  epoch.cumulative_fingerprint = cumulative_fp;
  result.admission = controller.stats();

  // --- boundary hygiene: every reservation's deposit has landed or settled
  //     by quiescence, so the pool drops its runtime pointers before the
  //     arena (and the batch's runtimes) die; cursors advance so the next
  //     seal scans only its own window. ---
  broker_pool->PruneAll();
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    receipt_cursor[c] = world.chain(ChainId{c})->receipts().size();
  }
  ++epochs_run;
  next_deal = first + count;
  reports.push_back(epoch);

  result.deals.reserve(count);
  for (DealSlot& slot : slots) result.deals.push_back(std::move(slot.rec));
  return result;
}

TrafficReport RunTraffic(const TrafficOptions& options) {
  TrafficService::Impl engine(options);
  engine.BuildFresh();
  TrafficService::Impl::Batch batch = engine.RunBatch(options.num_deals);
  ServiceReport sealed = engine.BuildFinal();

  TrafficReport report;
  report.num_deals = options.num_deals;
  report.cbc_shards = std::max<size_t>(1, options.cbc_shards);
  report.committed = sealed.committed;
  report.aborted = sealed.aborted;
  report.timelock_deals = sealed.timelock_deals;
  report.cbc_deals = sealed.cbc_deals;
  report.broker_deals = sealed.broker_deals;
  report.broker_hop_depth =
      engine.broker_pool->enabled() ? engine.broker_pool->ChainDepth() : 1;
  report.cross_shard_deals = sealed.cross_shard_deals;
  report.stale_decide_rejections = sealed.stale_decide_rejections;
  report.broker_portfolio_violations = sealed.broker_portfolio_violations;
  report.broker_blocked = batch.admission.broker_blocked;
  report.peak_backlog_seen = batch.admission.peak_backlog_seen;
  report.peak_occupancy_seen = batch.admission.peak_occupancy_seen;
  report.total_gas = sealed.total_gas;
  report.total_messages = sealed.total_messages;
  report.untagged_gas = sealed.untagged_gas;
  report.events_executed = batch.epoch.events_executed;
  report.max_backlog = batch.peak_backlog;
  report.peak_backlog_at = batch.peak_backlog_at;
  report.makespan = sealed.makespan;

  std::vector<Tick> latencies;
  std::vector<uint64_t> gas_values;
  gas_values.reserve(batch.deals.size());
  for (const TrafficDealRecord& rec : batch.deals) {
    if (rec.mixed) ++report.mixed;
    if (rec.shed) ++report.shed;
    if (rec.admitted_at > rec.arrival_at) ++report.delayed_deals;
    report.admission_retries += rec.admission_retries;
    report.max_admission_wait =
        std::max(report.max_admission_wait, rec.admission_wait);
    if (rec.all_settled && rec.settle_time > 0) {
      latencies.push_back(rec.latency);
    }
    gas_values.push_back(rec.gas);
  }
  report.latency_p50 = Percentile(latencies, 50);
  report.latency_p90 = Percentile(latencies, 90);
  report.latency_p99 = Percentile(latencies, 99);
  report.gas_p50 = Percentile(gas_values, 50);
  report.gas_p99 = Percentile(gas_values, 99);
  if (report.makespan > 0) {
    report.deals_per_ktick = 1000.0 * static_cast<double>(report.committed) /
                             static_cast<double>(report.makespan);
  }
  // Offered load: (D-1) inter-arrival gaps over the arrival window.
  if (batch.deals.size() > 1 &&
      batch.deals.back().arrival_at > batch.deals.front().arrival_at) {
    report.offered_per_ktick =
        1000.0 * static_cast<double>(batch.deals.size() - 1) /
        static_cast<double>(batch.deals.back().arrival_at -
                            batch.deals.front().arrival_at);
  }

  report.deals = std::move(batch.deals);
  report.violations = std::move(sealed.violations);
  report.double_spends = std::move(batch.double_spends);
  report.brokers = std::move(sealed.brokers);
  report.fingerprint = sealed.final_fingerprint;
  return report;
}

std::string TrafficReport::Summary() const {
  std::string s;
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "deals=%zu (timelock=%zu cbc=%zu, %zu cbc shard%s) committed=%zu "
      "aborted=%zu mixed=%zu violations=%zu double_spends=%zu\n",
      num_deals, timelock_deals, cbc_deals, cbc_shards,
      cbc_shards == 1 ? "" : "s", committed, aborted, mixed,
      violations.size(), double_spends.size());
  s += line;
  if (shed + delayed_deals + admission_retries > 0) {
    std::snprintf(
        line, sizeof(line),
        "admission: shed=%zu delayed=%zu retries=%zu max_wait=%llu ticks, "
        "peak backlog=%zu, peak chain occupancy=%llu\n",
        shed, delayed_deals, admission_retries,
        static_cast<unsigned long long>(max_admission_wait),
        peak_backlog_seen,
        static_cast<unsigned long long>(peak_occupancy_seen));
    s += line;
  }
  if (cross_shard_deals + stale_decide_rejections > 0) {
    std::snprintf(
        line, sizeof(line),
        "cross-shard: %zu deals spanned >=2 shards, stale decide "
        "rejections=%zu\n",
        cross_shard_deals, stale_decide_rejections);
    s += line;
  }
  if (broker_deals > 0) {
    std::snprintf(
        line, sizeof(line),
        "brokers: %zu brokers hosting %zu deals, portfolio violations=%zu, "
        "blocked admission decisions=%zu\n",
        brokers.size(), broker_deals, broker_portfolio_violations,
        broker_blocked);
    s += line;
    if (broker_hop_depth > 1) {
      std::snprintf(
          line, sizeof(line),
          "  hop chains: every broker deal is a chain of %zu "
          "capital-fronting brokers settling atomically\n",
          broker_hop_depth);
      s += line;
    }
    for (const BrokerRecord& b : brokers) {
      std::snprintf(
          line, sizeof(line),
          "  broker %zu: deals=%zu committed=%zu aborted=%zu shed=%zu "
          "delayed=%zu gas=%llu lat p50/max=%llu/%llu, peak capital %llu/"
          "%llu, peak inventory %llu/%llu, net %+lld coins %+lld units%s\n",
          b.index, b.deals, b.committed, b.aborted, b.shed, b.delayed,
          static_cast<unsigned long long>(b.gas),
          static_cast<unsigned long long>(b.latency_p50),
          static_cast<unsigned long long>(b.latency_max),
          static_cast<unsigned long long>(b.peak_capital_in_use),
          static_cast<unsigned long long>(b.capital_limit),
          static_cast<unsigned long long>(b.peak_inventory_in_use),
          static_cast<unsigned long long>(b.inventory_limit),
          static_cast<long long>(b.coin_delta),
          static_cast<long long>(b.inventory_delta),
          b.portfolio_ok ? "" : "  PORTFOLIO VIOLATION");
      s += line;
    }
  }
  std::snprintf(
      line, sizeof(line),
      "makespan=%llu ticks, offered %.2f arrivals/ktick, goodput %.2f "
      "committed deals/ktick, latency p50/p90/p99 = %llu/%llu/%llu ticks\n",
      static_cast<unsigned long long>(makespan), offered_per_ktick,
      deals_per_ktick,
      static_cast<unsigned long long>(latency_p50),
      static_cast<unsigned long long>(latency_p90),
      static_cast<unsigned long long>(latency_p99));
  s += line;
  std::snprintf(
      line, sizeof(line),
      "gas total=%llu untagged=%llu p50=%llu p99=%llu, messages=%llu, "
      "events=%llu, max_backlog=%zu (at tick %llu)\nfingerprint=%016llx\n",
      static_cast<unsigned long long>(total_gas),
      static_cast<unsigned long long>(untagged_gas),
      static_cast<unsigned long long>(gas_p50),
      static_cast<unsigned long long>(gas_p99),
      static_cast<unsigned long long>(total_messages),
      static_cast<unsigned long long>(events_executed), max_backlog,
      static_cast<unsigned long long>(peak_backlog_at),
      static_cast<unsigned long long>(fingerprint));
  s += line;
  for (const TrafficViolation& v : violations) {
    std::snprintf(line, sizeof(line),
                  "VIOLATION deal=%zu seed=%llu protocol=%s: %s\n",
                  v.deal_index, static_cast<unsigned long long>(v.seed),
                  ToString(v.protocol), v.what.c_str());
    s += line;
  }
  for (const DoubleSpendIncident& i : double_spends) {
    std::snprintf(line, sizeof(line),
                  "DOUBLE-SPEND party=%u funded deal %zu, bounced in deal "
                  "%zu (seed=%llu)\n",
                  i.party, i.winner_deal, i.loser_deal,
                  static_cast<unsigned long long>(i.seed));
    s += line;
  }
  return s;
}

TrafficService::TrafficService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
TrafficService::~TrafficService() = default;

Result<std::unique_ptr<TrafficService>> TrafficService::Create(
    const TrafficOptions& options) {
  XDEAL_RETURN_IF_ERROR(ValidateServiceOptions(options));
  auto impl = std::make_unique<Impl>(options);
  impl->BuildFresh();
  return std::unique_ptr<TrafficService>(new TrafficService(std::move(impl)));
}

Result<Bytes> TrafficService::Impl::DoCheckpoint() {
  World& world = env->world();
  broker_pool->PruneAll();

  ByteWriter body;
  ByteWriter world_writer;
  Status world_ok = world.Checkpoint(&world_writer);
  if (!world_ok.ok()) return world_ok;
  body.Blob(world_writer.Take());

  body.U64(next_deal)
      .U64(epochs_run)
      .U64(towers_armed)
      .U64(cbc_seen)
      .U64(cumulative_fp)
      .U64(total_timelock)
      .U64(total_cbc)
      .U64(total_broker_deals)
      .U64(total_cross_shard)
      .U64(total_messages)
      .U64(makespan)
      .U32(tower_operator.v);

  body.U32(static_cast<uint32_t>(pool.size()));
  for (ChainId id : pool) body.U32(id.v);

  body.U32(static_cast<uint32_t>(reports.size()));
  for (const EpochReport& e : reports) {
    body.U64(e.index)
        .U64(e.first_deal)
        .U64(e.num_deals)
        .U64(e.committed)
        .U64(e.aborted)
        .U64(e.violations)
        .U64(e.double_spends)
        .U64(e.stale_decide_rejections)
        .U64(e.gas)
        .U64(e.untagged_gas)
        .U64(e.latency_p50)
        .U64(e.latency_p99)
        .U64(e.sealed_at)
        .U64(e.events_executed)
        .U64(e.epoch_fingerprint)
        .U64(e.cumulative_fingerprint);
  }

  body.U32(static_cast<uint32_t>(violations.size()));
  for (const TrafficViolation& v : violations) {
    body.U64(v.deal_index)
        .U64(v.seed)
        .U8(static_cast<uint8_t>(v.protocol))
        .Str(v.what);
  }

  body.U32(static_cast<uint32_t>(outcomes.size()));
  for (const BrokerDealOutcome& o : outcomes) {
    body.U64(o.deal_index)
        .U64(o.arrival_at)
        .U64(o.admitted_at)
        .U64(o.settle_time)
        .U64(o.latency)
        .U64(o.gas)
        .Bool(o.started)
        .Bool(o.committed)
        .Bool(o.aborted)
        .Bool(o.shed)
        .Bool(o.all_settled);
  }

  body.Bool(cbc_service != nullptr);
  if (cbc_service != nullptr) {
    std::vector<uint32_t> shard_epochs = cbc_service->ShardEpochs();
    body.U32(static_cast<uint32_t>(shard_epochs.size()));
    for (uint32_t e : shard_epochs) body.U32(e);
  }

  body.Bool(broker_pool->enabled());
  if (broker_pool->enabled()) {
    ByteWriter pool_writer;
    Status pool_ok = broker_pool->Checkpoint(&pool_writer);
    if (!pool_ok.ok()) return pool_ok;
    body.Blob(pool_writer.Take());
  }

  Bytes payload = body.Take();
  Hash256 digest = Sha256Digest(payload);
  ByteWriter envelope;
  envelope.Raw(reinterpret_cast<const uint8_t*>(kSnapshotMagic),
               sizeof(kSnapshotMagic));
  envelope.U32(kSnapshotVersion);
  envelope.U64(OptionsFingerprint(options));
  envelope.Blob(payload);
  envelope.Raw(digest.bytes.data(), digest.bytes.size());
  return envelope.Take();
}

Result<std::unique_ptr<TrafficService>> TrafficService::FromSnapshot(
    const TrafficOptions& options, const Bytes& snapshot) {
  XDEAL_RETURN_IF_ERROR(ValidateServiceOptions(options));

  // --- envelope: every rejection is a distinct, versioned error; a
  //     corrupted snapshot must never restore into a silently diverging
  //     run ---
  ByteReader envelope(snapshot);
  XDEAL_ASSIGN_OR_RETURN(Bytes magic, envelope.Raw(sizeof(kSnapshotMagic)));
  if (std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument(
        "snapshot rejected: bad magic (not an XDSNAP stream)");
  }
  XDEAL_ASSIGN_OR_RETURN(uint32_t version, envelope.U32());
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "snapshot rejected: unsupported snapshot version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kSnapshotVersion) + ")");
  }
  XDEAL_ASSIGN_OR_RETURN(uint64_t options_fp, envelope.U64());
  if (options_fp != OptionsFingerprint(options)) {
    return Status::InvalidArgument(
        "snapshot rejected: options fingerprint mismatch (the snapshot was "
        "taken under different TrafficOptions)");
  }
  XDEAL_ASSIGN_OR_RETURN(Bytes payload, envelope.Blob());
  XDEAL_ASSIGN_OR_RETURN(Bytes digest, envelope.Raw(32));
  Hash256 expected = Sha256Digest(payload);
  if (std::memcmp(digest.data(), expected.bytes.data(), 32) != 0) {
    return Status::InvalidArgument(
        "snapshot rejected: payload digest mismatch (corrupted snapshot)");
  }
  if (!envelope.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot rejected: trailing bytes after the payload digest");
  }

  auto owned = std::make_unique<Impl>(options);
  Impl& im = *owned;
  World& world = im.env->world();

  ByteReader body(payload);
  XDEAL_ASSIGN_OR_RETURN(Bytes world_blob, body.Blob());
  ByteReader world_reader(world_blob);
  // Layering: the chain library cannot name contract types, so the caller
  // supplies the factory. Only token ledgers snapshot full state; every
  // other contract belonged to a settled deal and restores as a retired
  // placeholder (preserving ContractId numbering).
  Status restored = world.Restore(
      world_reader, [](const std::string& type) -> std::unique_ptr<Contract> {
        if (type == "FungibleToken") {
          return std::make_unique<FungibleToken>("", PartyId{});
        }
        return nullptr;
      });
  if (!restored.ok()) return restored;

  XDEAL_ASSIGN_OR_RETURN(uint64_t next_deal, body.U64());
  XDEAL_ASSIGN_OR_RETURN(uint64_t epochs_run, body.U64());
  XDEAL_ASSIGN_OR_RETURN(im.towers_armed, body.U64());
  XDEAL_ASSIGN_OR_RETURN(im.cbc_seen, body.U64());
  XDEAL_ASSIGN_OR_RETURN(im.cumulative_fp, body.U64());
  im.next_deal = static_cast<size_t>(next_deal);
  im.epochs_run = static_cast<size_t>(epochs_run);
  XDEAL_ASSIGN_OR_RETURN(uint64_t total_timelock, body.U64());
  XDEAL_ASSIGN_OR_RETURN(uint64_t total_cbc, body.U64());
  XDEAL_ASSIGN_OR_RETURN(uint64_t total_broker_deals, body.U64());
  XDEAL_ASSIGN_OR_RETURN(uint64_t total_cross_shard, body.U64());
  im.total_timelock = static_cast<size_t>(total_timelock);
  im.total_cbc = static_cast<size_t>(total_cbc);
  im.total_broker_deals = static_cast<size_t>(total_broker_deals);
  im.total_cross_shard = static_cast<size_t>(total_cross_shard);
  XDEAL_ASSIGN_OR_RETURN(im.total_messages, body.U64());
  XDEAL_ASSIGN_OR_RETURN(im.makespan, body.U64());
  XDEAL_ASSIGN_OR_RETURN(uint32_t tower_op, body.U32());
  im.tower_operator = PartyId{tower_op};

  XDEAL_ASSIGN_OR_RETURN(uint32_t pool_size, body.U32());
  for (uint32_t c = 0; c < pool_size; ++c) {
    XDEAL_ASSIGN_OR_RETURN(uint32_t id, body.U32());
    if (id >= world.num_chains()) {
      return Status::InvalidArgument(
          "snapshot rejected: pool chain id out of range");
    }
    im.pool.push_back(ChainId{id});
  }

  XDEAL_ASSIGN_OR_RETURN(uint32_t num_reports, body.U32());
  for (uint32_t i = 0; i < num_reports; ++i) {
    EpochReport e;
    XDEAL_ASSIGN_OR_RETURN(uint64_t index, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t first_deal, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t num_deals, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t committed, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t aborted, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t num_violations, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t num_double_spends, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint64_t stale, body.U64());
    e.index = static_cast<size_t>(index);
    e.first_deal = static_cast<size_t>(first_deal);
    e.num_deals = static_cast<size_t>(num_deals);
    e.committed = static_cast<size_t>(committed);
    e.aborted = static_cast<size_t>(aborted);
    e.violations = static_cast<size_t>(num_violations);
    e.double_spends = static_cast<size_t>(num_double_spends);
    e.stale_decide_rejections = static_cast<size_t>(stale);
    XDEAL_ASSIGN_OR_RETURN(e.gas, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.untagged_gas, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.latency_p50, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.latency_p99, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.sealed_at, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.events_executed, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.epoch_fingerprint, body.U64());
    XDEAL_ASSIGN_OR_RETURN(e.cumulative_fingerprint, body.U64());
    im.reports.push_back(std::move(e));
  }

  XDEAL_ASSIGN_OR_RETURN(uint32_t num_violations, body.U32());
  for (uint32_t i = 0; i < num_violations; ++i) {
    TrafficViolation v;
    XDEAL_ASSIGN_OR_RETURN(uint64_t deal_index, body.U64());
    v.deal_index = static_cast<size_t>(deal_index);
    XDEAL_ASSIGN_OR_RETURN(v.seed, body.U64());
    XDEAL_ASSIGN_OR_RETURN(uint8_t protocol, body.U8());
    v.protocol = static_cast<Protocol>(protocol);
    XDEAL_ASSIGN_OR_RETURN(v.what, body.Str());
    im.violations.push_back(std::move(v));
  }

  XDEAL_ASSIGN_OR_RETURN(uint32_t num_outcomes, body.U32());
  for (uint32_t i = 0; i < num_outcomes; ++i) {
    BrokerDealOutcome o;
    XDEAL_ASSIGN_OR_RETURN(uint64_t deal_index, body.U64());
    o.deal_index = static_cast<size_t>(deal_index);
    XDEAL_ASSIGN_OR_RETURN(o.arrival_at, body.U64());
    XDEAL_ASSIGN_OR_RETURN(o.admitted_at, body.U64());
    XDEAL_ASSIGN_OR_RETURN(o.settle_time, body.U64());
    XDEAL_ASSIGN_OR_RETURN(o.latency, body.U64());
    XDEAL_ASSIGN_OR_RETURN(o.gas, body.U64());
    XDEAL_ASSIGN_OR_RETURN(o.started, body.Bool());
    XDEAL_ASSIGN_OR_RETURN(o.committed, body.Bool());
    XDEAL_ASSIGN_OR_RETURN(o.aborted, body.Bool());
    XDEAL_ASSIGN_OR_RETURN(o.shed, body.Bool());
    XDEAL_ASSIGN_OR_RETURN(o.all_settled, body.Bool());
    im.outcomes.push_back(o);
  }

  XDEAL_ASSIGN_OR_RETURN(bool has_cbc, body.Bool());
  if (has_cbc != im.any_cbc) {
    return Status::InvalidArgument(
        "snapshot rejected: CBC backend presence disagrees with options");
  }
  if (has_cbc) {
    XDEAL_ASSIGN_OR_RETURN(uint32_t num_shards, body.U32());
    std::vector<uint32_t> shard_epochs;
    for (uint32_t s = 0; s < num_shards; ++s) {
      XDEAL_ASSIGN_OR_RETURN(uint32_t epoch, body.U32());
      // Every shard rotates once per configured reconfiguration, so a
      // larger epoch cannot come from these options — and replaying it
      // below would spin for up to 2^32 rotations.
      if (epoch > options.cbc_reconfig_times.size()) {
        return Status::InvalidArgument(
            "snapshot rejected: shard epoch " + std::to_string(epoch) +
            " exceeds the " + std::to_string(options.cbc_reconfig_times.size()) +
            " configured reconfigurations");
      }
      shard_epochs.push_back(epoch);
    }
    // Validator keys and reconfiguration certificates are pure functions of
    // (seed, epoch): Attach replays Reconfigure() per shard until the
    // recorded epoch, rebuilding bit-identical sets and history.
    im.cbc_service = CbcService::Attach(&world, im.CbcOptions(), shard_epochs);
    if (im.cbc_service == nullptr) {
      return Status::InvalidArgument(
          "snapshot rejected: restored world is missing CBC shard chains");
    }
    im.MakeCbcDriver();
  }

  XDEAL_ASSIGN_OR_RETURN(bool has_brokers, body.Bool());
  im.broker_pool = std::make_unique<BrokerPool>(
      im.env.get(), options.brokers, BrokerPool::AttachTag{});
  if (has_brokers != im.broker_pool->enabled()) {
    return Status::InvalidArgument(
        "snapshot rejected: broker pool presence disagrees with options");
  }
  if (has_brokers) {
    XDEAL_ASSIGN_OR_RETURN(Bytes pool_blob, body.Blob());
    ByteReader pool_reader(pool_blob);
    Status pool_ok = im.broker_pool->Restore(pool_reader);
    if (!pool_ok.ok()) return pool_ok;
  }
  if (!body.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot rejected: " + std::to_string(body.remaining()) +
        " unread payload bytes");
  }

  // Cursors start at the restored chains' receipt counts (empty: restored
  // chains carry no receipt history), so the next epoch seal scans exactly
  // the receipts it produces — the same window the uninterrupted run scans.
  im.receipt_cursor.assign(world.num_chains(), 0);
  for (uint32_t c = 0; c < world.num_chains(); ++c) {
    im.receipt_cursor[c] = world.chain(ChainId{c})->receipts().size();
  }
  // Durable events were re-imported by World::Restore at their original
  // (time, seq) positions; only their handlers need re-binding.
  im.RegisterHandlers();
  return std::unique_ptr<TrafficService>(new TrafficService(std::move(owned)));
}

ServiceReport TrafficService::Impl::BuildFinal() const {
  ServiceReport report;
  report.epochs = epochs_run;
  report.deals = next_deal;
  report.timelock_deals = total_timelock;
  report.cbc_deals = total_cbc;
  report.broker_deals = total_broker_deals;
  report.cross_shard_deals = total_cross_shard;
  report.total_messages = total_messages;
  report.makespan = makespan;
  report.epoch_reports = reports;
  report.violations = violations;
  // Totals that are plain sums over the epoch stream are derived here, so
  // the snapshot stores them once (inside the epoch reports).
  for (const EpochReport& e : reports) {
    report.committed += e.committed;
    report.aborted += e.aborted;
    report.stale_decide_rejections += e.stale_decide_rejections;
    report.double_spends += e.double_spends;
    report.total_gas += e.gas;
    report.untagged_gas += e.untagged_gas;
  }

  uint64_t fp = cumulative_fp;
  if (broker_pool->enabled()) {
    report.brokers = broker_pool->BuildRecords(outcomes);
    for (const BrokerRecord& broker : report.brokers) {
      if (!broker.portfolio_ok) ++report.broker_portfolio_violations;
      fp = MixFingerprint(fp, broker.index);
      fp = MixFingerprint(fp, broker.party);
      fp = MixFingerprint(fp, broker.deals);
      fp = MixFingerprint(fp, broker.committed);
      fp = MixFingerprint(fp, broker.aborted);
      fp = MixFingerprint(fp, broker.shed);
      fp = MixFingerprint(fp, broker.delayed);
      fp = MixFingerprint(fp, broker.gas);
      fp = MixFingerprint(fp, static_cast<uint64_t>(broker.coin_delta));
      fp = MixFingerprint(fp, static_cast<uint64_t>(broker.inventory_delta));
      fp = MixFingerprint(fp, broker.peak_capital_in_use);
      fp = MixFingerprint(fp, broker.peak_inventory_in_use);
      fp = MixFingerprint(fp, broker.portfolio_ok ? 1 : 0);
    }
  }
  report.final_fingerprint = fp;
  return report;
}

EpochReport TrafficService::RunEpoch() {
  return impl_->RunBatch(impl_->options.deals_per_epoch).epoch;
}
Result<Bytes> TrafficService::Checkpoint() { return impl_->DoCheckpoint(); }
ServiceReport TrafficService::Finish() const { return impl_->BuildFinal(); }
size_t TrafficService::epochs_run() const { return impl_->epochs_run; }
size_t TrafficService::deals_run() const { return impl_->next_deal; }
uint64_t TrafficService::cumulative_fingerprint() const {
  return impl_->cumulative_fp;
}
const std::vector<EpochReport>& TrafficService::epoch_reports() const {
  return impl_->reports;
}

std::string ServiceReport::Summary() const {
  std::string s;
  char line[320];
  std::snprintf(
      line, sizeof(line),
      "service: %zu epochs, %zu deals (timelock=%zu cbc=%zu broker=%zu "
      "xshard=%zu) committed=%zu aborted=%zu\n",
      epochs, deals, timelock_deals, cbc_deals, broker_deals,
      cross_shard_deals, committed, aborted);
  s += line;
  std::snprintf(
      line, sizeof(line),
      "violations=%zu double_spends=%zu stale_decide_rejections=%zu "
      "portfolio_violations=%zu untagged_gas=%llu\n",
      violations.size(), double_spends, stale_decide_rejections,
      broker_portfolio_violations,
      static_cast<unsigned long long>(untagged_gas));
  s += line;
  for (const EpochReport& e : epoch_reports) {
    std::snprintf(
        line, sizeof(line),
        "  epoch %zu: deals [%zu, %zu) committed=%zu aborted=%zu "
        "violations=%zu lat p50/p99=%llu/%llu sealed_at=%llu "
        "fp=%016llx cum=%016llx\n",
        e.index, e.first_deal, e.first_deal + e.num_deals, e.committed,
        e.aborted, e.violations,
        static_cast<unsigned long long>(e.latency_p50),
        static_cast<unsigned long long>(e.latency_p99),
        static_cast<unsigned long long>(e.sealed_at),
        static_cast<unsigned long long>(e.epoch_fingerprint),
        static_cast<unsigned long long>(e.cumulative_fingerprint));
    s += line;
  }
  std::snprintf(
      line, sizeof(line),
      "makespan=%llu ticks, gas=%llu, messages=%llu, "
      "final_fingerprint=%016llx\n",
      static_cast<unsigned long long>(makespan),
      static_cast<unsigned long long>(total_gas),
      static_cast<unsigned long long>(total_messages),
      static_cast<unsigned long long>(final_fingerprint));
  s += line;
  return s;
}

}  // namespace xdeal
