#include "core/traffic_engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <tuple>

#include "cbc/cbc_service.h"
#include "contracts/fungible_token.h"
#include "core/adversaries.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/env.h"
#include "core/timelock_run.h"
#include "core/watchtower.h"
#include "crypto/sha256.h"
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
  /// The tower OnDeployed armed; it lives and dies with the deal.
  std::unique_ptr<Watchtower> tower;

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
    const uint64_t tag = run->config().deal_tag;
    tower = std::make_unique<Watchtower>(world, runtime.spec(),
                                         run->deployment(), tower_operator,
                                         runtime.spec().parties, tag);
    tower->Arm();
    uint64_t seq = towers_armed != nullptr ? (*towers_armed)++ : 0;
    if (tower_crash_every > 0 && tower_crash_after > 0 &&
        seq % tower_crash_every == 0) {
      // Tagged with the deal, so the deal stays live until both fire.
      Watchtower* t = tower.get();
      world->scheduler().ScheduleAfter(tower_crash_after,
                                       EventLabel::Internal(tag),
                                       [t] { t->Crash(); });
      if (tower_recover_after > 0) {
        world->scheduler().ScheduleAfter(
            tower_crash_after + tower_recover_after,
            EventLabel::Internal(tag), [t] { t->Recover(); });
      }
    }
  }
};

/// The contract factory of a service restore. Layering: the chain library
/// cannot name contract types, so the service supplies it. Only token
/// ledgers snapshot full state; every other contract belonged to a settled
/// deal and restores as a retired placeholder (preserving ContractId
/// numbering).
std::unique_ptr<Contract> RestoredContract(const std::string& type) {
  if (type == "FungibleToken") {
    return std::make_unique<FungibleToken>("", PartyId{});
  }
  return nullptr;
}

/// Everything a deal holds from generation until it retires.
struct LiveDeal {
  DealSpec spec;
  std::unique_ptr<DealRuntime> runtime;
  std::unique_ptr<DealChecker> checker;
  /// Configured at generation time; must outlive Deploy, which may fire from
  /// an admission event mid-run. Declared after the runtime and checker, so
  /// it (and the tower it armed) is destroyed before them.
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

/// One deal of a batch: its record, and its live state until it retires
/// (null afterwards).
struct DealSlot {
  TrafficDealRecord rec;
  std::unique_ptr<LiveDeal> live = std::make_unique<LiveDeal>();
};

std::vector<PartyId> CompliantPartiesOf(const LiveDeal& live) {
  std::vector<PartyId> compliant;
  for (PartyId p : live.spec.parties) {
    if (!live.has_adversary || p != live.adversary) compliant.push_back(p);
  }
  return compliant;
}

/// Judges one quiet deal from its contracts and receipts, before they are
/// retired and released.
void ValidateDeal(DealSlot* slot) {
  TrafficDealRecord& rec = slot->rec;
  if (!rec.started) return;

  const LiveDeal& live = *slot->live;
  DealResult result = live.runtime->Collect();
  rec.settle_time = result.settle_time;
  // Open-loop sojourn time: measured from arrival, so any admission wait
  // the controller imposed is part of the latency the workload observed.
  rec.latency =
      rec.settle_time > rec.arrival_at ? rec.settle_time - rec.arrival_at : 0;
  // Property 3 presumes every party compliant; injection-touched deals are
  // exempt (their abort is the expected defense, not a liveness failure).
  JudgeDeal(result, *live.checker, CompliantPartiesOf(live), !rec.tainted,
            &rec);
}

/// Builds the 2-party over-commit swap for an injected double-spend: the
/// host deal's first escrower re-promises the SAME tokens to a fresh
/// counterparty. Only one of the two escrow pulls can succeed on-chain.
DealSpec BuildDoubleSpendSpec(DealEnv* env, const DealSlot& host,
                              size_t deal_index, uint64_t seed,
                              size_t num_chains, Rng* rng) {
  const std::string prefix = "d" + std::to_string(deal_index) + "-";
  const DealSpec& host_spec = host.live->spec;
  PartyId spender = host_spec.escrows[0].party;
  uint64_t amount = host_spec.escrows[0].value;

  DealSpec spec;
  spec.deal_id = MakeDealId(prefix + "doublespend", seed);
  PartyId mark = env->AddParty(prefix + "mark");
  spec.parties = {spender, mark};
  // Asset 0: the host deal's asset 0 — same token contract, same chain.
  spec.assets.push_back(host_spec.assets[0]);
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

/// Marks `slot` as touched by its deviating party `adversary`.
void Taint(DealSlot* slot, PartyId adversary) {
  slot->live->has_adversary = true;
  slot->live->adversary = adversary;
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
constexpr uint32_t kSnapshotVersion = 3;

Status ValidateServiceOptions(const TrafficOptions& options) {
  if (options.deals_per_epoch == 0) {
    return Status::InvalidArgument(
        "service mode requires deals_per_epoch > 0");
  }
  return Status::OK();
}

/// Order-sensitive fold over every workload-defining option. Stamped into
/// the snapshot envelope so a restore under different options is rejected
/// instead of silently diverging. num_threads is excluded: nothing reads
/// it, and restoring under a different thread count is a supported (and
/// tested) configuration.
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
  mix(o.delta);
  mix(static_cast<uint64_t>(o.arrival));
  mix(static_cast<uint64_t>(o.mean_interarrival * 1024.0));
  mix(o.admission.enabled ? 1 : 0);
  mix(o.admission.max_scheduler_backlog);
  mix(o.admission.max_chain_occupancy);
  mix(o.admission.retry_delay);
  mix(o.admission.max_retries);
  mix(o.min_assets);
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
/// BrokerPool, the CbcService and the watchtowers, builds each deal's
/// TimelockRun or CbcRun at deploy time, and runs deals in batches:
/// RunTraffic is one batch of num_deals, and every TrafficService epoch is
/// the next batch of deals_per_epoch.
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

  /// Runs deals [next_deal, next_deal + count): generates them, deploys
  /// them (inline, or through admission events when the controller is on),
  /// and drives the World to its quiescent boundary. Between steps, each
  /// deal that went quiet is judged from its own receipts and retired. The
  /// seal folds the kept records into the epoch fingerprint.
  Batch RunBatch(size_t count);
  /// Lists the whole service on `io`: the World, the cross-batch counters,
  /// epoch reports and violations, the CBC shard epochs and the broker
  /// pool (every broker deal's stakes and outcome). Decoding expects a
  /// World fresh from Impl's constructor and an attach-mode broker pool.
  void Transfer(SnapshotIO& io);
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
  /// One operator identity for every watchtower; each tower lives in its
  /// deal's factory and is released when the deal retires.
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
  }
  // One operator identity for every watchtower.
  if (options.watchtower_every > 0) {
    tower_operator = env->AddParty("watchtower");
  }
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
  const std::vector<Tick> arrivals =
      BuildArrivalSchedule(options.arrival, first + count, options.base_seed,
                           options.mean_interarrival);
  const Tick anchor = first == 0 ? 0 : arrivals[first - 1];

  // A slot's live state (spec, runtime, checker, factory, tower) lasts from
  // generation until the deal retires; only its record reaches the seal.
  std::vector<DealSlot> slots(count);
  // Slots whose fate is decided outside their own events (shed, start
  // failed): they retire at the next point between steps.
  std::vector<size_t> ready;

  // Anchors slot i's schedule at `admit_time` and deploys it: inline during
  // generation, or from an admission event when the controller is on.
  auto deploy_deal = [this, &world, &slots, &ready, first](size_t i,
                                                           Tick admit_time) {
    DealSlot& slot = slots[i];
    LiveDeal& live = *slot.live;
    TrafficDealRecord& rec = slot.rec;
    rec.admitted_at = admit_time;

    // One shifted schedule drives either protocol. Deal tags are GLOBAL
    // (index + 1) so gas attribution and observation stay collision-free
    // across the engine's lifetime.
    DealTimings timings = DealTimings::DefaultsFor(rec.protocol);
    timings.ShiftBy(admit_time);
    timings.delta = options.delta;
    timings.deal_tag = static_cast<uint64_t>(first + i) + 1;

    if (rec.protocol == Protocol::kCbc) {
      // The schedule carries options.delta into both protocols; keep the §6
      // "wait at least Δ before rescinding" precondition satisfied when the
      // workload asks for a Δ above the stock patience.
      CbcConfig config(timings);
      config.abort_patience = std::max(config.abort_patience, options.delta);
      live.runtime = std::make_unique<CbcRun>(
          &world, live.spec, config, cbc_service.get(), &live.factory);
    } else {
      live.runtime = std::make_unique<TimelockRun>(
          &world, live.spec, TimelockConfig(timings), &live.factory);
    }
    Status started = live.runtime->Deploy();
    if (!started.ok()) {
      rec.violation = "start-failed: " + started.ToString();
      ready.push_back(i);
      return;
    }
    live.checker = std::make_unique<DealChecker>(
        &world, live.spec, live.runtime->escrow_contracts(),
        timings.deal_tag);
    if (rec.broker != 0) {
      // The brokers' balances move with every concurrent deal they are in;
      // their per-deal token expectations are undefined. Solvency is
      // asserted across the whole deal set by the portfolio check — every
      // hop of a chain deal is such a shared party.
      for (PartyId p : broker_pool->SharedPartiesOf(first + i)) {
        live.checker->MarkSharedParty(p);
      }
    }
    live.checker->CaptureInitial();
    rec.started = true;
  };

  // Installs slot i's spec and records its shape. For a CBC deal it also
  // resolves where the assets land (CbcService::PlaceAssets) and whether
  // they span shards — the same resolution the deal's own CbcRun performs
  // at deploy time.
  auto set_spec = [this, &slots](size_t i, DealSpec spec) {
    DealSlot& slot = slots[i];
    TrafficDealRecord& rec = slot.rec;
    DealSpec& installed = slot.live->spec;
    installed = std::move(spec);
    rec.parties = installed.NumParties();
    rec.assets = installed.NumAssets();
    rec.transfers = installed.NumTransfers();
    if (rec.protocol != Protocol::kCbc || cbc_service == nullptr ||
        installed.assets.empty()) {
      return;
    }
    std::vector<ChainId> asset_chains;
    asset_chains.reserve(installed.assets.size());
    for (const AssetRef& a : installed.assets) asset_chains.push_back(a.chain);
    rec.cross_shard = cbc_service->PlaceAssets(installed.deal_id, asset_chains)
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
      Taint(&slot, slot.live->spec.parties[0]);
      Taint(&slots[i - 1], slot.live->spec.parties[0]);
    } else if (broker_pool->IsBrokerDeal(d)) {
      // Figure-1 shape: this deal's middle party is a shared broker (or a
      // chain of them) whose capital/inventory the deal locks in flight.
      rec.broker = broker_pool->BrokerOf(d) + 1;
      slot.live->deferred_broker = defer_broker;  // spec at first admission
      if (!defer_broker) set_broker_spec(i);
    } else {
      GenParams gen;
      gen.n_parties = kMinParties + rng.Below(kMaxParties - kMinParties + 1);
      gen.m_assets =
          options.min_assets + rng.Below(kMaxAssets - options.min_assets + 1);
      gen.t_transfers =
          gen.n_parties + (gen.m_assets - 1) + rng.Below(kExtraTransfers + 1);
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
      ready.push_back(i);
      continue;
    }

    // The per-deal factory: injections, watchtower arming, broker hooks.
    const DealSpec& spec = slot.live->spec;
    TrafficPartyFactory& factory = slot.live->factory;
    if (offline.count(d) > 0 && !inject &&
        rec.protocol == Protocol::kTimelock && !spec.escrows.empty()) {
      factory.offline = true;
      factory.offline_party = spec.escrows[0].party;
      Taint(&slot, factory.offline_party);
    }
    if (stale_proof.count(d) > 0 && !inject && rec.broker == 0 &&
        rec.protocol == Protocol::kCbc && !spec.escrows.empty()) {
      // Cross-shard replay: the first escrower presents the home shard's
      // decide evidence re-declared for the wrong shard. The escrows must
      // reject it ("decide: shard mismatch"); the replayer is this deal's
      // deviating party.
      factory.stale_proof = true;
      factory.stale_party = spec.escrows[0].party;
      Taint(&slot, factory.stale_party);
    }
    if (options.watchtower_every > 0 &&
        d % options.watchtower_every == 0 &&
        rec.protocol == Protocol::kTimelock) {
      factory.arm_tower = true;
      factory.world = &world;
      factory.tower_operator = tower_operator;
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
  std::function<void(size_t)> admission_event;
  // Arrival and retry events the engine itself has scheduled but that have
  // not fired yet. They sit in the same event queue the controller reads as
  // its backlog signal, so Decide() subtracts them — an open-loop generator
  // must not mistake its own future arrivals for congestion.
  size_t own_admission_events = 0;
  if (options.admission.enabled) {
    const Tick retry_delay =
        options.admission.retry_delay > 0 ? options.admission.retry_delay : 1;
    admission_event = [this, &sched, &slots, &ready, &controller,
                       &admission_event, &deploy_deal, &own_admission_events,
                       &set_broker_spec, first, retry_delay](size_t i) {
      --own_admission_events;  // this event just fired
      const size_t d = first + i;
      DealSlot& slot = slots[i];
      TrafficDealRecord& rec = slot.rec;
      // Dynamic pricing: the deferred broker spec is built at the deal's
      // FIRST admission attempt, so each hop's margin is priced from live
      // capital occupancy; retries keep the first-arrival price.
      if (slot.live->deferred_broker && slot.live->spec.parties.empty()) {
        set_broker_spec(i);
      }
      // A broker deal is held back while any broker it needs is short.
      const bool broker_short =
          rec.broker != 0 && broker_pool->CapitalShort(d);
      AdmissionDecision decision = controller.Decide(
          rec.admission_retries, own_admission_events, broker_short);
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
        ready.push_back(i);
        return;
      }
      deploy_deal(i, sched.now());
    };
    for (size_t i = 0; i < count; ++i) {
      if (slots[i].rec.protocol == Protocol::kHtlc) continue;  // no runtime
      ++own_admission_events;
      sched.ScheduleAt(slots[i].rec.arrival_at,
                       [&admission_event, i] { admission_event(i); });
    }
  }

  // --- per-deal evidence, folded as each deal retires. A receipt is read
  //     for:
  //     - gas attribution: tags outside the batch (or of a retired deal)
  //       are leakage, counted as untagged when their block seals (a
  //       conformant engine keeps it zero);
  //     - cross-shard replay: decide submissions rejected on the escrow's
  //       shard-binding check are counted, and the replaying party's CBC
  //       deal is tainted;
  //     - broker over-commitment: a broker (any hop of a chain deal) whose
  //       escrow pull bounced promised the same finite capital/inventory to
  //       too many deals at once, so she is that deal's deviating party;
  //     - double-spend evidence: who funded or bounced an escrow of which
  //       token, in which deal. Incidents need every deal, so the pulls
  //       stay, as slot indexes, until the seal.
  //     Stale-proof injection skips broker deals, so the two taint sources
  //     never hit one deal. Taints land before the deal is judged, so a
  //     tainted deal's clean abort is judged as the defense it is;
  //     everything here comes from receipts, so any replay of the same seed
  //     reads the same. ---
  size_t stale = 0;
  uint64_t untagged = 0;
  // One escrow pull: whose pull of which token, in which slot, and whether
  // it funded the escrow or bounced.
  struct EscrowPull {
    uint32_t chain = 0;  // the token's chain
    uint32_t token = 0;  // the token contract
    uint32_t party = 0;
    uint32_t slot = 0;
    bool funded = false;
    std::tuple<uint32_t, uint32_t, uint32_t> key() const {
      return {chain, token, party};
    }
  };
  std::vector<EscrowPull> pulls;
  // Differential oracle: chains whose receipt index of a retiring deal
  // disagreed with a full scan of its log.
  std::set<uint32_t> index_mismatch_chains;
  // Tags that had work in flight after their deal retired (or that name no
  // deal of the batch).
  std::set<uint64_t> touched_after_retire;

  // Reads deal i's own receipts (its chains in id order, each in chain
  // order: the order one pass over the whole batch would meet them) into
  // its record and the batch evidence.
  auto fold_evidence = [this, &world, &slots, &stale, &pulls](
                           size_t i, uint64_t tag,
                           const std::vector<uint32_t>& chains) {
    DealSlot& slot = slots[i];
    TrafficDealRecord& rec = slot.rec;
    const DealSpec& spec = slot.live->spec;
    const std::vector<ContractId>& escrows =
        slot.live->runtime->escrow_contracts();
    for (uint32_t c : chains) {
      for (const Receipt& r : world.chain(ChainId{c})->TaggedReceipts(tag)) {
        rec.gas += r.gas_used;
        ++rec.messages;
        const bool stale_decide =
            cbc_service != nullptr && r.tag == "decide" && !r.status.ok() &&
            r.status.ToString().find("shard mismatch") != std::string::npos;
        if (stale_decide) ++stale;
        if (!stale_decide && r.tag != "escrow") continue;
        uint32_t asset = 0;
        while (asset < escrows.size() &&
               (spec.assets[asset].chain != r.chain ||
                escrows[asset] != r.contract)) {
          ++asset;
        }
        if (asset == escrows.size()) continue;
        if (stale_decide) {
          if (rec.protocol == Protocol::kCbc) Taint(&slot, r.sender);
          continue;
        }
        if (!r.status.ok() && rec.broker != 0) {
          // Any hop of a chain deal can be the one that over-committed.
          const std::vector<PartyId> shared =
              broker_pool->SharedPartiesOf(rec.index);
          if (std::find(shared.begin(), shared.end(), r.sender) !=
              shared.end()) {
            Taint(&slot, r.sender);
          }
        }
        const AssetRef& token = spec.assets[asset];
        pulls.push_back(EscrowPull{token.chain.v, token.token.v, r.sender.v,
                                   static_cast<uint32_t>(i), r.status.ok()});
      }
    }
  };

  // Retires deal i: judge it from its own receipts, then release all it
  // holds — broker escrow views, its receipt logs and observers, the
  // contracts it deployed (replaced by the placeholders a restore installs)
  // and its live state. Only its record stays. Its asset contracts are
  // token ledgers (traffic deals hold no NFTs), which stay.
  auto retire = [this, &world, &slots, &index_mismatch_chains, &fold_evidence,
                 first](size_t i) {
    DealSlot& slot = slots[i];
    LiveDeal& live = *slot.live;
    const uint64_t tag = static_cast<uint64_t>(first + i) + 1;
    if (live.runtime != nullptr) {
      const std::vector<std::pair<ChainId, ContractId>> deployed =
          live.runtime->DeployedContracts();
      std::vector<uint32_t> chains;
      chains.reserve(deployed.size());
      for (const auto& [chain, contract] : deployed) chains.push_back(chain.v);
      std::sort(chains.begin(), chains.end());
      chains.erase(std::unique(chains.begin(), chains.end()), chains.end());
      if (slot.rec.started) {
        fold_evidence(i, tag, chains);
        ValidateDeal(&slot);
        if (slot.rec.broker != 0) {
          broker_pool->OnDealRetired(slot.rec.index, *live.runtime);
        }
      }
      for (uint32_t c : chains) {
        Blockchain* chain = world.chain(ChainId{c});
        if (options.fullscan_oracle && !chain->TagIndexMatchesFullScan(tag)) {
          index_mismatch_chains.insert(c);
        }
        chain->ReleaseTag(tag);
      }
      for (const auto& [chain, contract] : deployed) {
        world.chain(chain)->Retire(contract);
      }
    }
    slot.live.reset();
  };
  auto retire_ready = [&ready, &slots, &retire] {
    if (ready.empty()) return;
    std::sort(ready.begin(), ready.end());
    ready.erase(std::unique(ready.begin(), ready.end()), ready.end());
    for (size_t i : ready) {
      if (slots[i].live != nullptr) retire(i);
    }
    ready.clear();
  };

  // --- drive to the quiescent boundary: every non-durable event fires
  //     (admission events, tower watches and crash closures included); only
  //     future durable events may remain pending. Durable events whose time
  //     falls inside the batch fire in time order like any other. Between
  //     steps, every deployed deal with nothing left in flight (no pending
  //     event or mempool transaction of its tag) retires, in index order.
  //     The step hook tracks when the backlog peaks. ---
  Batch result;
  sched.SetStepObserver([&result](Tick now, size_t pending) {
    if (pending > result.peak_backlog) {
      result.peak_backlog = pending;
      result.peak_backlog_at = now;
    }
  });
  world.SetSealObserver([&untagged, &slots, first, count](const Receipt& r) {
    const bool live_deal = r.deal_tag > first && r.deal_tag <= first + count &&
                           slots[r.deal_tag - first - 1].live != nullptr;
    if (!live_deal) untagged += r.gas_used;
  });
  retire_ready();
  while (sched.pending() > sched.pending_durable()) {
    sched.Step();
    for (uint64_t tag : sched.TakeDrainedTags()) {
      if (sched.InFlight(tag) > 0) continue;
      if (tag <= first || tag > first + count ||
          slots[tag - first - 1].live == nullptr) {
        touched_after_retire.insert(tag);
      } else if (slots[tag - first - 1].rec.started) {
        ready.push_back(tag - first - 1);
      }
    }
    retire_ready();
  }
  sched.SetStepObserver(nullptr);
  world.SetSealObserver(nullptr);
  // Deals with no event of their own left to drain retire at the boundary.
  for (size_t i = 0; i < count; ++i) {
    if (slots[i].live != nullptr) retire(i);
  }
  const Tick sealed_at = world.now();

  // --- cross-deal double-spends: a party whose escrow pull failed in one
  //     deal while the same token funded its escrow in another. Evidence-
  //     based, independent of injection.
  //     A pair found under several tokens keeps the first token's party. ---
  std::sort(pulls.begin(), pulls.end(),
            [](const EscrowPull& x, const EscrowPull& y) {
              return x.key() < y.key();
            });
  std::set<std::pair<size_t, size_t>> seen;
  for (size_t g = 0, end = 0; g < pulls.size(); g = end) {
    while (end < pulls.size() && pulls[end].key() == pulls[g].key()) ++end;
    for (size_t x = g; x < end; ++x) {
      if (pulls[x].funded) continue;
      const size_t loser = pulls[x].slot;
      for (size_t y = g; y < end; ++y) {
        const size_t winner = pulls[y].slot;
        if (!pulls[y].funded || winner == loser ||
            !seen.insert({loser, winner}).second) {
          continue;
        }
        DoubleSpendIncident incident;
        incident.loser_deal = slots[loser].rec.index;
        incident.winner_deal = slots[winner].rec.index;
        incident.party = pulls[g].party;
        incident.seed = slots[loser].rec.seed;
        result.double_spends.push_back(incident);
      }
    }
  }
  std::sort(result.double_spends.begin(), result.double_spends.end(),
            [](const DoubleSpendIncident& x, const DoubleSpendIncident& y) {
              return std::tie(x.loser_deal, x.winner_deal) <
                     std::tie(y.loser_deal, y.winner_deal);
            });

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
      broker_pool->RecordOutcome(outcome);
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
  for (uint64_t tag : touched_after_retire) {
    const size_t d = static_cast<size_t>(tag - 1);
    violations.push_back(TrafficViolation{
        d, TrafficDealSeed(options.base_seed, d), mix[d % mix.size()],
        "retired-deal-touched: work for deal tag " + std::to_string(tag) +
            " ran after the deal retired"});
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

void TrafficService::Impl::Transfer(SnapshotIO& io) {
  World& world = env->world();
  io.Nested([&world](ByteWriter* w) { return world.Checkpoint(w); },
            [&world](ByteReader& r) {
              return world.Restore(r, RestoredContract);
            });

  io.Size(next_deal);
  io.Size(epochs_run);
  io.U64(towers_armed);
  io.U64(cbc_seen);
  io.U64(cumulative_fp);
  io.Size(total_timelock);
  io.Size(total_cbc);
  io.Size(total_broker_deals);
  io.Size(total_cross_shard);
  io.U64(total_messages);
  io.U64(makespan);
  io.U32(tower_operator.v);

  io.List(pool, [&io, &world](ChainId& id) {
    io.U32(id.v);
    io.Check(id.v < world.num_chains(),
             "snapshot rejected: pool chain id out of range");
  });

  io.List(reports, [&io](EpochReport& e) {
    io.Size(e.index);
    io.Size(e.first_deal);
    io.Size(e.num_deals);
    io.Size(e.committed);
    io.Size(e.aborted);
    io.Size(e.violations);
    io.Size(e.double_spends);
    io.Size(e.stale_decide_rejections);
    io.U64(e.gas);
    io.U64(e.untagged_gas);
    io.U64(e.latency_p50);
    io.U64(e.latency_p99);
    io.U64(e.sealed_at);
    io.U64(e.events_executed);
    io.U64(e.epoch_fingerprint);
    io.U64(e.cumulative_fingerprint);
  });
  // Every epoch seals one report over exactly deals_per_epoch deals; this
  // also bounds the arrival schedule the next epoch builds.
  io.Check(epochs_run == reports.size() &&
               next_deal == epochs_run * options.deals_per_epoch,
           "snapshot rejected: deal and epoch counters disagree with the "
           "epoch reports");

  io.List(violations, [&io](TrafficViolation& v) {
    io.Size(v.deal_index);
    io.U64(v.seed);
    io.Enum(v.protocol, Protocol::kHtlc,
            "snapshot rejected: violation protocol out of range");
    io.Str(v.what);
  });

  bool has_cbc = cbc_service != nullptr;
  io.Bool(has_cbc);
  io.Check(has_cbc == any_cbc,
           "snapshot rejected: CBC backend presence disagrees with options");
  if (has_cbc) {
    std::vector<uint32_t> shard_epochs;
    if (!io.reading()) shard_epochs = cbc_service->ShardEpochs();
    const size_t reconfigs = options.cbc_reconfig_times.size();
    io.List(shard_epochs, [&io, reconfigs](uint32_t& epoch) {
      io.U32(epoch);
      // Every shard rotates once per configured reconfiguration, so a
      // larger epoch cannot come from these options — and replaying it
      // below would spin for up to 2^32 rotations.
      if (io.reading() && epoch > reconfigs) {
        io.Fail(Status::InvalidArgument(
            "snapshot rejected: shard epoch " + std::to_string(epoch) +
            " exceeds the " + std::to_string(reconfigs) +
            " configured reconfigurations"));
      }
    });
    if (io.reading() && io.ok()) {
      // Validator keys and reconfiguration certificates are pure functions
      // of (seed, epoch): Attach replays Reconfigure() per shard until the
      // recorded epoch, rebuilding bit-identical sets and history.
      cbc_service = CbcService::Attach(&world, CbcOptions(), shard_epochs);
      io.Check(cbc_service != nullptr,
               "snapshot rejected: restored world is missing CBC shard "
               "chains");
    }
  }

  bool has_brokers = broker_pool->enabled();
  io.Bool(has_brokers);
  io.Check(has_brokers == broker_pool->enabled(),
           "snapshot rejected: broker pool presence disagrees with options");
  if (has_brokers) {
    io.Nested([this](ByteWriter* w) { return broker_pool->Checkpoint(w); },
              [this](ByteReader& r) { return broker_pool->Restore(r); });
  }
}

Result<Bytes> TrafficService::Impl::DoCheckpoint() {
  ByteWriter body;
  SnapshotIO io(&body);
  Transfer(io);
  if (!io.ok()) return io.status();

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
  im.broker_pool = std::make_unique<BrokerPool>(
      im.env.get(), options.brokers, BrokerPool::AttachTag{});
  ByteReader body(payload);
  SnapshotIO io(body);
  im.Transfer(io);
  if (!io.ok()) return io.status();
  if (!body.AtEnd()) {
    return Status::InvalidArgument(
        "snapshot rejected: " + std::to_string(body.remaining()) +
        " unread payload bytes");
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
    report.brokers = broker_pool->BuildRecords();
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
World& TrafficService::world() { return impl_->env->world(); }

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
