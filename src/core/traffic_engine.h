// TrafficEngine: concurrent multi-deal workloads over shared chains.
//
// Where ScenarioSweep runs every scenario in its own World, the traffic
// engine generates D deals (mixed shapes and protocols via deal_gen) that
// all live in ONE World, multiplexed over a shared pool of chains. Deals
// arrive on a schedule — a fixed stagger, or an open-loop seeded
// Poisson process (core/admission.h) — and their protocol phases interleave
// on the single deterministic scheduler, so the engine sees cross-deal
// interference a single-deal sweep cannot: many escrows contending on one
// chain, block-capacity queueing that stretches timelock deadlines, gas
// accounting across deals, and double-spend pressure where one party
// over-commits the same funds to two deals at once.
//
// Every deal is a DealRuntime — a TimelockRun or a CbcRun built from one
// shifted DealTimings schedule — and CBC deals
// execute against a CbcService with `cbc_shards` independent certified
// chains (deals hashed to shards by deal id) — the knob that turns the
// single shared CBC log from the paper into a horizontally scaled backend.
// Watchtowers ride the same PartyFactory hook: with watchtower_every = k,
// every k-th timelock deal is guarded by an always-online relay that also
// claims refunds for parties that went dark.
//
// Every deal is validated with its own DealChecker (Properties 1-3 over its
// compliant parties); failed properties become TrafficViolations carrying
// the deal's derived seed. Escrow receipts are additionally cross-referenced
// between deals to detect cross-deal double-spends from on-chain evidence
// (a party whose escrow pull failed in one deal while the same token funded
// its escrow in another).
//
// Memory follows live deals, not history. A deal's lifecycle is arrive ->
// admit (or delay, or shed) -> deploy -> quiet -> judge -> retire. It is
// quiet once nothing of its deal tag is in flight: no pending event (timer,
// observation delivery, tower watch, tower crash or recover) and no mempool
// transaction (Scheduler::InFlight). Nothing can wake it again, so between
// scheduler steps the engine judges it from its own receipts and retires
// it: it keeps the deal's TrafficDealRecord and releases everything else —
// runtime, checker, spec, party factory and tower, broker escrow views,
// receipt logs and observers, and its contracts, which become the retired
// placeholders a snapshot restore installs. A shed or start-failed deal
// retires when that is decided. The batch seal folds only what needs every
// deal: double-spend incidents, the epoch fingerprint and the broker
// outcomes. Work that reaches a retired deal is reported as a violation.
//
// With the admission controller enabled the engine becomes an open-loop
// load generator with backpressure: deal deployment moves onto the
// scheduler itself, and each arrival event consults an AdmissionController
// against live scheduler backlog and chain occupancy. Over-threshold deals
// are delayed for a retry quantum and eventually shed; every deal's fate
// (arrival vs admission time, retries, shed) lands in its record so the
// report charts what the policy cost and what it saved.
//
// Determinism contract: the simulation, judging included, is single-threaded
// and seed-driven, and deals retire in index order between steps. A
// TrafficReport is therefore a pure function of the options (num_threads is
// read by nothing), and re-running the same options + base_seed replays
// every violation and incident exactly.
//
// One engine serves both entry points: RunTraffic is a single batch of
// num_deals deals, and a TrafficService runs the same batch step once per
// epoch on a World that persists between epochs. A TrafficReport's
// fingerprint is therefore the final fingerprint of a one-epoch service
// over the same options.

#ifndef XDEAL_CORE_TRAFFIC_ENGINE_H_
#define XDEAL_CORE_TRAFFIC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/broker_pool.h"
#include "core/checker.h"
#include "core/deal_runtime.h"
#include "sim/scheduler.h"
#include "util/bytes.h"
#include "util/det.h"
#include "util/result.h"

namespace xdeal {

/// The full workload description of one traffic run: scale, arrival
/// process, admission policy, per-deal shape ranges, protocol mix, broker
/// subsystem, and injections. RunTraffic is a pure function of this struct.
struct TrafficOptions {
  uint64_t base_seed = 1;
  /// D: how many concurrent deals the workload admits.
  size_t num_deals = 100;
  /// Size of the shared chain pool all deals' assets are placed on.
  size_t num_chains = 8;
  /// S: how many certified chains (each with its own validator set) the
  /// CbcService runs; CBC deals are hashed to shards by deal id. 1 = the
  /// paper's single shared CBC.
  size_t cbc_shards = 1;
  /// Cross-shard placement: every k-th CBC deal (k > 0) draws its asset
  /// chains from the CbcService's shard chains instead of the shared pool,
  /// so its assets land on shards other than its home shard and settle via
  /// portable DecideProofs (CbcService::PlaceAssets). 0 = all deal assets
  /// live on pool chains (single-shard settlement).
  size_t cbc_xshard_every = 0;
  /// Mid-run validator reconfiguration: at each listed tick, every shard of
  /// the CbcService rotates its validator set (epoch + 1). Deals escrowed
  /// before a boundary chain their decide proofs through the service's
  /// reconfiguration history (ReconfigsSince), so in-flight deals settle
  /// across the epoch boundary.
  std::vector<Tick> cbc_reconfig_times;
  /// Cross-shard adversary injection: in each listed CBC deal, the deal's
  /// first escrower replays the home shard's decide evidence declaring the
  /// WRONG shard (CbcStaleShardProofParty). Shard-bound escrows must reject
  /// the replay ("decide: shard mismatch"); the engine counts the
  /// rejections and taints the deal from receipt evidence.
  std::vector<size_t> stale_proof_deals;
  /// Max transactions per block on every chain (0 = unlimited). Finite
  /// capacity turns heavy traffic into real queueing delay — tight enough
  /// values stretch timelock deadlines past Δ and the checker catches it.
  uint64_t block_capacity = 0;
  /// The timelock protocol's synchrony bound Δ.
  Tick delta = 120;

  // --- open-loop arrivals + admission control ---
  /// How arrival times are generated: the fixed stagger (deal i arrives at
  /// i * mean_interarrival, rounded to a tick), or kPoisson, which turns
  /// the engine into an open-loop load generator with seeded exponential
  /// inter-arrival times.
  ArrivalProcess arrival = ArrivalProcess::kFixedStagger;
  /// Mean inter-arrival gap in ticks: the exact gap under kFixedStagger,
  /// the exponential mean under kPoisson (arrival rate λ =
  /// 1000 / mean_interarrival deals per kilotick).
  double mean_interarrival = 20.0;
  /// Backpressure policy. When enabled, deal deployment moves onto the
  /// scheduler: each deal's arrival fires an admission event that consults
  /// the controller against live scheduler backlog / chain occupancy and
  /// admits, delays, or sheds the deal. When disabled, every deal deploys
  /// inline at generation, scheduled from its arrival time.
  AdmissionOptions admission;

  // --- per-deal shape, drawn from the deal's derived seed: 2-4 parties,
  //     min_assets-3 assets, up to 2 transfer hops beyond the minimum ---
  /// Fewest assets a generated deal has (at most 3).
  size_t min_assets = 1;

  /// Deal i runs protocol_mix[i % size]; empty = all timelock. (kHtlc has
  /// no DealRuntime and fails the deal with a start violation.)
  std::vector<Protocol> protocol_mix = {Protocol::kTimelock,
                                        Protocol::kTimelock, Protocol::kCbc};

  /// Cross-deal double-spend injection: each listed deal index d (d >= 1)
  /// is replaced by a 2-party swap in which deal d-1's first escrower
  /// re-commits the SAME tokens it already promised to deal d-1. Exactly one
  /// of the two escrow pulls can succeed; the other deal must abort cleanly
  /// and the engine must report the incident. Indices whose predecessor is
  /// also listed (or out of range) are ignored.
  std::vector<size_t> double_spend_deals;

  /// Offline-party injection: in each listed timelock deal, the deal's
  /// first escrower goes dark right after escrowing (no transfers, votes,
  /// forwarding, or refund claims). Without a watchtower its deposit is
  /// stranded forever; with one, the tower claims the refund on its behalf.
  std::vector<size_t> offline_party_deals;

  /// Every k-th timelock deal (k > 0; deal index % k == 0) is guarded by a
  /// watchtower armed through the party-factory hook, with every deal party
  /// as a refund client. 0 = no watchtowers.
  size_t watchtower_every = 0;

  /// Broker subsystem (core/broker_pool.h): with num_brokers > 0, every
  /// `broker_every`-th deal becomes a Figure-1-style broker deal whose
  /// middle party is one of B shared broker identities with finite working
  /// capital and inventory; a deal whose broker is short of either is held
  /// back at admission (when the controller is on), and per-broker records
  /// (portfolio conformance, occupancy timelines, gas/latency attribution)
  /// land in the report.
  /// 0 brokers (the default) disables the subsystem.
  BrokerOptions brokers;

  /// Differential-testing oracle: as each deal retires, recompute its
  /// per-contract receipt index on each of its chains by full scan of its
  /// receipt log and require it to match the incrementally built one; any
  /// mismatch is reported as a violation. For tests, not for big-D benches.
  bool fullscan_oracle = false;

  /// Unread: deals are judged one by one as they retire, so nothing is left
  /// to parallelise. Kept because benchmark drivers still set it.
  size_t num_threads = 1;

  // --- long-lived service mode (TrafficService) + crash injection ---
  /// Deals generated per epoch by TrafficService::RunEpoch. Must be > 0 for
  /// service mode; RunTraffic runs one batch of num_deals instead.
  size_t deals_per_epoch = 0;

  /// Watchtower crash injection: every k-th armed tower (k > 0) is killed
  /// `tower_crash_after` ticks after arming — it stops relaying/refunding
  /// and loses its in-memory dedup state, exactly like a process kill.
  /// 0 = no tower ever crashes (default).
  size_t tower_crash_every = 0;
  Tick tower_crash_after = 0;
  /// Ticks after its crash at which a killed tower restarts and recovers
  /// purely from on-chain evidence (Watchtower::Recover). 0 = the tower
  /// never comes back — the negative control that re-exposes the §5.3
  /// stranded-deposit attack its clients relied on it to neutralize.
  Tick tower_recover_after = 0;

  /// Broker crash schedule: entry i kills broker (i % num_brokers)'s
  /// off-chain accounting process at the listed absolute tick
  /// (BrokerPool::CrashBroker — her in-memory reservation book is lost; her
  /// on-chain balances and escrows are untouched). Empty = no crashes
  /// (default). Like cbc_reconfig_times, crashes and recoveries are durable
  /// scheduler events: they fire only while deals are still running, and a
  /// checkpoint carries the ones still pending.
  std::vector<Tick> broker_crash_times;
  /// Ticks after each crash at which the broker restarts and rebuilds her
  /// book from on-chain evidence (BrokerPool::RecoverBroker). 0 = she stays
  /// down (her book stays empty; over-commitment risk persists).
  Tick broker_recover_after = 0;
};

/// Per-deal outcome row (the unit the report fingerprint folds over). The
/// DealVerdict base carries the outcome bits and Property 1-3 verdicts; its
/// `tainted` bit marks deals touched by injection (double-spend, offline
/// party, stale proof) or by an over-committed broker.
struct TrafficDealRecord : DealVerdict {
  size_t index = 0;
  uint64_t seed = 0;
  Protocol protocol = Protocol::kTimelock;
  /// When the deal arrived (open-loop offered load). Equals admitted_at
  /// unless the admission controller delayed it.
  Tick arrival_at = 0;
  /// When the deal was actually admitted (its phase schedule's origin).
  Tick admitted_at = 0;
  /// Admission fate: a shed deal was never deployed (started stays false).
  bool shed = false;
  /// How many times the controller delayed this deal before admitting
  /// (or shedding) it, and the total wait that cost.
  size_t admission_retries = 0;
  Tick admission_wait = 0;
  /// Broker hosting this deal, as index + 1 (0 = not a broker deal), plus
  /// the working capital / inventory the deal locks while in flight. For
  /// hop chains `broker` is the first hop and the capital need totals every
  /// hop's float.
  size_t broker = 0;
  uint64_t broker_capital_need = 0;
  uint64_t broker_inventory_need = 0;
  /// Per-hop (capital occupancy at pricing time, per-unit margin charged)
  /// points of a broker deal — one entry at hop depth 1, one per hop for
  /// chains. The raw data of the margin-vs-occupancy market-clearing chart.
  std::vector<BrokerPool::PricePoint> price_points;
  /// True when a CBC deal's assets span more than one shard: its escrows
  /// settled via portable DecideProofs issued by the home shard.
  bool cross_shard = false;
  size_t parties = 0;
  size_t assets = 0;
  size_t transfers = 0;

  uint64_t gas = 0;       // receipts submitted by this deal, per deal_tag
  uint64_t messages = 0;  // transaction receipts carrying this deal's tag
  Tick settle_time = 0;   // absolute tick of the last settlement
  /// settle_time - arrival_at (0 if never settled): open-loop sojourn time,
  /// including any admission wait the controller imposed.
  Tick latency = 0;
};

/// A property violation on some deal, with the reproducer: re-running
/// RunTraffic with the same options and base_seed replays it bit-for-bit.
struct TrafficViolation {
  size_t deal_index = 0;
  uint64_t seed = 0;
  Protocol protocol = Protocol::kTimelock;
  std::string what;
};

/// A detected cross-deal double-spend: `party` funded its escrow of some
/// token in `winner_deal` while its escrow pull of the same token failed in
/// `loser_deal`. Derived from on-chain receipts, not from injection
/// knowledge — the evidence survives in any replay of the same seed.
struct DoubleSpendIncident {
  size_t loser_deal = 0;
  size_t winner_deal = 0;
  uint32_t party = 0;
  uint64_t seed = 0;  // loser deal's derived seed
};

/// Everything one traffic run produced: per-deal records, per-broker
/// records, violations/incidents, and the aggregate metrics the benches
/// chart — all a deterministic function of the options.
struct TrafficReport {
  size_t num_deals = 0;
  size_t cbc_shards = 1;
  size_t committed = 0;
  size_t aborted = 0;
  size_t mixed = 0;
  size_t timelock_deals = 0;
  size_t cbc_deals = 0;
  /// How many deals took the broker shape (0 when brokers are disabled).
  size_t broker_deals = 0;
  /// Effective broker resale-chain depth (1 = classic single-hop deals).
  size_t broker_hop_depth = 1;
  /// CBC deals whose assets spanned >= 2 shards (settled via portable
  /// cross-shard DecideProofs).
  size_t cross_shard_deals = 0;
  /// Decide submissions rejected on the shard-binding check ("decide:
  /// shard mismatch") — the cross-shard replay defense firing.
  size_t stale_decide_rejections = 0;
  /// Brokers whose portfolio check failed: they ended worse off across
  /// their whole deal set (Property 1 lifted to portfolios).
  size_t broker_portfolio_violations = 0;
  /// Admission decisions at which a deal's broker (or one of its hop
  /// brokers) was short of free capital or inventory.
  size_t broker_blocked = 0;

  // Admission-control outcome (all zero when the controller is disabled).
  size_t shed = 0;           // deals never deployed (load the policy refused)
  size_t delayed_deals = 0;  // deals admitted later than they arrived
  size_t admission_retries = 0;  // total delay events across all deals
  Tick max_admission_wait = 0;
  size_t peak_backlog_seen = 0;       // worst congestion the controller
  uint64_t peak_occupancy_seen = 0;   // sampled at its decision points

  uint64_t total_gas = 0;
  uint64_t total_messages = 0;
  /// Gas from receipts carrying no deal tag. Zero means per-deal gas
  /// attribution is complete: every transaction in the World is accounted
  /// to exactly one deal.
  uint64_t untagged_gas = 0;

  // Scheduler pressure (from the sim-layer step hook, so the depth/tick
  // pair is one coherent measurement of the queue while draining).
  uint64_t events_executed = 0;
  size_t max_backlog = 0;
  Tick peak_backlog_at = 0;  // when the event queue hit its high-water mark
  Tick makespan = 0;         // last settlement across all deals

  // Latency percentiles over settled deals, gas percentiles over all deals.
  Tick latency_p50 = 0;
  Tick latency_p90 = 0;
  Tick latency_p99 = 0;
  uint64_t gas_p50 = 0;
  uint64_t gas_p99 = 0;
  /// Committed deals per 1000 simulated ticks of makespan (goodput: shed
  /// and violating deals don't count — only commits do).
  double deals_per_ktick = 0.0;
  /// Arrivals per 1000 simulated ticks over the arrival window (offered
  /// load; compare against deals_per_ktick to see what the system kept).
  double offered_per_ktick = 0.0;

  std::vector<TrafficDealRecord> deals;
  std::vector<TrafficViolation> violations;
  std::vector<DoubleSpendIncident> double_spends;
  /// Per-broker aggregation (empty when brokers are disabled): capital /
  /// inventory occupancy timelines, gas/latency attribution, and the
  /// portfolio conformance verdict.
  std::vector<BrokerRecord> brokers;

  /// Order-sensitive hash over every per-deal record, the run's evidence
  /// and the broker records; equal fingerprints mean bit-identical reports
  /// (the thread-count-independence invariant). Defined as the
  /// final_fingerprint of a one-epoch TrafficService over the same options.
  uint64_t fingerprint = 0;

  /// Human-readable throughput/latency/conformance table.
  std::string Summary() const;
};

/// Per-deal RNG seed: a SplitMix64 hash of (base_seed, deal_index), on an
/// independent stream from ScenarioSeed so sweep and traffic never alias.
XDEAL_DETERMINISTIC
uint64_t TrafficDealSeed(uint64_t base_seed, uint64_t deal_index);

/// The whole pipeline: generate D deals in one World over a shared chain
/// pool, drive the scheduler to quiescence while judging and retiring each
/// deal as it goes quiet, and fold the deterministic report.
XDEAL_DETERMINISTIC
TrafficReport RunTraffic(const TrafficOptions& options);

/// What one epoch of the long-lived service produced: this epoch's slice of
/// the per-deal outcome stream, folded into a per-epoch fingerprint and
/// chained into the run's cumulative fingerprint. Two runs whose epoch
/// streams carry equal cumulative fingerprints executed bit-identically —
/// the restore-parity gate compares exactly this.
struct EpochReport {
  size_t index = 0;       // epoch number, 0-based
  size_t first_deal = 0;  // global index of the epoch's first deal
  size_t num_deals = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t violations = 0;
  size_t double_spends = 0;
  size_t stale_decide_rejections = 0;
  uint64_t gas = 0;
  uint64_t untagged_gas = 0;
  Tick latency_p50 = 0;
  Tick latency_p99 = 0;
  /// Scheduler time when the epoch reached its quiescent boundary.
  Tick sealed_at = 0;
  /// Cumulative scheduler events executed as of the seal.
  uint64_t events_executed = 0;
  /// Fold over this epoch's deal records only.
  uint64_t epoch_fingerprint = 0;
  /// Chained fold over every epoch fingerprint so far.
  uint64_t cumulative_fingerprint = 0;
};

/// The whole service run, sealed by TrafficService::Finish: cross-epoch
/// totals, the per-epoch report stream, every violation with its reproducer
/// seed, per-broker portfolio records, and the final fingerprint (the
/// cumulative epoch fold plus the broker-record fold).
struct ServiceReport {
  size_t epochs = 0;
  size_t deals = 0;
  size_t committed = 0;
  size_t aborted = 0;
  size_t timelock_deals = 0;
  size_t cbc_deals = 0;
  size_t broker_deals = 0;
  size_t cross_shard_deals = 0;
  size_t stale_decide_rejections = 0;
  size_t double_spends = 0;
  size_t broker_portfolio_violations = 0;
  uint64_t total_gas = 0;
  uint64_t untagged_gas = 0;
  uint64_t total_messages = 0;
  Tick makespan = 0;
  std::vector<EpochReport> epoch_reports;
  std::vector<TrafficViolation> violations;
  std::vector<BrokerRecord> brokers;
  uint64_t final_fingerprint = 0;

  /// Human-readable epoch/conformance table.
  std::string Summary() const;
};

/// TrafficService: the TrafficEngine run as a long-lived service instead of
/// a batch. An unbounded open-loop arrival stream is partitioned into
/// fixed-length epochs of `deals_per_epoch` deals; each RunEpoch generates
/// the next slice on the SAME World (chains, brokers, validator sets, and
/// the scheduler clock persist across epochs), drives it to a quiescent
/// boundary, and emits a streaming EpochReport.
///
/// At any epoch boundary the whole run can be serialized by Checkpoint()
/// into a versioned snapshot — chains (token ledgers in full, and every
/// settled deal's contract as the retired placeholder it already is, so
/// ContractId numbering survives), the
/// scheduler clock and its pending durable events (cross-epoch validator
/// reconfigurations and broker crash/recovery schedules), CbcService shard
/// epochs (validator keys and reconfig certificates replay from seeds),
/// broker capital/inventory bindings and plans, and the service's own
/// counters. FromSnapshot resumes a run killed at that boundary and
/// continues BIT-IDENTICALLY: every subsequent EpochReport, fingerprint,
/// and final ServiceReport equals the uninterrupted run's (the differential
/// checkpoint tests prove it across thread counts, shard counts, brokers,
/// and reconfigurations straddling the snapshot).
///
/// Requirement: deals_per_epoch > 0. The admission controller is rebuilt
/// per epoch and every admission event fires before the seal, so it needs
/// no snapshot state.
class TrafficService {
 public:
  /// Builds a fresh service world (chain pool, brokers, CBC shards) from
  /// the options. Fails when deals_per_epoch is 0.
  static Result<std::unique_ptr<TrafficService>> Create(
      const TrafficOptions& options);

  /// Restores a service from a Checkpoint snapshot taken under the SAME
  /// options. Rejects — with a distinct versioned error, never silent
  /// divergence — snapshots with a bad magic, an unsupported version, an
  /// options fingerprint mismatch, a corrupted payload digest, trailing or
  /// unread bytes, or state these options cannot produce.
  static Result<std::unique_ptr<TrafficService>> FromSnapshot(
      const TrafficOptions& options, const Bytes& snapshot);

  ~TrafficService();

  /// Generates, drives, validates, and seals the next epoch.
  XDEAL_DETERMINISTIC EpochReport RunEpoch();

  /// Serializes the run at the current epoch boundary (see class comment).
  XDEAL_DETERMINISTIC Result<Bytes> Checkpoint();

  /// Seals the run: builds per-broker records over every epoch's outcomes
  /// and folds the final fingerprint. Callable repeatedly; RunEpoch may
  /// continue afterwards (Finish is a read-only aggregation).
  XDEAL_DETERMINISTIC ServiceReport Finish() const;

  /// Number of epochs sealed so far (restored runs count restored epochs).
  size_t epochs_run() const;
  /// Cumulative deals generated across all epochs (the next global index).
  size_t deals_run() const;
  /// The running fingerprint every sealed epoch has folded into.
  uint64_t cumulative_fingerprint() const;
  /// Per-epoch reports in seal order, including epochs before a restore.
  const std::vector<EpochReport>& epoch_reports() const;
  /// The service's World (chains, scheduler, parties), for inspection and
  /// fault injection between epochs.
  World& world();

 private:
  struct Impl;
  friend TrafficReport RunTraffic(const TrafficOptions& options);
  explicit TrafficService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace xdeal

#endif  // XDEAL_CORE_TRAFFIC_ENGINE_H_
