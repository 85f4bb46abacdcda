// TrafficService checkpoint/restore: a run killed at any epoch boundary and
// restored from its snapshot finishes bit-identical to the uninterrupted
// run — same cumulative fingerprint, same epoch reports, same final report
// text — across thread counts, shard counts, broker configurations, the
// admission controller, and a validator reconfiguration scheduled beyond the
// checkpoint. Corrupted or mismatched snapshots are rejected with distinct
// errors, never restored. RunTraffic is one epoch of the same engine.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/traffic_engine.h"
#include "crypto/sha256.h"
#include "golden_fps.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace xdeal {
namespace {

TrafficOptions ServiceOptions() {
  TrafficOptions options;
  options.base_seed = 77;
  options.num_chains = 4;
  options.deals_per_epoch = 12;
  options.watchtower_every = 5;
  return options;
}

/// Admission-controlled service: capped chains and priced two-hop broker
/// chains behind the gate, so deals are delayed and hop margins are priced
/// at admission time.
TrafficOptions AdmissionServiceOptions() {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 83;
  options.block_capacity = 6;
  options.arrival = ArrivalProcess::kPoisson;
  options.mean_interarrival = 8.0;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 2;
  options.brokers.working_capital = 1500;
  options.brokers.hop_depth = 2;
  options.brokers.margin_slope = 300;
  options.admission.enabled = true;
  options.admission.max_chain_occupancy = 6;
  options.admission.retry_delay = 25;
  options.admission.max_retries = 40;
  return options;
}

/// The seal time of the first epoch under `options`: the reconfiguration
/// and crash configurations below are timed from it.
Tick FirstSealAt(const TrafficOptions& options) {
  Result<std::unique_ptr<TrafficService>> probe =
      TrafficService::Create(options);
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  return probe.value()->RunEpoch().sealed_at;
}

/// ReconfigurationBeyondTheCheckpointSurvivesRestore's configuration: a
/// validator rotation inside epoch 2.
TrafficOptions ReconfigServiceOptions() {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 80;
  options.cbc_reconfig_times = {FirstSealAt(options) + 25};
  return options;
}

/// CrashInjectionSurvivesRestore's configuration: tower kills, and broker
/// crashes whose recoveries span the epoch-1 boundary.
TrafficOptions CrashServiceOptions() {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 81;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 3;
  Tick sealed_at = FirstSealAt(options);
  options.tower_crash_every = 2;
  options.tower_crash_after = 40;
  options.tower_recover_after = 60;
  options.broker_crash_times = {sealed_at / 2, sealed_at + 30};
  options.broker_recover_after = sealed_at;
  return options;
}

/// Checkpoint() of a fresh service after `epochs` epochs.
Bytes SnapshotAfter(const TrafficOptions& options, size_t epochs) {
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  for (size_t e = 0; e < epochs; ++e) service.value()->RunEpoch();
  Result<Bytes> snapshot = service.value()->Checkpoint();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.ok() ? snapshot.value() : Bytes{};
}

/// Runs `epochs` epochs straight through and returns the final report.
ServiceReport RunStraight(const TrafficOptions& options, size_t epochs) {
  Result<std::unique_ptr<TrafficService>> service =
      TrafficService::Create(options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  for (size_t e = 0; e < epochs; ++e) service.value()->RunEpoch();
  return service.value()->Finish();
}

/// Runs `before` epochs, checkpoints, restores into a fresh service under
/// `restore_options`, runs the remaining epochs there, and returns the
/// restored service's final report.
ServiceReport RunWithRestore(const TrafficOptions& options,
                             const TrafficOptions& restore_options,
                             size_t before, size_t total) {
  Result<std::unique_ptr<TrafficService>> first =
      TrafficService::Create(options);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  for (size_t e = 0; e < before; ++e) first.value()->RunEpoch();
  Result<Bytes> snapshot = first.value()->Checkpoint();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  first.value().reset();  // the original process is gone

  Result<std::unique_ptr<TrafficService>> second =
      TrafficService::FromSnapshot(restore_options, snapshot.value());
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value()->epochs_run(), before);
  for (size_t e = before; e < total; ++e) second.value()->RunEpoch();
  return second.value()->Finish();
}

void ExpectBitIdentical(const ServiceReport& restored,
                        const ServiceReport& straight) {
  EXPECT_EQ(restored.final_fingerprint, straight.final_fingerprint);
  EXPECT_EQ(restored.Summary(), straight.Summary());
  ASSERT_EQ(restored.epoch_reports.size(), straight.epoch_reports.size());
  for (size_t e = 0; e < straight.epoch_reports.size(); ++e) {
    const EpochReport& a = restored.epoch_reports[e];
    const EpochReport& b = straight.epoch_reports[e];
    EXPECT_EQ(a.epoch_fingerprint, b.epoch_fingerprint) << "epoch " << e;
    EXPECT_EQ(a.cumulative_fingerprint, b.cumulative_fingerprint)
        << "epoch " << e;
    EXPECT_EQ(a.sealed_at, b.sealed_at) << "epoch " << e;
    EXPECT_EQ(a.gas, b.gas) << "epoch " << e;
    EXPECT_EQ(a.untagged_gas, b.untagged_gas) << "epoch " << e;
    EXPECT_EQ(a.violations, b.violations) << "epoch " << e;
  }
  EXPECT_EQ(restored.violations.size(), straight.violations.size());
  ASSERT_EQ(restored.brokers.size(), straight.brokers.size());
  for (size_t b = 0; b < straight.brokers.size(); ++b) {
    EXPECT_EQ(restored.brokers[b].coin_delta, straight.brokers[b].coin_delta);
    EXPECT_EQ(restored.brokers[b].portfolio_ok,
              straight.brokers[b].portfolio_ok);
  }
}

// --- the differential harness: every boundary, every configuration -------

TEST(CheckpointTest, RestoreAtEveryBoundaryIsBitIdentical) {
  const size_t kEpochs = 4;
  for (const TrafficOptions& options :
       {ServiceOptions(), AdmissionServiceOptions()}) {
    ServiceReport straight = RunStraight(options, kEpochs);
    EXPECT_GT(straight.committed, 0u);
    for (size_t boundary = 1; boundary < kEpochs; ++boundary) {
      ServiceReport restored =
          RunWithRestore(options, options, boundary, kEpochs);
      ExpectBitIdentical(restored, straight);
    }
  }
}

// The stronger oracle: a service that is checkpointed, destroyed and
// restored at every boundary, as the long-lived service is, writes the same
// snapshot bytes as the uninterrupted run. Nothing a restore installs may
// leak into the next checkpoint, or snapshots would grow with every restore.
TEST(CheckpointTest, RestoredServiceCheckpointsToTheStraightBytes) {
  const size_t kEpochs = 5;
  for (const TrafficOptions& options :
       {ServiceOptions(), AdmissionServiceOptions(), CrashServiceOptions(),
        ReconfigServiceOptions()}) {
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (size_t e = 1; e <= kEpochs; ++e) {
      service.value()->RunEpoch();
      Result<Bytes> snapshot = service.value()->Checkpoint();
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_EQ(snapshot.value(), SnapshotAfter(options, e))
          << "seed " << options.base_seed << " epoch " << e;
      service = TrafficService::FromSnapshot(options, snapshot.value());
      ASSERT_TRUE(service.ok()) << service.status().ToString();
    }
  }
}

TEST(CheckpointTest, AdmissionServiceExercisesTheGate) {
  // The admission-on parity configuration is only a real test if the gate
  // delays deals and prices broker hops; a one-epoch batch shows it does.
  TrafficOptions options = AdmissionServiceOptions();
  options.num_deals = 4 * options.deals_per_epoch;
  TrafficReport report = RunTraffic(options);
  EXPECT_GT(report.delayed_deals, 0u) << report.Summary();
  EXPECT_GT(report.broker_deals, 0u) << report.Summary();
  EXPECT_EQ(report.broker_hop_depth, 2u);
}

TEST(CheckpointTest, RestoreUnderDifferentThreadCountIsBitIdentical) {
  TrafficOptions one = ServiceOptions();
  one.num_threads = 1;
  ServiceReport straight = RunStraight(one, 3);
  // Validation threading must not affect results, so a snapshot taken by a
  // 1-thread process restores into an 8-thread one (and vice versa).
  TrafficOptions eight = ServiceOptions();
  eight.num_threads = 8;
  ExpectBitIdentical(RunWithRestore(one, eight, 1, 3), straight);
  ExpectBitIdentical(RunWithRestore(eight, one, 2, 3), straight);
}

TEST(CheckpointTest, RestoreWithShardedCbcIsBitIdentical) {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 78;
  options.cbc_shards = 8;
  options.cbc_xshard_every = 2;
  ServiceReport straight = RunStraight(options, 3);
  EXPECT_GT(straight.cross_shard_deals, 0u);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

TEST(CheckpointTest, RestoreWithBrokersIsBitIdentical) {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 79;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 3;
  ServiceReport straight = RunStraight(options, 3);
  EXPECT_GT(straight.broker_deals, 0u);
  ASSERT_EQ(straight.brokers.size(), 2u);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

TEST(CheckpointTest, ReconfigurationBeyondTheCheckpointSurvivesRestore) {
  // Probe one epoch to find its seal time, then schedule a validator
  // rotation INSIDE epoch 2 — after the epoch-1 checkpoint. The rotation is
  // a durable scheduler event: it must ride through serialization and
  // re-fire at its original (time, seq) position in the restored run.
  TrafficOptions probe = ServiceOptions();
  probe.base_seed = 80;
  Result<std::unique_ptr<TrafficService>> probe_service =
      TrafficService::Create(probe);
  ASSERT_TRUE(probe_service.ok());
  Tick sealed_at = probe_service.value()->RunEpoch().sealed_at;

  TrafficOptions options = probe;
  options.cbc_reconfig_times = {sealed_at + 25};
  ServiceReport straight = RunStraight(options, 3);
  ExpectBitIdentical(RunWithRestore(options, options, 1, 3), straight);
  ExpectBitIdentical(RunWithRestore(options, options, 2, 3), straight);
}

TEST(CheckpointTest, CrashInjectionSurvivesRestore) {
  // Tower and broker kills are part of the workload; a snapshot between a
  // broker's crash and her scheduled recovery must restore the crashed
  // book and the pending durable recovery event.
  TrafficOptions probe = ServiceOptions();
  probe.base_seed = 81;
  probe.brokers.num_brokers = 2;
  probe.brokers.broker_every = 3;
  Result<std::unique_ptr<TrafficService>> probe_service =
      TrafficService::Create(probe);
  ASSERT_TRUE(probe_service.ok());
  Tick sealed_at = probe_service.value()->RunEpoch().sealed_at;

  TrafficOptions options = probe;
  options.tower_crash_every = 2;
  options.tower_crash_after = 40;
  options.tower_recover_after = 60;
  options.broker_crash_times = {sealed_at / 2, sealed_at + 30};
  options.broker_recover_after = sealed_at;  // spans the epoch-1 boundary
  ServiceReport straight = RunStraight(options, 3);
  for (size_t boundary = 1; boundary < 3; ++boundary) {
    ExpectBitIdentical(RunWithRestore(options, options, boundary, 3),
                       straight);
  }
}

// --- the wire format, byte for byte ---------------------------------------

void ExpectPinned(const Bytes& snapshot, const SnapshotPin& pin,
                  const std::string& what) {
  EXPECT_EQ(snapshot.size(), pin.bytes) << what;
  EXPECT_EQ(Sha256Digest(snapshot).ToHex(), pin.sha256) << what;
}

TEST(CheckpointTest, SnapshotBytesArePinned) {
  ExpectPinned(SnapshotAfter(ServiceOptions(), 1), kGoldenServiceSnapshot[0],
               "service, epoch 1");
  ExpectPinned(SnapshotAfter(ServiceOptions(), 3), kGoldenServiceSnapshot[1],
               "service, epoch 3");
  ExpectPinned(SnapshotAfter(AdmissionServiceOptions(), 2),
               kGoldenAdmissionSnapshot, "admission, epoch 2");
  const TrafficOptions reconfig = ReconfigServiceOptions();
  const TrafficOptions crash = CrashServiceOptions();
  for (size_t boundary = 1; boundary <= 2; ++boundary) {
    const std::string at = ", epoch " + std::to_string(boundary);
    ExpectPinned(SnapshotAfter(reconfig, boundary),
                 kGoldenReconfigSnapshot[boundary - 1], "reconfig" + at);
    ExpectPinned(SnapshotAfter(crash, boundary),
                 kGoldenCrashSnapshot[boundary - 1], "crash" + at);
  }
}

TEST(CheckpointTest, BrokerServiceFinalFingerprintsArePinned) {
  const ServiceReport admission = RunStraight(AdmissionServiceOptions(), 3);
  EXPECT_EQ(admission.final_fingerprint, kGoldenFpAdmissionService)
      << admission.Summary();
  const ServiceReport crash = RunStraight(CrashServiceOptions(), 3);
  EXPECT_EQ(crash.final_fingerprint, kGoldenFpCrashService)
      << crash.Summary();
}

// --- snapshot envelope rejection -----------------------------------------

class SnapshotRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = ServiceOptions();
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options_);
    ASSERT_TRUE(service.ok());
    service.value()->RunEpoch();
    Result<Bytes> snapshot = service.value()->Checkpoint();
    ASSERT_TRUE(snapshot.ok());
    snapshot_ = snapshot.value();
  }

  std::string RestoreError(const TrafficOptions& options,
                           const Bytes& snapshot) {
    Result<std::unique_ptr<TrafficService>> restored =
        TrafficService::FromSnapshot(options, snapshot);
    EXPECT_FALSE(restored.ok());
    return restored.ok() ? "" : restored.status().ToString();
  }

  TrafficOptions options_;
  Bytes snapshot_;
};

TEST_F(SnapshotRejectTest, IntactSnapshotRestores) {
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, snapshot_);
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();
}

TEST_F(SnapshotRejectTest, BadMagic) {
  Bytes bad = snapshot_;
  bad[0] ^= 0xFF;
  EXPECT_NE(RestoreError(options_, bad).find("bad magic"), std::string::npos);
}

TEST_F(SnapshotRejectTest, UnsupportedVersion) {
  Bytes bad = snapshot_;
  bad[8] ^= 0xFF;  // envelope layout: magic[0,8) version[8,12)
  EXPECT_NE(RestoreError(options_, bad).find("unsupported snapshot version"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, Version1EnvelopeIsRejected) {
  // Version 1 also stored six service totals that later versions derive
  // from the epoch reports, and version 2 kept broker outcomes apart from
  // the pool's per-deal stakes; either payload would be misread, so both
  // are refused.
  for (uint8_t version : {1, 2}) {
    Bytes old = snapshot_;
    const uint8_t kOld[4] = {version, 0, 0, 0};  // little-endian U32 at [8,12)
    std::copy(kOld, kOld + 4, old.begin() + 8);
    EXPECT_NE(RestoreError(options_, old).find(
                  "unsupported snapshot version " + std::to_string(version) +
                  " "),
              std::string::npos);
  }
}

TEST_F(SnapshotRejectTest, OptionsMismatch) {
  TrafficOptions other = options_;
  other.base_seed += 1;
  EXPECT_NE(
      RestoreError(other, snapshot_).find("options fingerprint mismatch"),
      std::string::npos);
  // Every admission knob is part of the workload, not just the switch.
  TrafficOptions retry = options_;
  retry.admission.retry_delay += 1;
  EXPECT_NE(
      RestoreError(retry, snapshot_).find("options fingerprint mismatch"),
      std::string::npos);
}

TEST_F(SnapshotRejectTest, CorruptedPayload) {
  Bytes bad = snapshot_;
  bad[bad.size() / 2] ^= 0xFF;  // deep inside the payload blob
  EXPECT_NE(RestoreError(options_, bad).find("payload digest mismatch"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, TruncatedSnapshot) {
  Bytes bad(snapshot_.begin(), snapshot_.begin() + snapshot_.size() / 2);
  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, bad);
  EXPECT_FALSE(restored.ok());
}

TEST_F(SnapshotRejectTest, ResealedHugeShardEpoch) {
  // The payload digest is unkeyed: whoever can write the file can edit the
  // payload and re-seal it. With brokers off the payload ends with the
  // shard epochs (4 bytes per shard, one shard here) and then the broker
  // pool flag. An epoch these options cannot reach must be rejected up
  // front — replaying 2^32 - 1 validator rotations would hang the restore.
  const size_t payload_at = 8 + 4 + 8 + 4;  // magic, version, options, size
  const size_t digest_at = snapshot_.size() - 32;
  Bytes bad = snapshot_;
  for (size_t i = digest_at - 5; i < digest_at - 1; ++i) bad[i] = 0xFF;
  Hash256 digest = Sha256Digest(
      Bytes(bad.begin() + payload_at, bad.begin() + digest_at));
  std::copy(digest.bytes.begin(), digest.bytes.end(),
            bad.begin() + digest_at);

  Result<std::unique_ptr<TrafficService>> restored =
      TrafficService::FromSnapshot(options_, bad);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().ToString().find("shard epoch 4294967295"),
            std::string::npos)
      << restored.status().ToString();
}

TEST_F(SnapshotRejectTest, AppendedByte) {
  Bytes bad = snapshot_;
  bad.push_back(0);
  EXPECT_NE(RestoreError(options_, bad).find("trailing bytes"),
            std::string::npos);
}

// --- resealed hostile payloads -------------------------------------------

/// Envelope layout: magic, version, options fingerprint, payload size.
constexpr size_t kPayloadAt = 8 + 4 + 8 + 4;

/// Re-seals the payload digest after an edit, as anyone who can write the
/// file can, so the edit reaches the payload decoders.
void Reseal(Bytes* snapshot) {
  const size_t digest_at = snapshot->size() - 32;
  Hash256 digest = Sha256Digest(Bytes(snapshot->begin() + kPayloadAt,
                                      snapshot->begin() + digest_at));
  std::copy(digest.bytes.begin(), digest.bytes.end(),
            snapshot->begin() + digest_at);
}

/// Offset of the first deal's first stake's `broker` field inside a
/// broker-enabled snapshot. The broker pool is the last blob of the
/// payload, right after its presence flag; it is walked up to that stake.
size_t FirstStakeBrokerAt(const Bytes& snapshot) {
  const size_t end = snapshot.size() - 32;
  size_t book = 0;
  for (size_t at = kPayloadAt + 5; at < end && book == 0; ++at) {
    uint32_t len = 0;
    for (size_t i = 0; i < 4; ++i) {
      len |= uint32_t{snapshot[at - 4 + i]} << (8 * i);
    }
    if (snapshot[at - 5] == 1 && len == end - at) book = at;
  }
  EXPECT_NE(book, 0u) << "no broker pool in the snapshot";
  Bytes blob(snapshot.begin() + book, snapshot.begin() + end);
  ByteReader r(blob);
  const uint32_t brokers = r.U32().value();
  for (uint32_t b = 0; b < brokers; ++b) r.U32().value();
  for (uint32_t a = 0; a <= brokers; ++a) {  // the coin, then commodities
    r.U32().value();
    r.U32().value();
    r.U8().value();
    r.Str().value();
  }
  for (uint32_t b = 0; b < brokers; ++b) r.U8().value();  // crash flags
  EXPECT_GT(r.U64().value(), 0u) << "the pool holds no deals";
  r.U64().value();  // the deal's index
  EXPECT_GT(r.U32().value(), 0u) << "the first deal has no stakes";
  return end - r.remaining();
}

/// Encoded size of one stake: broker, asset, then capital, inventory,
/// margin and occupancy.
constexpr size_t kStakeBytes = 8 + 4 + 4 * 8;

/// The broker-enabled service of RestoreWithBrokersIsBitIdentical
/// (single-hop plans).
TrafficOptions BrokerServiceOptions() {
  TrafficOptions options = ServiceOptions();
  options.base_seed = 79;
  options.brokers.num_brokers = 2;
  options.brokers.broker_every = 3;
  return options;
}

void WriteU64At(Bytes* snapshot, size_t at, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) (*snapshot)[at + i] = uint8_t(v >> (8 * i));
}

TEST_F(SnapshotRejectTest, ResealedPlanBrokerOutOfRange) {
  // A single-broker deal's stake naming broker 99 in a 2-broker pool used
  // to restore, and the final report then indexed the per-broker records
  // out of bounds.
  const TrafficOptions options = BrokerServiceOptions();
  Bytes bad = SnapshotAfter(options, 1);
  WriteU64At(&bad, FirstStakeBrokerAt(bad), 99);
  Reseal(&bad);
  EXPECT_NE(RestoreError(options, bad).find("broker 99 out of range"),
            std::string::npos);
}

TEST_F(SnapshotRejectTest, ResealedHopBrokerOutOfRange) {
  // The same for the second hop of a two-hop resale chain: its stake
  // follows the first hop's.
  const TrafficOptions options = AdmissionServiceOptions();
  Bytes bad = SnapshotAfter(options, 2);
  WriteU64At(&bad, FirstStakeBrokerAt(bad) + kStakeBytes, 99);
  Reseal(&bad);
  EXPECT_NE(RestoreError(options, bad).find("broker 99 out of range"),
            std::string::npos);
}

TEST(SnapshotMutationTest, ResealedByteMutationsAreRejectedOrRestoreCleanly) {
  // Seeded single-byte mutations anywhere in the payload, resealed so each
  // reaches the decoders. Each must be refused with a Status, or restore a
  // service whose Finish() and Checkpoint() both complete: no crash, no
  // hang, no length-driven huge allocation.
  const size_t kMutations = 1000;
  struct Case {
    TrafficOptions options;
    size_t epochs;
  };
  for (const Case& c : {Case{ServiceOptions(), 1},
                        Case{AdmissionServiceOptions(), 2}}) {
    const Bytes snapshot = SnapshotAfter(c.options, c.epochs);
    const size_t payload_size = snapshot.size() - 32 - kPayloadAt;
    Rng rng(0x6d757461);
    size_t rejected = 0;
    for (size_t m = 0; m < kMutations; ++m) {
      Bytes bad = snapshot;
      const size_t at = kPayloadAt + rng.Below(payload_size);
      bad[at] ^= static_cast<uint8_t>(rng.Between(1, 255));
      Reseal(&bad);
      Result<std::unique_ptr<TrafficService>> restored =
          TrafficService::FromSnapshot(c.options, bad);
      if (!restored.ok()) {
        ++rejected;
        continue;
      }
      restored.value()->Finish();
      restored.value()->Checkpoint();
    }
    EXPECT_GT(rejected, 0u);
  }
}

// --- service-mode preconditions ------------------------------------------

TEST(CheckpointTest, ServiceModeRequiresEpochSize) {
  TrafficOptions no_epoch = ServiceOptions();
  no_epoch.deals_per_epoch = 0;
  EXPECT_FALSE(TrafficService::Create(no_epoch).ok());
}

// --- one engine: a batch run is one service epoch ------------------------

TEST(CheckpointTest, RunTrafficIsOneServiceEpoch) {
  for (TrafficOptions options : {GoldenMixedOptions(), GoldenCbcOptions()}) {
    options.deals_per_epoch = options.num_deals;
    Result<std::unique_ptr<TrafficService>> service =
        TrafficService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service.value()->RunEpoch();
    EXPECT_EQ(RunTraffic(options).fingerprint,
              service.value()->Finish().final_fingerprint);
  }
}

}  // namespace
}  // namespace xdeal
