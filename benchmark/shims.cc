// Per-layer spans for xbench_traced, taken from outside the program.
//
// The link wraps each XB_SHIM symbol below (-Wl,--wrap=<symbol>, generated
// by CMakeLists.txt from these lines): every call into it from another
// object file lands in __wrap_<symbol>, which opens a span, calls
// __real_<symbol> (the original definition) and closes the span. Calls made
// inside the defining source file are not wrapped, so a layer's span covers
// exactly its public entry points.
//
// A span has a layer, a start, an end, a parent (the enclosing span on the
// same thread) and a cause: the driver call in progress when it opened
// (RunTraffic, RunEpoch, FromSnapshot, ...), so worker-thread spans are
// charged to the call that spawned them. Open spans live on a per-thread
// stack; a closing span is folded at once into per-thread (cause, layer)
// totals of calls, duration and self time (duration minus the time its
// child spans cover), so memory stays constant however long the run. The
// driver reads the merged table once, after the measured loop.
//
// __real_ references are weak: if a later change renames or drops a wrapped
// function the shim is simply never called, the layer reads zero, and
// run.py names the symbol as unresolved.

#include <time.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cbc/cbc_service.h"
#include "cbc/types.h"
#include "chain/blockchain.h"
#include "chain/world.h"
#include "core/broker_pool.h"
#include "core/checker.h"
#include "core/scenario_sweep.h"
#include "core/traffic_engine.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "sim/scheduler.h"
#include "util/serialize.h"

namespace {

using namespace xdeal;

enum Layer : uint8_t {
  kKeygen,
  kSign,
  kVerify,
  kBatchVerify,
  kSha256,
  kCbcVerifyProof,
  kCbcDecideProof,
  kCbcSetup,
  kSimLoop,
  kChainSubmit,
  kChainDeploy,
  kChecker,
  kSnapshotEncode,
  kSnapshotDecode,
  // The driver's own calls: root spans, and the cause of every span opened
  // while they run.
  kRunTraffic,
  kRunEpoch,
  kCreate,
  kCheckpoint,
  kFromSnapshot,
  kRunExhaustiveSweep,
  kRunSweep,
  kNumLayers
};
constexpr uint8_t kFirstCall = kRunTraffic;
constexpr uint8_t kNoCall = kNumLayers;

const char* const kLayerNames[kNumLayers] = {
    "crypto.keygen",    "crypto.sign",      "crypto.verify",
    "crypto.batch_verify", "crypto.sha256", "cbc.verify_proof",
    "cbc.decide_proof", "cbc.setup",        "sim.loop",
    "chain.submit",     "chain.deploy",     "core.checker",
    "snapshot.encode",  "snapshot.decode",  "RunTraffic",
    "RunEpoch",         "Create",           "Checkpoint",
    "FromSnapshot",     "RunExhaustiveSweep", "RunSweep"};

uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Totals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

struct Frame {
  uint8_t layer = 0;
  uint8_t cause = kNoCall;
  uint64_t start_ns = 0;
  uint64_t child_ns = 0;
};

struct ThreadLog {
  Totals totals[kNoCall + 1][kNumLayers];
  std::vector<Frame> stack;  // open spans, innermost last
  uint64_t sim_events = 0;
  uint64_t batch_fallbacks = 0;
};

// The driver is single-threaded, so its call in progress is one global.
std::atomic<uint8_t> g_call{kNoCall};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  // guarded by g_logs_mu

ThreadLog& Log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    log = owned.get();
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::move(owned));
  }
  return *log;
}

class Scope {
 public:
  explicit Scope(Layer layer) : log_(Log()) {
    Frame f;
    f.layer = layer;
    f.cause = g_call.load(std::memory_order_relaxed);
    if (layer >= kFirstCall) {
      previous_call_ = f.cause;
      f.cause = layer;
      g_call.store(layer, std::memory_order_relaxed);
    }
    f.start_ns = NowNs();
    log_.stack.push_back(f);
  }

  ~Scope() {
    const uint64_t end_ns = NowNs();
    const Frame f = log_.stack.back();
    log_.stack.pop_back();
    const uint64_t duration = end_ns - f.start_ns;
    Totals& t = log_.totals[f.cause][f.layer];
    ++t.calls;
    t.total_ns += duration;
    t.self_ns += duration - f.child_ns;
    if (!log_.stack.empty()) log_.stack.back().child_ns += duration;
    if (f.layer >= kFirstCall) {
      g_call.store(previous_call_, std::memory_order_relaxed);
    }
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ThreadLog& log() { return log_; }

 private:
  ThreadLog& log_;
  uint8_t previous_call_ = kNoCall;
};

}  // namespace

/// Drops everything recorded so far (the driver's set-up and warm-up). Call
/// with no span open and no worker thread running.
extern "C" void xbench_trace_reset() {
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const std::unique_ptr<ThreadLog>& log : g_logs) {
    for (auto& row : log->totals) {
      for (Totals& t : row) t = Totals{};
    }
    log->sim_events = log->batch_fallbacks = 0;
  }
}

/// The merged span table as JSON:
///   {"spans": {"<cause>": {"<layer>": [calls, total_ns, self_ns], ...}, ...},
///    "sim_events": n, "batch_fallbacks": n}
/// where <cause> is a driver call name or "none". Read it after every worker
/// thread has been joined.
extern "C" const char* xbench_trace_report() {
  static std::string json;
  Totals merged[kNoCall + 1][kNumLayers] = {};
  uint64_t sim_events = 0, batch_fallbacks = 0;
  {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    for (const std::unique_ptr<ThreadLog>& log : g_logs) {
      for (int c = 0; c <= kNoCall; ++c) {
        for (int l = 0; l < kNumLayers; ++l) {
          merged[c][l].calls += log->totals[c][l].calls;
          merged[c][l].total_ns += log->totals[c][l].total_ns;
          merged[c][l].self_ns += log->totals[c][l].self_ns;
        }
      }
      sim_events += log->sim_events;
      batch_fallbacks += log->batch_fallbacks;
    }
  }
  json = "{\"spans\": {";
  const char* cause_sep = "";
  for (int c = 0; c <= kNoCall; ++c) {
    std::string layers;
    for (int l = 0; l < kNumLayers; ++l) {
      const Totals& t = merged[c][l];
      if (t.calls == 0) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": [%" PRIu64 ", %" PRIu64 ", %" PRIu64 "]",
                    layers.empty() ? "" : ", ", kLayerNames[l], t.calls,
                    t.total_ns, t.self_ns);
      layers += buf;
    }
    if (layers.empty()) continue;
    json += cause_sep;
    json += "\"";
    json += c == kNoCall ? "none" : kLayerNames[c];
    json += "\": {" + layers + "}";
    cause_sep = ", ";
  }
  json += "}, \"sim_events\": " + std::to_string(sim_events) +
          ", \"batch_fallbacks\": " + std::to_string(batch_fallbacks) + "}";
  return json.c_str();
}

// XB_SHIM(layer, symbol, return type, (parameters), (arguments)) defines the
// wrapper of one mangled symbol. Member functions take `self` first, as the
// Itanium C++ ABI passes `this`. XB_SHIM_THEN also runs `after` on `result`.
#define XB_SHIM(layer, sym, Ret, PARAMS, ARGS)          \
  extern "C" Ret __real_##sym PARAMS __attribute__((weak)); \
  extern "C" Ret __wrap_##sym PARAMS {                  \
    Scope scope(layer);                                 \
    return __real_##sym ARGS;                           \
  }
#define XB_SHIM_THEN(layer, sym, Ret, PARAMS, ARGS, after)  \
  extern "C" Ret __real_##sym PARAMS __attribute__((weak)); \
  extern "C" Ret __wrap_##sym PARAMS {                  \
    Scope scope(layer);                                 \
    Ret result = __real_##sym ARGS;                     \
    after;                                              \
    return result;                                      \
  }

using Factory = Blockchain::ContractFactory;

// crypto: Schnorr keygen, sign, verify, batch verify; SHA-256.
XB_SHIM(kKeygen, _ZN5xdeal7KeyPair8FromSeedESt17basic_string_viewIcSt11char_traitsIcEE,
        KeyPair, (std::string_view seed), (seed))
XB_SHIM(kSign, _ZNK5xdeal7KeyPair4SignERKSt6vectorIhSaIhEE,
        Signature, (const KeyPair* self, const Bytes& m), (self, m))
XB_SHIM(kSign, _ZNK5xdeal7KeyPair4SignESt17basic_string_viewIcSt11char_traitsIcEE,
        Signature, (const KeyPair* self, std::string_view m), (self, m))
XB_SHIM(kVerify, _ZN5xdeal6VerifyERKNS_9PublicKeyERKSt6vectorIhSaIhEERKNS_9SignatureE,
        bool, (const PublicKey& k, const Bytes& m, const Signature& s), (k, m, s))
XB_SHIM(kVerify, _ZN5xdeal6VerifyERKNS_9PublicKeyESt17basic_string_viewIcSt11char_traitsIcEERKNS_9SignatureE,
        bool, (const PublicKey& k, std::string_view m, const Signature& s), (k, m, s))
XB_SHIM_THEN(kBatchVerify, _ZN5xdeal11BatchVerifyERKSt6vectorINS_9BatchItemESaIS1_EE,
        BatchVerifyResult, (const std::vector<BatchItem>& items), (items),
        scope.log().batch_fallbacks += result.used_fallback ? 1 : 0)
XB_SHIM(kSha256, _ZN5xdeal12Sha256DigestERKSt6vectorIhSaIhEE,
        Hash256, (const Bytes& data), (data))
XB_SHIM(kSha256, _ZN5xdeal12Sha256DigestESt17basic_string_viewIcSt11char_traitsIcEE,
        Hash256, (std::string_view data), (data))

// cbc: proof verification, decide proofs, shard and validator set-up.
XB_SHIM(kCbcVerifyProof, _ZN5xdeal14VerifyCbcProofERKNS_8CbcProofERKNS_7Hash256ES5_RKSt6vectorINS_9PublicKeyESaIS7_EEjPNS_8GasMeterE,
        Result<DealOutcome>,
        (const CbcProof& p, const Hash256& d, const Hash256& s,
         const std::vector<PublicKey>& v, uint32_t e, GasMeter* g),
        (p, d, s, v, e, g))
XB_SHIM(kCbcDecideProof, _ZNK5xdeal10CbcService16IssueDecideProofERKNS_14CbcLogContractERKNS_7Hash256Ej,
        DecideProof,
        (const CbcService* self, const CbcLogContract& log, const Hash256& d,
         uint32_t e),
        (self, log, d, e))
XB_SHIM(kCbcSetup, _ZN5xdeal10CbcServiceC1EPNS_5WorldENS0_7OptionsE,
        void, (CbcService* self, World* w, CbcService::Options o),
        (self, w, std::move(o)))
XB_SHIM(kCbcSetup, _ZN5xdeal10CbcService6AttachEPNS_5WorldENS0_7OptionsERKSt6vectorIjSaIjEE,
        std::unique_ptr<CbcService>,
        (World* w, CbcService::Options o, const std::vector<uint32_t>& e),
        (w, std::move(o), e))
XB_SHIM(kCbcSetup, _ZN5xdeal10CbcService11ReconfigureEm,
        ReconfigCertificate, (CbcService* self, size_t shard), (self, shard))

// sim: the event loop. Run reports how many events it executed.
XB_SHIM_THEN(kSimLoop, _ZN5xdeal9Scheduler3RunEm,
        size_t, (Scheduler* self, Tick limit), (self, limit),
        scope.log().sim_events += result)
XB_SHIM_THEN(kSimLoop, _ZN5xdeal9Scheduler4StepEv,
        bool, (Scheduler* self), (self),
        scope.log().sim_events += result ? 1 : 0)

// chain: transaction submission and contract deployment.
XB_SHIM(kChainSubmit, _ZN5xdeal5World6SubmitENS_7PartyIdENS_7ChainIdENS_10ContractIdENS_8CallDataENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEm,
        void,
        (World* self, PartyId from, ChainId chain, ContractId contract,
         CallData call, std::string tag, uint64_t deal_tag),
        (self, from, chain, contract, std::move(call), std::move(tag), deal_tag))
XB_SHIM(kChainDeploy, _ZN5xdeal10Blockchain6DeployESt10unique_ptrINS_8ContractESt14default_deleteIS2_EE,
        ContractId, (Blockchain* self, std::unique_ptr<Contract> c),
        (self, std::move(c)))

// core.checker: the per-deal property checks.
XB_SHIM(kChecker, _ZN5xdeal11DealChecker14CaptureInitialEv,
        void, (DealChecker* self), (self))
XB_SHIM(kChecker, _ZNK5xdeal11DealChecker11SafetyHoldsERKSt6vectorINS_7PartyIdESaIS2_EE,
        bool, (const DealChecker* self, const std::vector<PartyId>& c), (self, c))
XB_SHIM(kChecker, _ZNK5xdeal11DealChecker17WeakLivenessHoldsERKSt6vectorINS_7PartyIdESaIS2_EE,
        bool, (const DealChecker* self, const std::vector<PartyId>& c), (self, c))
XB_SHIM(kChecker, _ZNK5xdeal11DealChecker19StrongLivenessHoldsEv,
        bool, (const DealChecker* self), (self))
XB_SHIM(kChecker, _ZNK5xdeal11DealChecker6AtomicEv,
        bool, (const DealChecker* self), (self))

// snapshot: encoding and decoding of World, chains and broker pool.
XB_SHIM(kSnapshotEncode, _ZNK5xdeal5World10CheckpointEPNS_10ByteWriterE,
        Status, (const World* self, ByteWriter* w), (self, w))
XB_SHIM(kSnapshotEncode, _ZNK5xdeal10Blockchain10CheckpointEPNS_10ByteWriterE,
        Status, (const Blockchain* self, ByteWriter* w), (self, w))
XB_SHIM(kSnapshotEncode, _ZNK5xdeal10BrokerPool10CheckpointEPNS_10ByteWriterE,
        Status, (const BrokerPool* self, ByteWriter* w), (self, w))
XB_SHIM(kSnapshotDecode, _ZN5xdeal5World7RestoreERNS_10ByteReaderERKSt8functionIFSt10unique_ptrINS_8ContractESt14default_deleteIS5_EERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEE,
        Status, (World* self, ByteReader& r, const Factory& f), (self, r, f))
XB_SHIM(kSnapshotDecode, _ZN5xdeal10Blockchain7RestoreERNS_10ByteReaderERKSt8functionIFSt10unique_ptrINS_8ContractESt14default_deleteIS5_EERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEEE,
        Status, (Blockchain* self, ByteReader& r, const Factory& f), (self, r, f))
XB_SHIM(kSnapshotDecode, _ZN5xdeal10BrokerPool7RestoreERNS_10ByteReaderE,
        Status, (BrokerPool* self, ByteReader& r), (self, r))

// The driver's calls.
XB_SHIM(kRunTraffic, _ZN5xdeal10RunTrafficERKNS_14TrafficOptionsE,
        TrafficReport, (const TrafficOptions& o), (o))
XB_SHIM(kRunEpoch, _ZN5xdeal14TrafficService8RunEpochEv,
        EpochReport, (TrafficService* self), (self))
XB_SHIM(kCreate, _ZN5xdeal14TrafficService6CreateERKNS_14TrafficOptionsE,
        Result<std::unique_ptr<TrafficService>>, (const TrafficOptions& o), (o))
XB_SHIM(kCheckpoint, _ZN5xdeal14TrafficService10CheckpointEv,
        Result<Bytes>, (TrafficService* self), (self))
XB_SHIM(kFromSnapshot, _ZN5xdeal14TrafficService12FromSnapshotERKNS_14TrafficOptionsERKSt6vectorIhSaIhEE,
        Result<std::unique_ptr<TrafficService>>,
        (const TrafficOptions& o, const Bytes& snapshot), (o, snapshot))
XB_SHIM(kRunExhaustiveSweep, _ZN5xdeal18RunExhaustiveSweepERKNS_9SweepAxesERKNS_12SweepOptionsE,
        ExhaustiveSweepReport, (const SweepAxes& a, const SweepOptions& o), (a, o))
XB_SHIM(kRunSweep, _ZN5xdeal8RunSweepERKNS_9SweepAxesERKNS_12SweepOptionsE,
        SweepReport, (const SweepAxes& a, const SweepOptions& o), (a, o))
