// Micro-benchmark: per-signature vs batched Schnorr verification for CBC
// status certificates.
//
// A CBC status certificate carries 2f+1 validator signatures over the same
// status message; every escrow "decide" call verifies all of them. The
// classic path is 2f+1 independent Verify() calls (two full modular
// exponentiations each); the batched path (crypto/schnorr.h BatchVerify)
// reduces the whole certificate to ONE combined check evaluated as a single
// shared-squaring multi-exponentiation. This bench measures both paths at
// f ∈ {1, 2, 4} (k = 2f+1 signatures) over a population of distinct
// certificates, checks they agree — including a corrupted certificate that
// must fall back and name the culprit — and emits the costs into the BENCH
// JSON family (crypto_* metrics; wall-clock, so never baseline-gated — the
// conformance_ok bit is the exact-gated part).
//
// A single-signature row times Verify alone, the cost of a timelock path
// vote (every Verify call of a traffic run is one), and fails if Verify and
// a one-item BatchVerify disagree on any sampled signature: valid, with s
// lifted to s + n (still valid), or with s corrupted.
//
// It also measures SHA-256 throughput on 64-byte and 1 MiB messages, through
// the portable compress and through the dispatched one (the SHA-NI kernel
// where the CPU has it), and fails if the two paths ever disagree.
//
// Usage:  bench_crypto_micro [--fs=1,2,4] [--certs=200]
//                            [--json=BENCH_crypto_micro.json] [--seed=1]
// --certs is the number of certificates per f and of single signatures.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"

namespace xdeal {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One synthetic status certificate: k validators, each signing the same
/// status message — exactly the shape VerifyQuorum batches.
struct Cert {
  std::vector<BatchItem> items;
};

std::vector<Cert> MakeCerts(size_t num_certs, size_t k, size_t f,
                            uint64_t seed) {
  // Keys model a fixed validator committee: derived once per f, shared by
  // every certificate, like a CbcService shard's committee.
  std::vector<KeyPair> committee;
  committee.reserve(k);
  for (size_t v = 0; v < k; ++v) {
    committee.push_back(KeyPair::FromSeed("crypto-micro-" +
                                          std::to_string(seed) + "-f" +
                                          std::to_string(f) + "-v" +
                                          std::to_string(v)));
  }
  std::vector<Cert> certs(num_certs);
  for (size_t c = 0; c < num_certs; ++c) {
    std::string message = "status-cert-" + std::to_string(seed) + "-f" +
                          std::to_string(f) + "-" + std::to_string(c);
    Bytes bytes(message.begin(), message.end());
    certs[c].items.reserve(k);
    for (size_t v = 0; v < k; ++v) {
      certs[c].items.push_back(
          {committee[v].public_key(), bytes, committee[v].Sign(bytes)});
    }
  }
  return certs;
}

bool RunMicro(size_t f, size_t num_certs, uint64_t seed,
              bench::JsonReport* json) {
  const size_t k = 2 * f + 1;
  std::vector<Cert> certs = MakeCerts(num_certs, k, f, seed);

  // Path 1: per-signature verification, 2f+1 Verify() calls per cert.
  auto start = std::chrono::steady_clock::now();
  size_t per_sig_valid = 0;
  for (const Cert& cert : certs) {
    bool all = true;
    for (const BatchItem& item : cert.items) {
      all = Verify(item.key, item.message, item.sig) && all;
    }
    if (all) ++per_sig_valid;
  }
  double per_cert_ms = WallMs(start);

  // Path 2: one BatchVerify per cert.
  start = std::chrono::steady_clock::now();
  size_t batch_valid = 0;
  size_t fallbacks = 0;
  for (const Cert& cert : certs) {
    BatchVerifyResult verdict = BatchVerify(cert.items);
    if (verdict.ok) ++batch_valid;
    if (verdict.used_fallback) ++fallbacks;
  }
  double batch_ms = WallMs(start);

  bool ok = true;
  if (per_sig_valid != num_certs || batch_valid != num_certs ||
      fallbacks != 0) {
    std::printf("CRYPTO MICRO FAILURE: f=%zu valid per-sig %zu batch %zu "
                "fallbacks %zu (want %zu/%zu/0)\n",
                f, per_sig_valid, batch_valid, fallbacks, num_certs,
                num_certs);
    ok = false;
  }

  // Equivalence under corruption: flip one signature in the middle of a
  // cert; the batch must fail, report the fallback ran, and name exactly
  // that index.
  Cert corrupted = certs[0];
  const int bad_index = static_cast<int>(k / 2);
  corrupted.items[bad_index].sig.s =
      corrupted.items[bad_index].sig.s.Add(U256(1));
  BatchVerifyResult verdict = BatchVerify(corrupted.items);
  if (verdict.ok || !verdict.used_fallback || verdict.first_bad != bad_index) {
    std::printf("CRYPTO MICRO FAILURE: f=%zu corrupted cert verdict ok=%d "
                "fallback=%d first_bad=%d (want 0/1/%d)\n",
                f, verdict.ok ? 1 : 0, verdict.used_fallback ? 1 : 0,
                verdict.first_bad, bad_index);
    ok = false;
  }

  double sigs = static_cast<double>(num_certs * k);
  double per_cert_sigs_per_sec = sigs / (per_cert_ms / 1000.0);
  double batch_sigs_per_sec = sigs / (batch_ms / 1000.0);
  double speedup = batch_ms > 0.0 ? per_cert_ms / batch_ms : 0.0;
  std::printf("%3zu %3zu %7zu %14.1f %14.1f %11.0f %11.0f %8.2fx\n", f, k,
              num_certs, per_cert_ms, batch_ms, per_cert_sigs_per_sec,
              batch_sigs_per_sec, speedup);

  bench::JsonReport::Labels labels = {{"f", std::to_string(f)}};
  json->AddMetric("crypto_percert_wall_ms", per_cert_ms, "ms", labels);
  json->AddMetric("crypto_batch_wall_ms", batch_ms, "ms", labels);
  json->AddMetric("crypto_percert_sigs_per_sec", per_cert_sigs_per_sec,
                  "1/s", labels);
  json->AddMetric("crypto_batch_sigs_per_sec", batch_sigs_per_sec, "1/s",
                  labels);
  json->AddMetric("crypto_batch_speedup", speedup, "x", labels);
  return ok;
}

/// Verify throughput on `num_sigs` single signatures from distinct keys,
/// written as crypto_verify_sigs_per_sec; then Verify and a one-item
/// BatchVerify must agree on each signature in three forms.
bool RunSingle(size_t num_sigs, uint64_t seed, bench::JsonReport* json) {
  const U256& n = SchnorrGroup::N();
  std::vector<BatchItem> votes;
  votes.reserve(num_sigs);
  for (size_t i = 0; i < num_sigs; ++i) {
    KeyPair kp = KeyPair::FromSeed("crypto-micro-" + std::to_string(seed) +
                                   "-voter-" + std::to_string(i));
    std::string message = "path-vote-" + std::to_string(seed) + "-" +
                          std::to_string(i);
    Bytes bytes(message.begin(), message.end());
    votes.push_back({kp.public_key(), bytes, kp.Sign(bytes)});
  }

  auto start = std::chrono::steady_clock::now();
  size_t valid = 0;
  for (const BatchItem& vote : votes) {
    if (Verify(vote.key, vote.message, vote.sig)) ++valid;
  }
  const double ms = WallMs(start);
  const double sigs_per_sec = static_cast<double>(num_sigs) / (ms / 1000.0);
  std::printf("%7zu %14.1f %11.0f\n", num_sigs, ms, sigs_per_sec);
  json->AddMetric("crypto_verify_sigs_per_sec", sigs_per_sec, "1/s");

  bool ok = valid == num_sigs;
  if (!ok) {
    std::printf("CRYPTO MICRO FAILURE: %zu of %zu single signatures "
                "verify\n", valid, num_sigs);
  }
  for (size_t i = 0; i < num_sigs; ++i) {
    BatchItem lifted = votes[i];
    lifted.sig.s = lifted.sig.s.Add(n);
    BatchItem corrupted = votes[i];
    corrupted.sig.s = U256::AddMod(corrupted.sig.s, U256(1), n);
    for (const BatchItem& item : {votes[i], lifted, corrupted}) {
      const bool single = Verify(item.key, item.message, item.sig);
      const bool batch = BatchVerify({item}).ok;
      if (single != batch) {
        std::printf("CRYPTO MICRO FAILURE: signature %zu (s=%s): Verify %d, "
                    "one-item BatchVerify %d\n",
                    i, item.sig.s.ToHex().c_str(), single ? 1 : 0,
                    batch ? 1 : 0);
        ok = false;
      }
    }
  }
  return ok;
}

/// SHA-256 MB/s on the portable and the dispatched compress, for 64-byte
/// and 1 MiB messages. Each digest is written into the next message, so
/// equal final digests mean the two paths agreed on every message.
bool RunSha256(bench::JsonReport* json) {
  namespace internal = sha256_internal;
  struct Case {
    size_t bytes;
    size_t reps;
  };
  const Case cases[] = {{64, 200000}, {size_t{1} << 20, 64}};
  const internal::CompressFn dispatched = internal::DispatchedCompress();
  const bool sha_ni = dispatched == internal::ShaNiCompress();
  const internal::CompressFn paths[2] = {&internal::CompressPortable,
                                         dispatched};
  const char* path_names[2] = {"portable", "dispatched"};
  json->AddConfig("sha256_dispatch", sha_ni ? "sha_ni" : "portable");

  std::printf("\n=== SHA-256: portable vs dispatched compress (%s) ===\n",
              sha_ni ? "SHA-NI" : "portable");
  std::printf("%9s %7s %15s %17s %9s\n", "bytes", "reps", "portable MB/s",
              "dispatched MB/s", "speedup");
  bool ok = true;
  for (const Case& c : cases) {
    double mb_per_sec[2];
    Hash256 last[2];
    for (int p = 0; p < 2; ++p) {
      Bytes message(c.bytes, 0x5a);
      Hash256 digest;
      auto start = std::chrono::steady_clock::now();
      for (size_t r = 0; r < c.reps; ++r) {
        std::copy(digest.bytes.begin(), digest.bytes.end(), message.begin());
        digest = internal::DigestWith(paths[p], message.data(), c.bytes);
      }
      double ms = WallMs(start);
      mb_per_sec[p] =
          static_cast<double>(c.bytes * c.reps) / 1e6 / (ms / 1000.0);
      last[p] = digest;
      json->AddMetric("crypto_sha256_mb_per_sec", mb_per_sec[p], "MB/s",
                      {{"path", path_names[p]},
                       {"bytes", std::to_string(c.bytes)}});
    }
    if (last[0] != last[1]) {
      std::printf("CRYPTO MICRO FAILURE: SHA-256 paths disagree on %zu-byte "
                  "messages (portable %s, dispatched %s)\n",
                  c.bytes, last[0].ShortHex().c_str(),
                  last[1].ShortHex().c_str());
      ok = false;
    }
    std::printf("%9zu %7zu %15.1f %17.1f %8.2fx\n", c.bytes, c.reps,
                mb_per_sec[0], mb_per_sec[1], mb_per_sec[1] / mb_per_sec[0]);
  }
  return ok;
}

}  // namespace
}  // namespace xdeal

int main(int argc, char** argv) {
  using namespace xdeal;
  const char* json_path = bench::FlagValue(argc, argv, "json");
  const char* seed_flag = bench::FlagValue(argc, argv, "seed");
  const char* certs_flag = bench::FlagValue(argc, argv, "certs");
  uint64_t seed =
      seed_flag != nullptr ? std::strtoull(seed_flag, nullptr, 10) : 1;
  size_t num_certs =
      certs_flag != nullptr ? std::strtoull(certs_flag, nullptr, 10) : 200;
  if (num_certs == 0) num_certs = 1;
  std::vector<size_t> fs = bench::ParseSizeList(
      bench::FlagValue(argc, argv, "fs"), {1, 2, 4});

  bench::JsonReport json("crypto_micro");
  json.AddConfig("seed", seed);
  json.AddConfig("certs", static_cast<uint64_t>(num_certs));

  std::printf("=== Schnorr certificate verification: per-signature vs one "
              "batched multi-exponentiation ===\n");
  std::printf("%3s %3s %7s %14s %14s %11s %11s %9s\n", "f", "k", "certs",
              "per-cert (ms)", "batched (ms)", "sigs/s", "batch sigs/s",
              "speedup");
  bool ok = true;
  for (size_t f : fs) {
    if (f == 0) continue;
    ok = RunMicro(f, num_certs, seed, &json) && ok;
  }
  std::printf("\n=== Schnorr single-signature verification (a path vote) "
              "===\n");
  std::printf("%7s %14s %11s\n", "sigs", "Verify (ms)", "sigs/s");
  ok = RunSingle(num_certs, seed, &json) && ok;
  ok = RunSha256(&json) && ok;
  // The exact-gated conformance bit: both verification paths agreed on
  // every cert and every single signature, blame attribution worked, and
  // both SHA-256 compress paths agreed. The wall-clock metrics above are
  // advisory.
  json.AddMetric("conformance_ok", ok ? 1 : 0);

  if (json_path != nullptr && !json.WriteFile(json_path)) ok = false;
  if (!ok) std::printf("CRYPTO MICRO FAILED\n");
  return ok ? 0 : 1;
}
