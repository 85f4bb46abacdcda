// Experiment E6 — reproduces Figure 7 (delays under synchronous
// communication).
//
// Paper's table:
//   Protocol  Escrow  Transfer   Validation  Commit      Abort
//   Timelock  Δ       tΔ or Δ    Δ           O(n)Δ       O(n)Δ
//   CBC       Δ       tΔ or Δ    Δ           O(1)Δ       per-party timeout
//
// Δ here is the environment's one-hop bound (network delay + block
// inclusion). We report each phase's measured duration in ticks and as a
// multiple of Δ. Expected shape: escrow ~1 hop regardless of m; transfers
// t hops sequential vs ~1 hop parallel; timelock commit grows with n when
// votes propagate along the digraph but stays ~1 hop with direct
// (altruistic) voting; CBC commit is a constant number of hops in n.

#include <cinttypes>
#include <cstdio>

#include "bench/bench_util.h"

using namespace xdeal;
using namespace xdeal::bench;

namespace {

// One protocol hop: worst-case submit delay + block inclusion + observation
// (matches EnvConfig defaults in core/env.h).
constexpr double kHop = 10 + 10 + 10;

/// Every party goes silent at the decision: no timelock commit vote, no CBC
/// vote.
class SilentFactory : public PartyFactory {
 public:
  std::unique_ptr<TimelockParty> MakeTimelockParty(PartyId) override {
    struct Silent : TimelockParty {
      void OnCommitPhase() override {}
    };
    return std::make_unique<Silent>();
  }
  std::unique_ptr<CbcParty> MakeCbcParty(PartyId) override {
    struct Silent : CbcParty {
      void OnVotePhase() override {}
    };
    return std::make_unique<Silent>();
  }
};

void EscrowAndValidation() {
  std::printf("\n=== Escrow phase — constant in m (row 'Escrow: Δ') ===\n");
  std::printf("%4s %4s | %12s %8s\n", "n", "m", "escrow_ticks", "hops");
  for (size_t m : {1u, 4u, 16u}) {
    DealShape shape;
    shape.n = 4;
    shape.m = m;
    shape.t = 4 + m;
    PhaseReport r = RunTimelockDeal(shape);
    std::printf("%4zu %4zu | %12" PRIu64 " %8.2f\n", r.n, r.m,
                static_cast<uint64_t>(r.escrow_ticks), r.escrow_ticks / kHop);
  }
  std::printf("expected: ~1 hop, independent of m (all escrows parallel)\n");
}

void Transfers() {
  std::printf("\n=== Transfer phase — tΔ sequential vs Δ parallel ===\n");
  std::printf("%4s | %16s %8s | %16s %8s\n", "t", "sequential_ticks", "hops",
              "parallel_ticks", "hops");
  for (size_t t : {4u, 8u, 16u, 32u}) {
    DealShape shape;
    shape.n = 3;
    shape.m = 2;
    shape.t = t;
    PhaseReport seq = RunTimelockDeal(shape, false, false);
    PhaseReport par = RunTimelockDeal(shape, false, true);
    std::printf("%4zu | %16" PRIu64 " %8.2f | %16" PRIu64 " %8.2f\n",
                seq.t, static_cast<uint64_t>(seq.transfer_ticks),
                seq.transfer_ticks / kHop,
                static_cast<uint64_t>(par.transfer_ticks),
                par.transfer_ticks / kHop);
  }
  std::printf("expected: sequential grows ~linearly in t; parallel ~1 hop\n");
}

void CommitPhase() {
  // The worst case for the chained bound needs the ring topology: party i's
  // only incoming asset lives on chain i-1, so votes must be forwarded
  // hop-by-hop around the ring (each hop adds a Δ to the path deadline).
  std::printf("\n=== Commit phase on an n-party ring — timelock chained "
              "O(n)Δ vs direct Δ vs CBC O(1)Δ ===\n");
  std::printf("%4s | %14s %6s | %14s %6s | %14s %6s\n", "n",
              "tl_chained", "hops", "tl_direct", "hops", "cbc", "hops");
  for (size_t n : {2u, 3u, 4u, 6u, 8u, 12u}) {
    PhaseReport chained = RunTimelockRing(n, 5, /*direct_votes=*/false);
    PhaseReport direct = RunTimelockRing(n, 5, /*direct_votes=*/true);
    DealShape shape;
    shape.n = n;
    shape.m = 4;
    shape.t = n + 3;
    PhaseReport cbc = RunCbcDeal(shape, /*f=*/1);
    std::printf("%4zu | %14" PRIu64 " %6.2f%s | %13" PRIu64 " %6.2f%s | %13"
                PRIu64 " %6.2f\n",
                n, static_cast<uint64_t>(chained.commit_ticks),
                chained.commit_ticks / kHop, chained.committed ? "" : "!",
                static_cast<uint64_t>(direct.commit_ticks),
                direct.commit_ticks / kHop, direct.committed ? "" : "!",
                static_cast<uint64_t>(cbc.commit_ticks),
                cbc.commit_ticks / kHop);
  }
  std::printf("expected: chained grows ~linearly with n (vote forwarding "
              "around the ring); direct and CBC roughly constant\n");
}

void AbortTimes() {
  std::printf("\n=== Abort — timelock waits out t0 + N·Δ; CBC aborts on "
              "per-party timeout ===\n");
  std::printf("%4s | %18s | %18s\n", "n", "timelock_settle", "cbc_settle");
  for (size_t n : {2u, 4u, 8u}) {
    // Timelock: withhold every vote -> refunds at t0 + N*delta.
    EnvConfig e1;
    e1.seed = 7;
    DealEnv env1(std::move(e1));
    GenParams gen;
    gen.n_parties = n;
    gen.m_assets = 2;
    gen.t_transfers = n + 1;
    gen.num_chains = 2;
    gen.seed = n;
    DealSpec spec1 = GenerateRandomDeal(&env1, gen);
    TimelockConfig tc;
    tc.delta = 120;
    SilentFactory silent;
    TimelockRun run1(&env1.world(), spec1, tc, &silent);
    (void)run1.Deploy();
    env1.world().scheduler().Run();
    Tick tl_settle = LastInclusion(env1.world(), "refund");

    // CBC: same deviation; parties abort after their patience runs out.
    EnvConfig e2;
    e2.seed = 7;
    DealEnv env2(std::move(e2));
    gen.seed = n + 100;
    DealSpec spec2 = GenerateRandomDeal(&env2, gen);
    CbcService::Options service_options;
    service_options.validator_seed = "abort-bench";
    CbcService service(&env2.world(), service_options);
    CbcConfig cc;
    CbcRun run2(&env2.world(), spec2, cc, &service, &silent);
    (void)run2.Deploy();
    env2.world().scheduler().Run();
    Tick cbc_settle = LastInclusion(env2.world(), "decide");

    std::printf("%4zu | %18" PRIu64 " | %18" PRIu64 "\n", n,
                static_cast<uint64_t>(tl_settle),
                static_cast<uint64_t>(cbc_settle));
  }
  std::printf("expected: timelock abort time grows with n (N·Δ timeout); "
              "CBC abort time set by the fixed per-party patience\n");
}

}  // namespace

int main() {
  std::printf("Figure 7 reproduction — phase delays (1 hop = %g ticks: "
              "submit + inclusion + observation)\n", kHop);
  EscrowAndValidation();
  Transfers();
  CommitPhase();
  AbortTimes();
  return 0;
}
