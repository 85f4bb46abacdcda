// Property-based sweeps (experiment E10): random well-formed deals ×
// adversary configurations × seeds, asserting the paper's properties:
//
//   Property 1 (safety):    no compliant party ends worse off — ever.
//   Property 2 (weak live): no compliant party's assets stay locked.
//   Property 3 (strong):    all-compliant runs transfer everything.
//   CBC atomicity:          commit everywhere or abort everywhere.

#include <gtest/gtest.h>

#include "core/adversaries.h"
#include "core/cbc_run.h"
#include "core/checker.h"
#include "core/deal_gen.h"
#include "core/timelock_run.h"

namespace xdeal {
namespace {

struct SweepCase {
  size_t n, m, t, chains;
  int adversary_kind;   // -1 = none; else adversary type index
  uint32_t deviant;     // party index for the adversary
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string name = "n" + std::to_string(c.n) + "m" + std::to_string(c.m) +
                     "t" + std::to_string(c.t) + "c" +
                     std::to_string(c.chains);
  if (c.adversary_kind >= 0) {
    name += "_adv" + std::to_string(c.adversary_kind) + "at" +
            std::to_string(c.deviant);
  }
  return name;
}

std::unique_ptr<TimelockParty> MakeTimelockAdversary(int kind) {
  switch (kind) {
    case 0: return std::make_unique<CrashingTimelockParty>(TlPhase::kEscrow);
    case 1: return std::make_unique<CrashingTimelockParty>(TlPhase::kTransfer);
    case 2: return std::make_unique<CrashingTimelockParty>(TlPhase::kCommit);
    case 3: return std::make_unique<VoteWithholdingParty>();
    case 4: return std::make_unique<NonForwardingParty>();
    case 5: return std::make_unique<OfflineAfterVoteParty>();
    case 6: return std::make_unique<DoubleSpendingParty>();
    case 7: return std::make_unique<ShortTransferParty>();
    case 8: return std::make_unique<LateVotingParty>(100000);
    default: return nullptr;
  }
}

std::unique_ptr<CbcParty> MakeCbcAdversary(int kind) {
  switch (kind) {
    case 0: return std::make_unique<CbcCrashBeforeVoteParty>();
    case 1: return std::make_unique<CbcAlwaysAbortParty>();
    case 2: return std::make_unique<CbcRescindRacerParty>();
    case 3: return std::make_unique<CbcFakeProofParty>();
    default: return nullptr;
  }
}

class TimelockPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TimelockPropertySweep, SafetyAndLiveness) {
  const SweepCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EnvConfig env_config;
    env_config.seed = seed;
    DealEnv env(std::move(env_config));
    GenParams gen;
    gen.n_parties = c.n;
    gen.m_assets = c.m;
    gen.t_transfers = c.t;
    gen.num_chains = c.chains;
    gen.nft_every = 3;
    gen.seed = seed * 977;
    DealSpec spec = GenerateRandomDeal(&env, gen);

    uint32_t deviant_party = spec.parties[c.deviant % spec.parties.size()].v;
    TimelockConfig config;
    config.delta = 100;
    // A negative kind makes no adversary: every party stays compliant.
    SingleDeviantFactory factory(deviant_party, [&c] {
      return MakeTimelockAdversary(c.adversary_kind);
    });
    TimelockRun run(&env.world(), spec, config, &factory);
    ASSERT_TRUE(run.Deploy().ok());
    DealChecker checker(&env.world(), spec,
                        run.deployment().escrow_contracts);
    checker.CaptureInitial();
    env.world().scheduler().Run();

    std::vector<PartyId> compliant;
    for (PartyId p : spec.parties) {
      if (c.adversary_kind < 0 || p.v != deviant_party) {
        compliant.push_back(p);
      }
    }
    // Property 1 and 2 must hold regardless of the adversary.
    EXPECT_TRUE(checker.SafetyHolds(compliant))
        << CaseName({GetParam(), 0}) << " seed " << seed;
    EXPECT_TRUE(checker.WeakLivenessHolds(compliant))
        << CaseName({GetParam(), 0}) << " seed " << seed;
    // Property 3 in all-compliant runs.
    if (c.adversary_kind < 0) {
      EXPECT_TRUE(checker.StrongLivenessHolds())
          << CaseName({GetParam(), 0}) << " seed " << seed;
    }
  }
}

std::vector<SweepCase> TimelockCases() {
  std::vector<SweepCase> cases;
  // All-compliant shapes.
  for (auto [n, m, t, ch] : std::initializer_list<std::array<size_t, 4>>{
           {2, 1, 2, 1}, {3, 2, 5, 2}, {4, 3, 8, 3}, {5, 5, 10, 2},
           {7, 4, 12, 3}}) {
    cases.push_back(SweepCase{n, m, t, ch, -1, 0});
  }
  // Every adversary kind at two different positions on a 4-party deal.
  for (int kind = 0; kind <= 8; ++kind) {
    cases.push_back(SweepCase{4, 3, 8, 2, kind, 0});
    cases.push_back(SweepCase{4, 3, 8, 2, kind, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Deals, TimelockPropertySweep,
                         ::testing::ValuesIn(TimelockCases()), CaseName);

class CbcPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(CbcPropertySweep, AtomicityAndSafety) {
  const SweepCase& c = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EnvConfig env_config;
    env_config.seed = seed;
    DealEnv env(std::move(env_config));
    GenParams gen;
    gen.n_parties = c.n;
    gen.m_assets = c.m;
    gen.t_transfers = c.t;
    gen.num_chains = c.chains;
    gen.seed = seed * 1931;
    DealSpec spec = GenerateRandomDeal(&env, gen);

    CbcService::Options service_options;
    service_options.validator_seed = "sweep";
    CbcService service(&env.world(), service_options);
    uint32_t deviant_party = spec.parties[c.deviant % spec.parties.size()].v;
    SingleDeviantFactory factory(
        deviant_party, nullptr,
        [&c] { return MakeCbcAdversary(c.adversary_kind); });
    CbcRun run(&env.world(), spec, CbcConfig{}, &service, &factory);
    ASSERT_TRUE(run.Deploy().ok());
    DealChecker checker(&env.world(), spec,
                        run.deployment().escrow_contracts);
    checker.CaptureInitial();
    env.world().scheduler().Run();

    DealResult result = run.Collect();
    EXPECT_TRUE(result.atomic) << CaseName({GetParam(), 0}) << " seed "
                               << seed;
    EXPECT_TRUE(checker.Atomic());

    std::vector<PartyId> compliant;
    for (PartyId p : spec.parties) {
      if (c.adversary_kind < 0 || p.v != deviant_party) {
        compliant.push_back(p);
      }
    }
    EXPECT_TRUE(checker.SafetyHolds(compliant))
        << CaseName({GetParam(), 0}) << " seed " << seed;
    EXPECT_TRUE(checker.WeakLivenessHolds(compliant))
        << CaseName({GetParam(), 0}) << " seed " << seed;
    if (c.adversary_kind < 0) {
      EXPECT_EQ(result.outcome, kDealCommitted)
          << CaseName({GetParam(), 0}) << " seed " << seed;
      EXPECT_TRUE(checker.StrongLivenessHolds())
          << CaseName({GetParam(), 0}) << " seed " << seed;
    }
  }
}

std::vector<SweepCase> CbcCases() {
  std::vector<SweepCase> cases;
  for (auto [n, m, t, ch] : std::initializer_list<std::array<size_t, 4>>{
           {2, 1, 2, 1}, {3, 2, 5, 2}, {4, 4, 8, 3}, {6, 3, 10, 2}}) {
    cases.push_back(SweepCase{n, m, t, ch, -1, 0});
  }
  for (int kind = 0; kind <= 3; ++kind) {
    cases.push_back(SweepCase{4, 3, 8, 2, kind, 0});
    cases.push_back(SweepCase{4, 3, 8, 2, kind, 3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Deals, CbcPropertySweep,
                         ::testing::ValuesIn(CbcCases()), CaseName);

}  // namespace
}  // namespace xdeal
