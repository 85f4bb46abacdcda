// End-to-end CBC protocol (§6): broker deal commits via certified-blockchain
// proofs; aborts atomically under deviations, asynchrony, and Byzantine
// validator behaviour; validator reconfiguration chains verify.

#include <gtest/gtest.h>

#include "core/adversaries.h"
#include "core/checker.h"
#include "core/cbc_run.h"
#include "tests/scenario_util.h"

namespace xdeal {
namespace {

struct CbcRunOutput {
  DealResult result;
  std::unique_ptr<DealChecker> checker;
  BrokerScenario scenario;
  std::unique_ptr<CbcService> service;
};

CbcRunOutput RunBrokerCbc(uint64_t seed, PartyFactory* factory,
                          CbcConfig config = CbcConfig{}, size_t f = 1,
                          std::unique_ptr<NetworkModel> net = nullptr) {
  CbcRunOutput out;
  out.scenario = MakeBrokerScenario(seed, std::move(net));
  auto& s = out.scenario;
  CbcService::Options service_options;
  service_options.f = f;
  service_options.validator_seed = "cbc-" + std::to_string(seed);
  out.service =
      std::make_unique<CbcService>(&s.env->world(), service_options);
  CbcRun run(&s.env->world(), s.spec, config, out.service.get(), factory);
  EXPECT_TRUE(run.Deploy().ok());
  out.checker = std::make_unique<DealChecker>(
      &s.env->world(), s.spec, run.deployment().escrow_contracts);
  out.checker->CaptureInitial();
  s.env->world().scheduler().Run();
  out.result = run.Collect();
  return out;
}

TEST(CbcBrokerTest, AllCompliantCommits) {
  CbcRunOutput out = RunBrokerCbc(21, nullptr);
  EXPECT_EQ(out.result.outcome, kDealCommitted);
  EXPECT_TRUE(out.result.all_settled);
  EXPECT_TRUE(out.result.atomic);
  EXPECT_EQ(out.result.released_contracts, 2u);
  EXPECT_TRUE(out.checker->StrongLivenessHolds());

  auto& s = out.scenario;
  auto* registry = s.env->RegistryOf(s.spec, s.tickets_asset);
  EXPECT_EQ(registry->OwnerOf(s.ticket1), Holder::Party(s.carol));
  auto* coins = s.env->TokenOf(s.spec, s.coins_asset);
  EXPECT_EQ(coins->BalanceOf(Holder::Party(s.bob)), 100u);
  EXPECT_EQ(coins->BalanceOf(Holder::Party(s.alice)), 1u);
}

TEST(CbcBrokerTest, CommitAcrossSeedsAndF) {
  for (uint64_t seed = 31; seed <= 36; ++seed) {
    for (size_t f : {1u, 2u}) {
      CbcRunOutput out = RunBrokerCbc(seed, nullptr, CbcConfig{}, f);
      EXPECT_EQ(out.result.outcome, kDealCommitted)
          << "seed " << seed << " f " << f;
      EXPECT_TRUE(out.checker->StrongLivenessHolds());
    }
  }
}

TEST(CbcBrokerTest, CrashBeforeVoteAbortsAtomically) {
  SingleDeviantFactory factory(2, nullptr, [] {
    return std::make_unique<CbcCrashBeforeVoteParty>();
  });
  auto out = RunBrokerCbc(41, &factory);
  EXPECT_EQ(out.result.outcome, kDealAborted);
  EXPECT_TRUE(out.result.atomic);
  EXPECT_EQ(out.result.released_contracts, 0u);
  // Carol crashed before even escrowing, so only Bob's tickets contract has
  // deposits to refund; Carol's coins contract is vacuously settled.
  EXPECT_GE(out.result.refunded_contracts, 1u);
  EXPECT_TRUE(out.result.all_settled);
  auto& s = out.scenario;
  EXPECT_TRUE(out.checker->SafetyHolds({s.alice, s.bob}));
  EXPECT_TRUE(out.checker->WeakLivenessHolds({s.alice, s.bob}));
  EXPECT_TRUE(out.checker->Evaluate(s.bob).token_state_unchanged);
}

TEST(CbcBrokerTest, AlwaysAbortPartyAbortsEverywhere) {
  SingleDeviantFactory factory(1, nullptr, [] {
    return std::make_unique<CbcAlwaysAbortParty>();
  });
  auto out = RunBrokerCbc(42, &factory);
  EXPECT_EQ(out.result.outcome, kDealAborted);
  EXPECT_TRUE(out.result.atomic);
  auto& s = out.scenario;
  EXPECT_TRUE(out.checker->SafetyHolds({s.alice, s.carol}));
  for (PartyId p : s.spec.parties) {
    EXPECT_TRUE(out.checker->Evaluate(p).token_state_unchanged);
  }
}

TEST(CbcBrokerTest, RescindRacerIsAtomicEitherWay) {
  // A party votes commit then races an abort. Whatever order the CBC log
  // settles on, every chain follows the same outcome.
  for (uint64_t seed = 50; seed < 56; ++seed) {
    SingleDeviantFactory racer(0, nullptr, [] {
      return std::make_unique<CbcRescindRacerParty>();
    });
    auto out = RunBrokerCbc(seed, &racer);
    EXPECT_TRUE(out.result.atomic) << "seed " << seed;
    EXPECT_TRUE(out.result.all_settled) << "seed " << seed;
    auto& s = out.scenario;
    EXPECT_TRUE(out.checker->SafetyHolds({s.bob, s.carol}))
        << "seed " << seed;
  }
}

TEST(CbcBrokerTest, FakeProofRejected) {
  // Alice presents an f-signed forged abort certificate; contracts reject
  // it (quorum is 2f+1) and the deal commits normally.
  SingleDeviantFactory factory(0, nullptr, [] {
    return std::make_unique<CbcFakeProofParty>();
  });
  auto out = RunBrokerCbc(43, &factory);
  EXPECT_EQ(out.result.outcome, kDealCommitted);
  EXPECT_TRUE(out.result.atomic);
  EXPECT_EQ(out.result.released_contracts, 2u);

  // The forged decide transactions must appear as failed receipts.
  auto& s = out.scenario;
  size_t rejected = 0;
  for (uint32_t c = 0; c < s.env->world().num_chains(); ++c) {
    for (const Receipt& r : s.env->world().chain(ChainId{c})->receipts()) {
      if (r.function == "decide" && !r.status.ok()) ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(CbcBrokerTest, ReconfigurationChainVerifies) {
  // The validator set rotates twice between escrow and claim; parties must
  // present proofs carrying two reconfiguration certificates:
  // (k+1)(2f+1) signature verifications per contract.
  CbcConfig config;
  config.reconfigs_before_claim = 2;
  auto out = RunBrokerCbc(44, nullptr, config);
  EXPECT_EQ(out.result.outcome, kDealCommitted);
  EXPECT_TRUE(out.checker->StrongLivenessHolds());

  // f=1 -> quorum 3; (k+1)(2f+1) = 3*3 = 9 verifications per contract,
  // 2 contracts -> 18.
  EXPECT_EQ(out.result.sig_verifies, 18u);
}

TEST(CbcBrokerTest, NoReconfigSignatureCount) {
  auto out = RunBrokerCbc(45, nullptr);
  ASSERT_EQ(out.result.outcome, kDealCommitted);
  // (0+1)(2f+1) = 3 per contract, 2 contracts.
  EXPECT_EQ(out.result.sig_verifies, 6u);
}

TEST(CbcBrokerTest, PreGstAsynchronyAbortsAtomically) {
  // The network is asynchronous until far beyond every protocol deadline:
  // escrows and transfers straggle, validation fails, parties vote abort.
  // The deal must abort *everywhere* — never a mixed outcome — and all
  // compliant parties keep their assets.
  auto net = std::make_unique<SemiSynchronousNetwork>(
      /*gst=*/4000, /*pre_gst_max=*/3000, /*min_delay=*/1, /*max_delay=*/10);
  auto out = RunBrokerCbc(46, nullptr, CbcConfig{}, 1, std::move(net));
  EXPECT_TRUE(out.result.atomic);
  EXPECT_TRUE(out.result.all_settled);
  auto& s = out.scenario;
  EXPECT_TRUE(
      out.checker->SafetyHolds({s.alice, s.bob, s.carol}));
  EXPECT_TRUE(
      out.checker->WeakLivenessHolds({s.alice, s.bob, s.carol}));
}

TEST(CbcBrokerTest, PostGstCommits) {
  // GST passes before the deal starts: eventual synchrony behaves like
  // synchrony and the deal commits.
  auto net = std::make_unique<SemiSynchronousNetwork>(
      /*gst=*/0, /*pre_gst_max=*/3000, /*min_delay=*/1, /*max_delay=*/10);
  auto out = RunBrokerCbc(47, nullptr, CbcConfig{}, 1, std::move(net));
  EXPECT_EQ(out.result.outcome, kDealCommitted);
  EXPECT_TRUE(out.checker->StrongLivenessHolds());
}

TEST(CbcBrokerTest, AtomicityAcrossAdversarySweep) {
  // Whatever single-party deviation we inject, the CBC guarantee holds:
  // commit everywhere or abort everywhere.
  for (uint32_t deviant = 0; deviant < 3; ++deviant) {
    for (int kind = 0; kind < 3; ++kind) {
      SingleDeviantFactory factory(
          deviant, nullptr, [kind]() -> std::unique_ptr<CbcParty> {
            switch (kind) {
              case 0: return std::make_unique<CbcCrashBeforeVoteParty>();
              case 1: return std::make_unique<CbcAlwaysAbortParty>();
              default: return std::make_unique<CbcRescindRacerParty>();
            }
          });
      auto out = RunBrokerCbc(100 + deviant * 10 + kind, &factory);
      EXPECT_TRUE(out.result.atomic)
          << "deviant " << deviant << " kind " << kind;
      // Every compliant party stays safe and unlocked; the deviant's own
      // deposits may stay locked (its problem — it can always claim later).
      std::vector<PartyId> compliant;
      for (PartyId p : out.scenario.spec.parties) {
        if (p.v != deviant) compliant.push_back(p);
      }
      EXPECT_TRUE(out.checker->SafetyHolds(compliant))
          << "deviant " << deviant << " kind " << kind;
      EXPECT_TRUE(out.checker->WeakLivenessHolds(compliant))
          << "deviant " << deviant << " kind " << kind;
    }
  }
}

}  // namespace
}  // namespace xdeal
