// The adversary gallery: deviating-party strategies for both protocols.
//
// The paper's model distinguishes only compliant parties (follow the
// protocol) from deviating parties (anything else) and makes NO assumption
// about how many deviate (§2.2). These strategies are used by the
// adversarial test suites and benchmark E10 to check that compliant parties
// are never left worse off (Property 1) and never locked up (Property 2),
// whatever the deviators do.

#ifndef XDEAL_CORE_ADVERSARIES_H_
#define XDEAL_CORE_ADVERSARIES_H_

#include <memory>

#include "core/cbc_run.h"
#include "core/timelock_run.h"

namespace xdeal {

// ---------------------------------------------------------------------------
// Timelock-protocol deviators (§5)
// ---------------------------------------------------------------------------

/// Phases of the timelock protocol, for crash injection.
enum class TlPhase {
  kEscrow = 0,
  kTransfer,
  kValidate,
  kCommit,
  kForward,   // participates up to voting but never forwards
  kNever,     // fully compliant (crash "never")
};

/// Crashes at the given phase: performs no actions from that phase onward
/// (including refund claims — a truly dead party; its assets' fate rests on
/// the timeout mechanism and is allowed to be lost only if it deviated).
class CrashingTimelockParty : public TimelockParty {
 public:
  explicit CrashingTimelockParty(TlPhase crash_at) : crash_at_(crash_at) {}

  void OnEscrowPhase() override {
    if (crash_at_ > TlPhase::kEscrow) TimelockParty::OnEscrowPhase();
  }
  void OnTransferStep(size_t i) override {
    if (crash_at_ > TlPhase::kTransfer) TimelockParty::OnTransferStep(i);
  }
  void OnValidatePhase() override {
    if (crash_at_ > TlPhase::kValidate) TimelockParty::OnValidatePhase();
  }
  void OnCommitPhase() override {
    if (crash_at_ > TlPhase::kCommit) TimelockParty::OnCommitPhase();
  }
  void OnObservedReceipt(const Receipt& r) override {
    if (crash_at_ > TlPhase::kForward) TimelockParty::OnObservedReceipt(r);
  }
  void OnRefundWatch() override {
    // A crashed party never claims; compliant counterparties are protected
    // because *anyone* may trigger the refund, and they do.
    if (crash_at_ == TlPhase::kNever) TimelockParty::OnRefundWatch();
  }

 private:
  TlPhase crash_at_;
};

/// Never votes (silently withholds its commit vote) but otherwise behaves.
/// Forces every escrow to time out and refund.
class VoteWithholdingParty : public TimelockParty {
 public:
  void OnCommitPhase() override {}
};

/// Votes but never forwards others' votes (violates the §5.1 monitoring
/// duty). Deals still commit if the remaining parties forward.
class NonForwardingParty : public TimelockParty {
 public:
  void OnObservedReceipt(const Receipt&) override {}
};

/// §5.3's victim behaviour: votes, then drops offline — neither forwards
/// votes nor claims refunds/assets. With a well-chosen Δ this is survivable;
/// the §5.3 DoS scenario makes it lose assets, which the paper classifies
/// as deviation ("parties may lose their assets by going offline at the
/// wrong time").
class OfflineAfterVoteParty : public TimelockParty {
 public:
  void OnObservedReceipt(const Receipt&) override {}
  void OnRefundWatch() override {}
};

/// Attempts to double-spend: performs its spec'd transfer, then tries to
/// transfer the same value again to a different party. The escrow contract
/// must reject the second (commit-ownership already moved).
class DoubleSpendingParty : public TimelockParty {
 public:
  void OnTransferStep(size_t i) override {
    TimelockParty::OnTransferStep(i);
    const TransferStep& step = spec().transfers[i];
    if (step.from != self()) return;
    // Pick any other party as the conflicting recipient.
    for (PartyId p : spec().parties) {
      if (p != step.to && p != self()) {
        TransferStep conflict = step;
        conflict.to = p;
        SubmitTransfer(conflict);  // expected to fail on-chain
        break;
      }
    }
  }
};

/// Transfers less than the agreed amount (fungible assets only): receivers'
/// validation fails, so they never vote, and the deal aborts.
class ShortTransferParty : public TimelockParty {
 public:
  void OnTransferStep(size_t i) override {
    const TransferStep& step = spec().transfers[i];
    if (step.from != self()) return;
    if (spec().assets[step.asset].kind == AssetKind::kFungible &&
        step.value > 1) {
      TransferStep shorted = step;
      shorted.value = step.value - 1;
      SubmitTransfer(shorted);
    } else {
      TimelockParty::OnTransferStep(i);
    }
  }
};

/// Votes `lateness` ticks after the commit phase opens. If lateness pushes
/// the vote past t0 + Δ, contracts reject it and the deal aborts.
class LateVotingParty : public TimelockParty {
 public:
  explicit LateVotingParty(Tick lateness) : lateness_(lateness) {}

  void OnCommitPhase() override {
    if (!satisfied()) return;
    auto* self_ptr = this;
    world().scheduler().ScheduleAfter(
        lateness_, EventLabel::Timer(self().v, config().deal_tag),
        [self_ptr] { self_ptr->TimelockParty::OnCommitPhase(); });
  }

 private:
  Tick lateness_;
};

// ---------------------------------------------------------------------------
// CBC-protocol deviators (§6)
// ---------------------------------------------------------------------------

/// Crashes before voting on the CBC; peers eventually rescind/abort.
class CbcCrashBeforeVoteParty : public CbcParty {
 public:
  void OnVotePhase() override {}
  void OnObservedCbcReceipt(const Receipt&) override {}
  void OnAbortDeadline() override {}
};

/// Votes abort regardless of validation (griefing). The deal aborts —
/// everywhere, atomically; no compliant party loses assets.
class CbcAlwaysAbortParty : public CbcParty {
 public:
  void OnVotePhase() override { SubmitCbcVote(/*abort=*/true); }
};

/// Votes commit and then immediately tries to rescind with an abort (not
/// waiting Δ as compliance requires). The CBC's total order still yields
/// one decisive outcome for everyone.
class CbcRescindRacerParty : public CbcParty {
 public:
  void OnVotePhase() override {
    SubmitCbcVote(/*abort=*/false);
    voted_abort_ = false;  // bypass the local dedup; race the log
    SubmitCbcVote(/*abort=*/true);
  }
};

/// Presents a forged status certificate (signed only by the f Byzantine
/// validators) asserting ABORT to the escrows of its outgoing assets, while
/// otherwise following the protocol — the §6.2 attack pattern transplanted
/// to BFT. Contracts must reject the forgery (insufficient quorum).
class CbcFakeProofParty : public CbcParty {
 public:
  void OnVotePhase() override {
    CbcParty::OnVotePhase();
    // Attack: try to halt outgoing transfers with a fake proof of abort.
    CbcProof fake;
    fake.status = run().validators().IssueByzantineStatus(
        deployment().deal_id, start_hash_, kDealAborted);
    for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
      if (spec().Deposits(self(), a)) {
        SubmitDecide(a, fake);
      }
    }
    // Allow genuine claims later despite the dedup set.
    decided_assets_.clear();
  }
};

/// The cross-shard replay attack: takes the home shard's genuine decide
/// evidence, re-declares it as coming from a DIFFERENT shard, and presents
/// it to the escrows of its outgoing assets — as if a certificate minted
/// for one shard could settle deals bound to another. Shard-bound escrows
/// must reject the replay on the declared-shard check alone ("decide: shard
/// mismatch"), before burning any signature-verification gas. Otherwise the
/// party follows the protocol.
class CbcStaleShardProofParty : public CbcParty {
 public:
  void OnVotePhase() override {
    CbcParty::OnVotePhase();
    DecideProof stale = run().service().IssueDecideProof(
        *Log(), deployment().deal_id, run().escrow_epoch());
    stale.shard = stale.shard + 1;  // declare a shard this deal is not on
    for (uint32_t a = 0; a < spec().NumAssets(); ++a) {
      if (spec().Deposits(self(), a)) {
        SubmitDecideProof(a, stale);
      }
    }
    // Allow genuine claims later despite the dedup set.
    decided_assets_.clear();
  }
};

}  // namespace xdeal

#endif  // XDEAL_CORE_ADVERSARIES_H_
