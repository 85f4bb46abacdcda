#include "core/protocol_driver.h"

#include <utility>

#include "cbc/cbc_service.h"
#include "core/cbc_run.h"
#include "core/timelock_run.h"

namespace xdeal {

const char* ToString(Protocol p) {
  switch (p) {
    case Protocol::kTimelock: return "timelock";
    case Protocol::kCbc: return "cbc";
    case Protocol::kHtlc: return "htlc";
  }
  return "?";
}

DealTimings DealTimings::DefaultsFor(Protocol p) {
  DealTimings t;
  switch (p) {
    case Protocol::kTimelock:
      t.start_deal_time = 0;  // no startDeal phase
      t.escrow_time = 50;
      t.transfer_start = 150;
      break;
    case Protocol::kCbc:
    case Protocol::kHtlc:
      t.start_deal_time = 20;
      t.escrow_time = 80;
      t.transfer_start = 180;
      break;
  }
  return t;
}

DealTimings& DealTimings::ShiftBy(Tick offset) {
  setup_time += offset;
  start_deal_time += offset;
  escrow_time += offset;
  transfer_start += offset;
  return *this;
}

PartyFactory::~PartyFactory() = default;

std::unique_ptr<TimelockParty> PartyFactory::MakeTimelockParty(PartyId) {
  return nullptr;
}

std::unique_ptr<CbcParty> PartyFactory::MakeCbcParty(PartyId) {
  return nullptr;
}

void PartyFactory::OnDeployed(DealRuntime&) {}

std::unique_ptr<TimelockParty> SingleDeviantFactory::MakeTimelockParty(
    PartyId p) {
  if (timelock_maker_ && p.v == deviant_) return timelock_maker_();
  return nullptr;
}

std::unique_ptr<CbcParty> SingleDeviantFactory::MakeCbcParty(PartyId p) {
  if (cbc_maker_ && p.v == deviant_) return cbc_maker_();
  return nullptr;
}

DealRuntime::~DealRuntime() = default;
ProtocolDriver::~ProtocolDriver() = default;

namespace {

/// Shared scaffolding: a runtime owns its World pointer, spec, timings, and
/// the (optional) party factory; Deploy constructs the protocol engine.
template <typename Run>
class RuntimeBase : public DealRuntime {
 public:
  RuntimeBase(World* world, DealSpec spec, DealTimings timings,
              PartyFactory* factory)
      : world_(world),
        spec_(std::move(spec)),
        timings_(timings),
        factory_(factory) {}

  const DealSpec& spec() const override { return spec_; }
  World& world() override { return *world_; }

  const std::vector<ContractId>& escrow_contracts() const override {
    return run_->deployment().escrow_contracts;
  }

 protected:
  World* world_;
  DealSpec spec_;
  DealTimings timings_;
  PartyFactory* factory_;
  std::unique_ptr<Run> run_;
};

class TimelockRuntime : public RuntimeBase<TimelockRun> {
 public:
  TimelockRuntime(World* world, DealSpec spec, DealTimings timings,
                  TimelockDriver::Options options, PartyFactory* factory)
      : RuntimeBase(world, std::move(spec), timings, factory),
        options_(options) {}

  Protocol protocol() const override { return Protocol::kTimelock; }
  TimelockRun* timelock_run() override { return run_.get(); }

  Status Deploy() override {
    TimelockConfig config(timings_);
    config.direct_votes = options_.direct_votes;
    config.refund_margin = options_.refund_margin;
    PartyFactory* factory = factory_;
    run_ = std::make_unique<TimelockRun>(
        world_, spec_, config,
        factory == nullptr
            ? TimelockRun::StrategyFactory(nullptr)
            : [factory](PartyId p) { return factory->MakeTimelockParty(p); });
    XDEAL_RETURN_IF_ERROR(run_->Start());
    if (factory_ != nullptr) factory_->OnDeployed(*this);
    return Status::OK();
  }

  DealResult Collect() const override {
    TimelockResult t = run_->Collect();
    DealResult r;
    r.protocol = Protocol::kTimelock;
    r.released_contracts = t.released_contracts;
    r.refunded_contracts = t.refunded_contracts;
    r.committed = t.released_contracts == spec_.NumAssets();
    r.aborted = t.released_contracts == 0;
    r.mixed = !r.committed && !r.aborted;
    r.all_settled = t.all_settled;
    r.settle_time = t.settle_time;
    r.decision_open = run_->deployment().info.t0;
    r.commit_phase_end = t.commit_phase_end;
    r.gas_escrow = t.gas_escrow;
    r.gas_transfer = t.gas_transfer;
    r.gas_vote = t.gas_commit;
    r.gas_refund = t.gas_refund;
    r.sig_verifies = t.sig_verifies_commit;
    r.outcome = r.committed ? kDealCommitted
                            : (r.aborted && r.all_settled ? kDealAborted
                                                          : kDealActive);
    return r;
  }

  DealOutcome outcome() const override {
    return run_ == nullptr ? kDealActive : Collect().outcome;
  }

 private:
  TimelockDriver::Options options_;
};

class CbcRuntime : public RuntimeBase<CbcRun> {
 public:
  CbcRuntime(World* world, DealSpec spec, DealTimings timings,
             CbcService* service, CbcDriver::Options options,
             PartyFactory* factory)
      : RuntimeBase(world, std::move(spec), timings, factory),
        service_(service),
        options_(options) {}

  Protocol protocol() const override { return Protocol::kCbc; }
  CbcRun* cbc_run() override { return run_.get(); }

  Status Deploy() override {
    CbcConfig config(timings_);
    config.abort_patience = options_.abort_patience;
    config.reconfigs_before_claim = options_.reconfigs_before_claim;
    config.reconfig_time = options_.reconfig_time;
    PartyFactory* factory = factory_;
    run_ = std::make_unique<CbcRun>(
        world_, spec_, config, service_,
        factory == nullptr
            ? CbcRun::StrategyFactory(nullptr)
            : [factory](PartyId p) { return factory->MakeCbcParty(p); });
    XDEAL_RETURN_IF_ERROR(run_->Start());
    if (factory_ != nullptr) factory_->OnDeployed(*this);
    return Status::OK();
  }

  DealResult Collect() const override {
    CbcResult c = run_->Collect();
    DealResult r;
    r.protocol = Protocol::kCbc;
    r.outcome = c.outcome;
    r.committed = c.outcome == kDealCommitted;
    r.aborted = c.outcome == kDealAborted;
    r.mixed = !r.committed && !r.aborted && c.released_contracts > 0 &&
              c.refunded_contracts > 0;
    r.all_settled = c.all_settled;
    r.atomic = c.atomic;
    r.released_contracts = c.released_contracts;
    r.refunded_contracts = c.refunded_contracts;
    r.settle_time = c.settle_time;
    r.decision_open = run_->deployment().vote_time;
    r.commit_phase_end = c.settle_time;  // last decide inclusion
    r.gas_escrow = c.gas_escrow;
    r.gas_transfer = c.gas_transfer;
    r.gas_vote = c.gas_cbc_votes;
    r.gas_decide = c.gas_decide;
    r.sig_verifies = c.sig_verifies_decide;
    return r;
  }

  DealOutcome outcome() const override {
    if (run_ == nullptr) return kDealActive;
    const Blockchain* chain = world_->chain(run_->deployment().cbc_chain);
    const auto* log =
        chain->As<CbcLogContract>(run_->deployment().cbc_log);
    return log == nullptr ? kDealActive
                          : log->OutcomeOf(run_->deployment().deal_id);
  }

 private:
  CbcService* service_;
  CbcDriver::Options options_;
};

}  // namespace

std::unique_ptr<DealRuntime> TimelockDriver::CreateDeal(
    World* world, DealSpec spec, DealTimings timings, PartyFactory* factory) {
  return std::make_unique<TimelockRuntime>(world, std::move(spec), timings,
                                           options_, factory);
}

std::unique_ptr<DealRuntime> CbcDriver::CreateDeal(World* world,
                                                   DealSpec spec,
                                                   DealTimings timings,
                                                   PartyFactory* factory) {
  return std::make_unique<CbcRuntime>(world, std::move(spec), timings,
                                      service_, options_, factory);
}

}  // namespace xdeal
