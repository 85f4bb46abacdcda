#include "core/deal_runtime.h"

#include "contracts/escrow_view.h"
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

std::vector<std::pair<ChainId, ContractId>> DealRuntime::DeployedContracts()
    const {
  std::vector<std::pair<ChainId, ContractId>> deployed;
  const std::vector<ContractId>& escrows = escrow_contracts();
  deployed.reserve(escrows.size() + 1);
  for (size_t a = 0; a < escrows.size(); ++a) {
    deployed.emplace_back(spec().assets[a].chain, escrows[a]);
  }
  return deployed;
}

std::unique_ptr<TimelockParty> SingleDeviantFactory::MakeTimelockParty(
    PartyId p) {
  if (timelock_maker_ && p.v == deviant_) return timelock_maker_();
  return nullptr;
}

std::unique_ptr<CbcParty> SingleDeviantFactory::MakeCbcParty(PartyId p) {
  if (cbc_maker_ && p.v == deviant_) return cbc_maker_();
  return nullptr;
}

bool EscrowBacksExpectation(const World& world, const AssetRef& asset,
                            ContractId escrow, PartyId p,
                            const DealSpec::Expectation& expect) {
  const Blockchain* chain = world.chain(asset.chain);
  if (chain == nullptr) return false;
  const auto* view = chain->As<DealEscrowView>(escrow);
  if (view == nullptr) return false;
  const EscrowCore& core = view->escrow_core();
  Holder escrow_holder = Holder::OfContract(escrow);
  if (asset.kind == AssetKind::kFungible) {
    if (core.OnCommitOf(p) != expect.fungible_amount) return false;
    const auto* token = chain->As<FungibleToken>(asset.token);
    return token != nullptr &&
           token->BalanceOf(escrow_holder) >= expect.fungible_amount;
  }
  const auto* registry = chain->As<TicketRegistry>(asset.token);
  if (registry == nullptr) return false;
  for (uint64_t ticket : expect.tickets) {
    if (!(core.NftCommitOwner(ticket) == p)) return false;
    if (!(registry->OwnerOf(ticket) == escrow_holder)) return false;
  }
  return true;
}

World& DealParty::world() const { return runtime_->world(); }
const DealSpec& DealParty::spec() const { return runtime_->spec(); }

void DealParty::OnTransferStep(size_t step_index) {
  const TransferStep& step = spec().transfers[step_index];
  if (step.from == self_) SubmitTransfer(step);
}

void DealParty::OnValidatePhase() { satisfied_ = RunValidationChecks(); }

bool DealParty::RunValidationChecks() const {
  std::vector<DealSpec::Expectation> expect = spec().ExpectationsOf(self_);
  for (uint32_t a : spec().IncomingAssetsOf(self_)) {
    if (!EscrowIsForThisDeal(a)) return false;
    if (!EscrowBacksExpectation(world(), spec().assets[a],
                                runtime_->escrow_contracts()[a], self_,
                                expect[a])) {
      return false;
    }
  }
  return true;
}

void DealParty::SubmitTransfer(const TransferStep& step) {
  ByteWriter w;
  w.Raw(spec().deal_id.bytes.data(), 32);
  w.U32(step.to.v);
  w.U64(step.value);
  world().Submit(self_, spec().assets[step.asset].chain,
                 runtime_->escrow_contracts()[step.asset],
                 CallData{"transfer", w.Take()}, "transfer",
                 runtime_->timings().deal_tag);
}

DealRuntime::DealRuntime(World* world, DealSpec spec, PartyFactory* factory)
    : world_(world), spec_(std::move(spec)), factory_(factory) {}

DealRuntime::~DealRuntime() = default;

DealParty* DealRuntime::party(PartyId p) {
  auto it = parties_.find(p.v);
  return it == parties_.end() ? nullptr : it->second.get();
}

void DealRuntime::SetupApprovals() {
  // Setup cost is not part of the paper's phase accounting (tag "setup").
  // NFT approvals go out per ticket in escrow order; fungible ones once per
  // (asset, depositor), for the depositor's total.
  const DealTimings& t = timings();
  const std::vector<ContractId>& escrows = escrow_contracts();
  auto schedule = [this, &t](PartyId party, uint32_t asset, CallData call) {
    world_->scheduler().ScheduleAt(
        t.setup_time, EventLabel::Timer(party.v, t.deal_tag),
        [this, party, asset, call = std::move(call)]() mutable {
          world_->Submit(party, spec_.assets[asset].chain,
                         spec_.assets[asset].token, std::move(call), "setup",
                         timings().deal_tag);
        });
  };
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> fungible_totals;
  for (const EscrowStep& e : spec_.escrows) {
    if (spec_.assets[e.asset].kind == AssetKind::kFungible) {
      fungible_totals[{e.asset, e.party.v}] += e.value;
    } else {
      schedule(e.party, e.asset,
               TicketRegistry::ApproveCall(
                   e.value, Holder::OfContract(escrows[e.asset])));
    }
  }
  for (const auto& [key, total] : fungible_totals) {
    auto [asset, party] = key;
    schedule(PartyId{party}, asset,
             FungibleToken::ApproveCall(Holder::OfContract(escrows[asset]),
                                        total));
  }
}

void DealRuntime::ScheduleTransferSteps() {
  const DealTimings& t = timings();
  for (size_t i = 0; i < spec_.transfers.size(); ++i) {
    Tick when = t.transfer_start +
                (t.parallel_transfers ? 0 : static_cast<Tick>(i) * t.step_gap);
    uint32_t from = spec_.transfers[i].from.v;
    DealParty* actor = parties_.at(from).get();
    world_->scheduler().ScheduleAt(when, EventLabel::Timer(from, t.deal_tag),
                                   [actor, i] { actor->OnTransferStep(i); });
  }
}

void DealRuntime::TallyEscrows(DealResult* result) const {
  const std::vector<ContractId>& escrows = escrow_contracts();
  result->all_settled = true;
  for (size_t a = 0; a < escrows.size(); ++a) {
    const Blockchain* chain = world_->chain(spec_.assets[a].chain);
    const auto* esc = chain->As<DealEscrowView>(escrows[a]);
    if (esc == nullptr) continue;
    if (esc->Released()) ++result->released_contracts;
    if (esc->Refunded()) ++result->refunded_contracts;
    bool vacuous = esc->escrow_core().Depositors().empty();
    result->all_settled = result->all_settled && (esc->Settled() || vacuous);
  }
}

}  // namespace xdeal
