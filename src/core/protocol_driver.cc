#include "core/protocol_driver.h"

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

DealRuntime::~DealRuntime() = default;

}  // namespace xdeal
