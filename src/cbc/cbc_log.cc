#include "cbc/cbc_log.h"

#include <algorithm>

namespace xdeal {

namespace {

Result<Hash256> ReadHash32(ByteReader& args) {
  auto bytes = args.Raw(32);
  if (!bytes.ok()) return bytes.status();
  Hash256 h;
  std::copy(bytes.value().begin(), bytes.value().end(), h.bytes.begin());
  return h;
}

}  // namespace

Result<Bytes> CbcLogContract::Invoke(CallContext& ctx, const std::string& fn,
                                     ByteReader& args) {
  Status st;
  if (fn == "startDeal") {
    st = HandleStartDeal(ctx, args);
  } else if (fn == "commit") {
    st = HandleVote(ctx, args, /*is_abort=*/false);
  } else if (fn == "abort") {
    st = HandleVote(ctx, args, /*is_abort=*/true);
  } else {
    st = Status::NotFound("CbcLog: unknown function " + fn);
  }
  if (!st.ok()) return st;
  return Bytes{};
}

Status CbcLogContract::HandleStartDeal(CallContext& ctx, ByteReader& args) {
  auto deal_id = ReadHash32(args);
  if (!deal_id.ok()) return deal_id.status();
  auto count = args.U32();
  if (!count.ok()) return count.status();
  if (count.value() == 0 || count.value() > 4096) {
    return Status::InvalidArgument("startDeal: bad plist size");
  }
  std::vector<PartyId> plist;
  for (uint32_t i = 0; i < count.value(); ++i) {
    auto p = args.U32();
    if (!p.ok()) return p.status();
    plist.push_back(PartyId{p.value()});
  }
  // The calling party must appear in the plist (§6, Clearing Phase).
  if (std::find(plist.begin(), plist.end(), ctx.sender) == plist.end()) {
    return Status::PermissionDenied("startDeal: sender not in plist");
  }
  // "If more than one startDeal for D is recorded on the CBC, the earliest
  //  is considered definitive."
  if (deals_.count(deal_id.value()) > 0) {
    return Status::AlreadyExists("startDeal: deal already started");
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  DealRecord record;
  record.deal_id = deal_id.value();
  record.plist = std::move(plist);

  // h: the hash of the definitive startDeal entry — binds escrows to this
  // exact plist and log position.
  ByteWriter w;
  w.Str("xdeal-cbc-startdeal");
  w.Raw(record.deal_id.bytes.data(), 32);
  for (PartyId p : record.plist) w.U32(p.v);
  w.U64(next_order_);
  record.start_hash = Sha256Digest(w.bytes());
  ++next_order_;

  deals_.emplace(record.deal_id, std::move(record));
  return Status::OK();
}

Status CbcLogContract::HandleVote(CallContext& ctx, ByteReader& args,
                                  bool is_abort) {
  auto deal_id = ReadHash32(args);
  if (!deal_id.ok()) return deal_id.status();
  auto h = ReadHash32(args);
  if (!h.ok()) return h.status();

  auto it = deals_.find(deal_id.value());
  if (it == deals_.end()) {
    return Status::NotFound("vote: unknown deal");
  }
  DealRecord& record = it->second;
  if (!(record.start_hash == h.value())) {
    return Status::FailedPrecondition("vote: startDeal hash mismatch");
  }
  // Each voter must be in the start-of-deal plist (§6, Commit Phase).
  if (std::find(record.plist.begin(), record.plist.end(), ctx.sender) ==
      record.plist.end()) {
    return Status::PermissionDenied("vote: sender not in plist");
  }
  // Duplicate identical votes are pointless; reject so parties notice.
  for (const VoteEntry& v : record.votes) {
    if (v.voter == ctx.sender && v.is_abort == is_abort) {
      return Status::AlreadyExists("vote: already recorded");
    }
  }
  XDEAL_RETURN_IF_ERROR(ctx.gas->ChargeStorageWrite(1));
  record.votes.push_back(VoteEntry{ctx.sender, is_abort, next_order_++});
  return Status::OK();
}

DealOutcome CbcLogContract::OutcomeOf(const Hash256& deal_id) const {
  auto it = deals_.find(deal_id);
  if (it == deals_.end()) return kDealActive;
  const DealRecord& record = it->second;

  std::set<PartyId> committed;
  for (const VoteEntry& v : record.votes) {
    if (v.is_abort) {
      // Some party voted abort before every party voted commit.
      return kDealAborted;
    }
    committed.insert(v.voter);
    if (committed.size() == record.plist.size()) {
      // Every party voted commit before any abort: decisive.
      return kDealCommitted;
    }
  }
  return kDealActive;
}

Hash256 CbcLogContract::StartHashOf(const Hash256& deal_id) const {
  auto it = deals_.find(deal_id);
  return it == deals_.end() ? Hash256{} : it->second.start_hash;
}

}  // namespace xdeal
