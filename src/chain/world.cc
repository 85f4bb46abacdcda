#include "chain/world.h"

#include <cassert>

namespace xdeal {

World::World(uint64_t seed, std::unique_ptr<NetworkModel> net)
    : seed_(seed), rng_(seed), network_(std::move(net)) {
  assert(network_ != nullptr);
}

PartyId World::RegisterParty(const std::string& name) {
  return key_directory_.Register(name, "world");
}

Blockchain* World::CreateChain(const std::string& name, Tick block_interval) {
  ChainId id{static_cast<uint32_t>(chains_.size())};
  chains_.push_back(
      std::make_unique<Blockchain>(this, id, name, block_interval));
  return chains_.back().get();
}

Blockchain* World::chain(ChainId id) {
  if (id.v >= chains_.size()) return nullptr;
  return chains_[id.v].get();
}

const Blockchain* World::chain(ChainId id) const {
  if (id.v >= chains_.size()) return nullptr;
  return chains_[id.v].get();
}

void World::Submit(PartyId from, ChainId chain_id, ContractId contract,
                   CallData call, std::string tag, uint64_t deal_tag) {
  Blockchain* target = chain(chain_id);
  assert(target != nullptr);
  Tick delay =
      SampleDelay(PartyEndpoint(from), ChainEndpoint(chain_id));
  Tick arrival_offset = delay;
  scheduler_.ScheduleAfter(
      arrival_offset, EventLabel::TxArrival(chain_id.v, from.v),
      [this, target, from, contract, call = std::move(call),
       tag = std::move(tag), deal_tag]() mutable {
        target->SubmitAt(scheduler_.now(), from, contract, std::move(call),
                         std::move(tag), deal_tag);
      });
}

Tick World::SampleDelay(Endpoint from, Endpoint to) {
  return network_->SampleDelay(scheduler_.now(), from, to, &rng_);
}

Tick World::KeyedObservationDelay(ChainId chain, Endpoint who,
                                  uint64_t block_height) {
  // Chained SplitMix64 mixes: each stage fully avalanches before the next
  // input is folded in, so (chain, who, height) tuples map to well-spread
  // stream seeds with no structured collisions.
  uint64_t h = SplitMix64(seed_ ^ 0x0b5e7a1d4ed0c9f3ULL).Next();
  h = SplitMix64(h ^ chain.v).Next();
  h = SplitMix64(h ^ who.id).Next();
  h = SplitMix64(h ^ block_height).Next();
  Rng local(h);
  return network_->SampleDelay(scheduler_.now(), ChainEndpoint(chain), who,
                               &local);
}

uint64_t World::TotalGas() const {
  uint64_t sum = 0;
  for (const auto& c : chains_) sum += c->total_gas();
  return sum;
}

Status World::Checkpoint(ByteWriter* w) const {
  if (scheduler_.pending() != scheduler_.pending_durable()) {
    return Status::FailedPrecondition(
        "world checkpoint requires a drained scheduler (" +
        std::to_string(scheduler_.pending() - scheduler_.pending_durable()) +
        " non-durable events pending)");
  }
  uint64_t rng_state[4];
  rng_.GetState(rng_state);
  for (uint64_t s : rng_state) w->U64(s);
  w->U64(scheduler_.now());
  // next_seq is not directly readable; reconstruct it as max(imported seq)+1
  // at restore. Write the stats block the engine's backlog probes read.
  const SchedulerStats& stats = scheduler_.stats();
  w->U64(stats.executed);
  w->U64(stats.dropped);
  w->U64(stats.max_pending);
  w->U64(stats.max_pending_at);
  std::vector<DurableEvent> durable = scheduler_.PendingDurable();
  w->U32(static_cast<uint32_t>(durable.size()));
  uint64_t max_seq = 0;
  for (const DurableEvent& ev : durable) {
    w->U64(ev.seq);
    w->U64(ev.time);
    w->U8(static_cast<uint8_t>(ev.label.kind));
    w->U32(ev.label.chain);
    w->U32(ev.label.actor);
    w->Str(ev.handler);
    w->U64(ev.payload);
    if (ev.seq > max_seq) max_seq = ev.seq;
  }
  // The restored scheduler's next_seq must be past every live seq; any
  // fresh value beyond the durable tail works because all non-durable
  // events have fired (their seqs are dead and never compared again).
  w->U64(durable.empty() ? 0 : max_seq + 1);

  w->U32(static_cast<uint32_t>(key_directory_.size()));
  for (uint32_t i = 0; i < key_directory_.size(); ++i) {
    auto name = key_directory_.NameOf(PartyId{i});
    if (!name.ok()) return name.status();
    w->Str(name.value());
  }

  w->U32(static_cast<uint32_t>(chains_.size()));
  for (const auto& c : chains_) {
    w->Str(c->name());
    w->U64(c->block_interval());
    ByteWriter body;
    XDEAL_RETURN_IF_ERROR(c->Checkpoint(&body));
    w->Blob(body.bytes());
  }
  return Status::OK();
}

Status World::Restore(ByteReader& r,
                      const Blockchain::ContractFactory& factory) {
  if (key_directory_.size() != 0 || !chains_.empty() ||
      scheduler_.pending() != 0 || scheduler_.now() != 0) {
    return Status::FailedPrecondition(
        "world restore requires a freshly constructed World");
  }
  uint64_t rng_state[4];
  for (auto& s : rng_state) {
    auto v = r.U64();
    if (!v.ok()) return v.status();
    s = v.value();
  }
  rng_.SetState(rng_state);

  auto now = r.U64();
  auto executed = r.U64();
  auto dropped = r.U64();
  auto max_pending = r.U64();
  auto max_pending_at = r.U64();
  if (!now.ok() || !executed.ok() || !dropped.ok() || !max_pending.ok() ||
      !max_pending_at.ok()) {
    return Status::InvalidArgument("world snapshot: truncated scheduler state");
  }
  auto n_durable = r.U32();
  if (!n_durable.ok()) return n_durable.status();
  std::vector<DurableEvent> durable;
  durable.reserve(n_durable.value());
  for (uint32_t i = 0; i < n_durable.value(); ++i) {
    DurableEvent ev;
    auto seq = r.U64();
    auto time = r.U64();
    auto kind = r.U8();
    auto chain = r.U32();
    auto actor = r.U32();
    auto handler = r.Str();
    auto payload = r.U64();
    if (!seq.ok() || !time.ok() || !kind.ok() || !chain.ok() || !actor.ok() ||
        !handler.ok() || !payload.ok()) {
      return Status::InvalidArgument("world snapshot: truncated durable event");
    }
    ev.seq = seq.value();
    ev.time = time.value();
    ev.label.kind = static_cast<EventKind>(kind.value());
    ev.label.chain = chain.value();
    ev.label.actor = actor.value();
    ev.handler = handler.value();
    ev.payload = payload.value();
    durable.push_back(ev);
  }
  auto next_seq = r.U64();
  if (!next_seq.ok()) return next_seq.status();

  SchedulerStats stats;
  stats.executed = executed.value();
  stats.dropped = dropped.value();
  stats.max_pending = static_cast<size_t>(max_pending.value());
  stats.max_pending_at = max_pending_at.value();
  scheduler_.RestoreClock(now.value(), next_seq.value(), stats);
  scheduler_.ImportDurable(durable);

  auto n_parties = r.U32();
  if (!n_parties.ok()) return n_parties.status();
  for (uint32_t i = 0; i < n_parties.value(); ++i) {
    auto name = r.Str();
    if (!name.ok()) return name.status();
    RegisterParty(name.value());  // keys re-derive from (domain, name)
  }

  auto n_chains = r.U32();
  if (!n_chains.ok()) return n_chains.status();
  for (uint32_t i = 0; i < n_chains.value(); ++i) {
    auto name = r.Str();
    auto interval = r.U64();
    if (!name.ok() || !interval.ok()) {
      return Status::InvalidArgument("world snapshot: truncated chain header");
    }
    auto body = r.Blob();
    if (!body.ok()) return body.status();
    Blockchain* c = CreateChain(name.value(), interval.value());
    ByteReader body_reader(body.value());
    XDEAL_RETURN_IF_ERROR(c->Restore(body_reader, factory));
  }
  return Status::OK();
}

}  // namespace xdeal
