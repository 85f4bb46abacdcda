#include "chain/world.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace xdeal {

World::World(uint64_t seed, std::unique_ptr<NetworkModel> net)
    : seed_(seed), rng_(seed), network_(std::move(net)) {
  assert(network_ != nullptr);
}

PartyId World::RegisterParty(const std::string& name) {
  return key_directory_.Register(name);
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
  SnapshotIO io(w);
  Transfer(*this, io, nullptr);
  return io.status();
}

Status World::Restore(ByteReader& r,
                      const Blockchain::ContractFactory& factory) {
  SnapshotIO io(r);
  Transfer(*this, io, factory);
  return io.status();
}

template <typename Self>
void World::Transfer(Self& self, SnapshotIO& io,
                     const Blockchain::ContractFactory& factory) {
  constexpr bool kDecode = !std::is_const_v<Self>;
  const Scheduler& scheduler = self.scheduler_;
  if (!kDecode && scheduler.pending() != scheduler.pending_durable()) {
    io.Fail(Status::FailedPrecondition(
        "world checkpoint requires a drained scheduler (" +
        std::to_string(scheduler.pending() - scheduler.pending_durable()) +
        " non-durable events pending)"));
  }
  if (kDecode && (self.key_directory_.size() != 0 || !self.chains_.empty() ||
                  scheduler.pending() != 0 || scheduler.now() != 0)) {
    io.Fail(Status::FailedPrecondition(
        "world restore requires a freshly constructed World"));
  }

  uint64_t rng_state[4];
  self.rng_.GetState(rng_state);
  for (uint64_t& s : rng_state) io.U64(s);
  Tick now = scheduler.now();
  io.U64(now);
  SchedulerStats stats = scheduler.stats();
  io.U64(stats.executed);
  io.U64(stats.dropped);
  io.Size(stats.max_pending);
  io.U64(stats.max_pending_at);
  std::vector<DurableEvent> durable;
  if (!kDecode) durable = scheduler.PendingDurable();
  // The restored scheduler's next_seq must be past every live seq; any
  // fresh value beyond the durable tail works because all non-durable
  // events have fired (their seqs are dead and never compared again).
  uint64_t next_seq = 0;
  for (const DurableEvent& ev : durable) {
    next_seq = std::max(next_seq, ev.seq + 1);
  }
  io.List(durable, [&io](DurableEvent& ev) {
    io.U64(ev.seq);
    io.U64(ev.time);
    io.Enum(ev.label.kind, EventKind::kTimer,
            "world snapshot: durable event kind out of range");
    io.U32(ev.label.chain);
    io.U32(ev.label.actor);
    io.Str(ev.handler);
    io.U64(ev.payload);
  });
  io.U64(next_seq);
  if constexpr (kDecode) {
    if (io.ok()) {
      self.rng_.SetState(rng_state);
      self.scheduler_.RestoreClock(now, next_seq, stats);
      self.scheduler_.ImportDurable(durable);
    }
  }

  // Only names travel: a restored party's keys derive from its name on
  // first use, so a party of a settled deal costs no key derivation.
  std::vector<std::string> names;
  for (uint32_t i = 0; i < self.key_directory_.size(); ++i) {
    names.push_back(self.key_directory_.NameOf(PartyId{i}).value());
  }
  io.List(names, [&io](std::string& name) { io.Str(name); });
  if constexpr (kDecode) {
    if (io.ok()) {
      for (const std::string& name : names) self.RegisterParty(name);
    }
  }

  size_t n_chains = self.chains_.size();
  io.Count(n_chains);
  for (size_t i = 0; i < n_chains && io.ok(); ++i) {
    Blockchain* c = kDecode ? nullptr : self.chains_[i].get();
    std::string name = kDecode ? "" : c->name();
    Tick interval = kDecode ? 0 : c->block_interval();
    io.Str(name);
    io.U64(interval);
    io.Check(interval > 0, "world snapshot: chain block interval of 0");
    if (!io.ok()) return;
    if constexpr (kDecode) c = self.CreateChain(name, interval);
    io.Nested([c](ByteWriter* w) { return c->Checkpoint(w); },
              [c, &factory](ByteReader& r) { return c->Restore(r, factory); });
  }
}

}  // namespace xdeal
