#include "sim/scheduler.h"

#include <utility>

namespace xdeal {

bool ChoicePolicy::ShouldDrop(const EnabledEvent& /*chosen*/) { return false; }

size_t DefaultChoicePolicy::Choose(
    const std::vector<EnabledEvent>& /*enabled*/) {
  return 0;
}

size_t ScriptedChoicePolicy::Choose(const std::vector<EnabledEvent>& enabled) {
  if (next_ >= script_.size()) {
    ++next_;
    return 0;
  }
  size_t choice = script_[next_++];
  return choice < enabled.size() ? choice : 0;
}

void Scheduler::AddInFlight(uint64_t deal_tag) {
  if (deal_tag != 0) ++in_flight_[deal_tag];
}

void Scheduler::RemoveInFlight(uint64_t deal_tag) {
  if (deal_tag == 0) return;
  auto it = in_flight_.find(deal_tag);
  if (it == in_flight_.end()) return;
  if (--it->second == 0) {
    in_flight_.erase(it);
    drained_.push_back(deal_tag);
  }
}

void Scheduler::Push(Event ev) {
  AddInFlight(ev.label.deal_tag);
  queue_.push(std::move(ev));
  if (queue_.size() > stats_.max_pending) {
    stats_.max_pending = queue_.size();
    stats_.max_pending_at = now_;
  }
}

void Scheduler::ScheduleAt(Tick t, EventLabel label, Callback fn) {
  if (t < now_) t = now_;
  Push(Event{t, next_seq_++, label, std::move(fn)});
}

void Scheduler::ScheduleAfter(Tick delay, EventLabel label, Callback fn) {
  // Saturating add: kTickMax means "never" and must not wrap.
  Tick t = (delay > kTickMax - now_) ? kTickMax : now_ + delay;
  Push(Event{t, next_seq_++, label, std::move(fn)});
}

void Scheduler::RegisterDurableHandler(std::string name,
                                       DurableHandler handler) {
  durable_handlers_[std::move(name)] = std::move(handler);
}

void Scheduler::ScheduleDurableAt(Tick t, EventLabel label,
                                  std::string handler, uint64_t payload) {
  if (t < now_) t = now_;
  uint64_t seq = next_seq_++;
  durable_[seq] = DurableEvent{seq, t, label, std::move(handler), payload};
  // The queued wrapper resolves the handler by name at fire time, so an
  // imported event works even if its handler was registered afterwards.
  Push(Event{t, seq, label, [this, seq]() {
         auto it = durable_.find(seq);
         if (it == durable_.end()) return;
         DurableEvent rec = std::move(it->second);
         durable_.erase(it);
         auto h = durable_handlers_.find(rec.handler);
         if (h != durable_handlers_.end()) h->second(rec.payload);
       }});
}

std::vector<DurableEvent> Scheduler::PendingDurable() const {
  std::vector<DurableEvent> out;
  out.reserve(durable_.size());
  for (const auto& [seq, rec] : durable_) out.push_back(rec);
  return out;  // map iteration order == seq ascending
}

void Scheduler::ImportDurable(const std::vector<DurableEvent>& events) {
  for (const DurableEvent& rec : events) {
    uint64_t seq = rec.seq;
    durable_[seq] = rec;
    Push(Event{rec.time, seq, rec.label, [this, seq]() {
           auto it = durable_.find(seq);
           if (it == durable_.end()) return;
           DurableEvent r = std::move(it->second);
           durable_.erase(it);
           auto h = durable_handlers_.find(r.handler);
           if (h != durable_handlers_.end()) h->second(r.payload);
         }});
  }
}

void Scheduler::RestoreClock(Tick now, uint64_t next_seq,
                             const SchedulerStats& stats) {
  now_ = now;
  next_seq_ = next_seq;
  stats_ = stats;
}

// With a policy installed: gather every event tied at the earliest pending
// time, collapse same-(kind, chain, actor) ties into FIFO channels (only the
// lowest-seq member of a channel is enabled — see the header), let the policy
// choose, and reinsert the rest. The pop order of the tie group is (time,
// seq), so `ties` is already seq-sorted.
bool Scheduler::PolicyStep() {
  std::vector<Event> ties;
  Tick t = queue_.top().time;
  while (!queue_.empty() && queue_.top().time == t) {
    // Move out before pop (see Step for why the const_cast is safe).
    ties.push_back(std::move(const_cast<Event&>(queue_.top())));
    queue_.pop();
  }

  std::vector<EnabledEvent> enabled;
  std::vector<size_t> tie_index;  // enabled index -> ties index
  enabled.reserve(ties.size());
  for (size_t i = 0; i < ties.size(); ++i) {
    const EventLabel& label = ties[i].label;
    bool shadowed = false;
    if (label.kind != EventKind::kInternal) {
      for (size_t j = 0; j < i && !shadowed; ++j) {
        const EventLabel& prev = ties[j].label;
        shadowed = prev.kind == label.kind && prev.chain == label.chain &&
                   prev.actor == label.actor;
      }
    }
    if (!shadowed) {
      enabled.push_back(EnabledEvent{ties[i].seq, ties[i].time, label});
      tie_index.push_back(i);
    }
  }

  size_t choice = policy_->Choose(enabled);
  if (choice >= enabled.size()) choice = 0;
  size_t chosen_tie = tie_index[choice];
  Event ev = std::move(ties[chosen_tie]);
  // Re-queued ties were counted when first pushed, and the queue is no
  // deeper than before the gather, so they bypass Push.
  for (size_t i = 0; i < ties.size(); ++i) {
    if (i != chosen_tie) queue_.push(std::move(ties[i]));
  }

  now_ = ev.time;
  if (policy_->ShouldDrop(enabled[choice])) {
    ++stats_.dropped;
    Consume(ev);
    return true;
  }
  ev.fn();
  Consume(ev);
  ++stats_.executed;
  if (step_observer_) step_observer_(now_, queue_.size());
  return true;
}

bool Scheduler::Step() {
  if (queue_.empty()) return false;
  if (policy_ != nullptr) return PolicyStep();
  // Move out before pop: the callback may schedule new events. The const_cast
  // is safe because the event is popped immediately and never compared again.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ev.fn();
  // Counted out after the callback, so work it hands on under the same tag
  // (a transaction entering a mempool) keeps the tag busy.
  Consume(ev);
  ++stats_.executed;
  if (step_observer_) step_observer_(now_, queue_.size());
  return true;
}

size_t Scheduler::Run(Tick limit) {
  size_t executed = 0;
  while (!queue_.empty() && queue_.top().time <= limit) {
    Step();
    ++executed;
  }
  return executed;
}

}  // namespace xdeal
