#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"

namespace dapes::sim {

namespace {

/// Below this size the heap is too small for compaction to matter; the
/// floor also preserves the "cancel twice returns false" behaviour for
/// the tiny schedules unit tests build.
constexpr size_t kCompactFloor = 64;

/// Absolute cancelled-entry cap: compact once this many dead entries
/// accumulate even if they are still a minority of a huge heap — the
/// bound on callbacks held by cancelled events between compactions.
constexpr size_t kCompactAbsolute = 4096;

/// The calling thread's owner attribution (see Scheduler::OwnerScope):
/// which scheduler it stamps and with what owner. Thread-local because
/// `--jobs` runs independent trials on concurrent threads. One level
/// suffices per thread — nesting is handled by the scope's save/restore,
/// not by a stack here.
struct OwnerBinding {
  Scheduler* sched = nullptr;
  uint64_t owner = 0;
};
thread_local OwnerBinding t_owner;

}  // namespace

Scheduler::OwnerScope::OwnerScope(Scheduler& sched, uint64_t owner)
    : prev_sched_(t_owner.sched), prev_owner_(t_owner.owner) {
  t_owner.sched = &sched;
  t_owner.owner = owner;
}

Scheduler::OwnerScope::~OwnerScope() {
  t_owner.sched = prev_sched_;
  t_owner.owner = prev_owner_;
}

uint64_t Scheduler::current_owner() const {
  return t_owner.sched == this ? t_owner.owner : kNoOwner;
}

EventId Scheduler::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  // Traced after clamping. The event id is deliberately not recorded, so
  // the record carries only what the simulation observes.
  DAPES_TRACE_HERE(trace::EventType::kSchedSchedule,
                   static_cast<uint64_t>(at.us));
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = current_owner();
  s.queued = true;
  heap_.push_back(Key{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyCompare{});
  return EventId{id_value(slot, s.generation)};
}

EventId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  if (delay.us < 0) delay.us = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.queued = false;
  s.cancelled = false;
  // Generation 0 would let a (slot 0, generation 0) id equal "no event".
  if (++s.generation == 0) s.generation = 1;
  free_.push_back(slot);
}

bool Scheduler::apply_cancel(uint64_t value) {
  // Mark; the entry is discarded lazily at pop time, or in bulk once
  // cancelled entries dominate the heap or pile past the absolute cap.
  const uint32_t slot = static_cast<uint32_t>(value);
  const uint32_t generation = static_cast<uint32_t>(value >> 32);
  if (slot < slots_.size() && slots_[slot].queued &&
      slots_[slot].generation == generation) {
    Slot& s = slots_[slot];
    if (s.cancelled) return false;
    s.cancelled = true;
    ++dead_;
  } else if (!stale_.insert(value).second) {
    return false;
  }
  if ((heap_.size() >= kCompactFloor &&
       cancelled_count() * 2 > heap_.size()) ||
      cancelled_count() >= kCompactAbsolute) {
    compact();
  }
  return true;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
  return apply_cancel(id.value);
}

size_t Scheduler::cancel_for_node(uint64_t owner) {
  if (owner == kNoOwner) {
    throw std::invalid_argument("Scheduler::cancel_for_node: kNoOwner");
  }
  // Collect first (in heap order), cancel second: apply_cancel may
  // trigger compact(), which rewrites heap_ mid-iteration.
  std::vector<uint64_t> ids;
  for (const Key& k : heap_) {
    const Slot& s = slots_[k.slot];
    if (s.owner == owner && !s.cancelled) {
      ids.push_back(id_value(k.slot, s.generation));
    }
  }
  size_t cancelled = 0;
  for (uint64_t id : ids) {
    DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
    if (apply_cancel(id)) ++cancelled;
  }
  return cancelled;
}

void Scheduler::compact() {
  std::erase_if(heap_, [&](const Key& k) {
    if (!slots_[k.slot].cancelled) return false;
    release(k.slot);
    return true;
  });
  dead_ = 0;
  // Stale ids never matched a queued entry: forget them so the set
  // cannot grow either.
  stale_.clear();
  std::make_heap(heap_.begin(), heap_.end(), KeyCompare{});
}

size_t Scheduler::run_through(TimePoint until) {
  size_t count = 0;
  while (!heap_.empty() && heap_.front().at <= until) {
    std::pop_heap(heap_.begin(), heap_.end(), KeyCompare{});
    const Key k = heap_.back();
    heap_.pop_back();
    Slot& s = slots_[k.slot];
    if (s.cancelled) {
      --dead_;
      release(k.slot);
      continue;
    }
    now_ = k.at;
    ++executed_;
    ++count;
    DAPES_TRACE_HERE(trace::EventType::kSchedFire);
    // The callback may schedule (growing slots_) or cancel its own id,
    // so take it out and release the slot before running it.
    std::function<void()> fn = std::move(s.fn);
    const uint64_t owner = s.owner;
    release(k.slot);
    // Re-install the entry's owner for the callback so events it
    // schedules inherit attribution (see OwnerScope).
    OwnerScope own(*this, owner);
    fn();
  }
  return count;
}

size_t Scheduler::run_until(TimePoint until) {
  const size_t count = run_through(until);
  // The clock always reaches the requested horizon, whether or not
  // events remain beyond it.
  if (now_ < until) now_ = until;
  return count;
}

size_t Scheduler::run() {
  return run_through(TimePoint{std::numeric_limits<int64_t>::max()});
}

}  // namespace dapes::sim
