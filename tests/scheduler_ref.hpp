// The scheduler as it was before its slot pool: a binary heap of entries
// each owning a shared std::function, with cancellation recorded in an
// unordered_set of event ids. Kept verbatim (modulo `inline` and the
// namespace) as the oracle for tests/test_scheduler.cpp's randomized
// equivalence suite; it is test-only code and not part of libdapes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace dapes::sim::ref {

/// The per-trial discrete-event loop (see the file comment for the
/// determinism contract). Not copyable: exactly one instance per trial.
class Scheduler {
 public:
  /// Owner value of events scheduled outside any OwnerScope. Not 0 —
  /// node ids start at 0, so 0 must stay a usable owner.
  static constexpr uint64_t kNoOwner = std::numeric_limits<uint64_t>::max();

  /// RAII owner attribution for the fault-injection teardown sweep
  /// (`cancel_for_node`): while a scope is alive on the calling thread,
  /// every event that thread schedules into @p sched is stamped with
  /// @p owner. Events fired by the run loop re-install their own owner
  /// around the callback, so transitively scheduled events (retransmit
  /// timers rescheduling themselves, CSMA backoff chains) inherit it
  /// without any per-call plumbing. Scopes nest; the previous binding is
  /// restored on destruction.
  class OwnerScope {
   public:
    /// Install @p owner for @p sched on this thread.
    OwnerScope(Scheduler& sched, uint64_t owner);
    /// Restore the previous binding.
    ~OwnerScope();
    OwnerScope(const OwnerScope&) = delete;             ///< not copyable
    OwnerScope& operator=(const OwnerScope&) = delete;  ///< not copyable

   private:
    Scheduler* prev_sched_;
    uint64_t prev_owner_;
  };

  /// An empty schedule at time zero.
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;             ///< not copyable
  Scheduler& operator=(const Scheduler&) = delete;  ///< not copyable

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedule @p fn to run at absolute time @p at (clamped to now()).
  EventId schedule_at(TimePoint at, std::function<void()> fn);

  /// Schedule @p fn after a relative delay (negative delays clamp to 0).
  EventId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it was already cancelled
  /// (and usually if it already fired — after a compaction the scheduler
  /// no longer remembers old ids, so a stale cancel may return true; it
  /// is harmless either way).
  bool cancel(EventId id);

  /// The owner the calling thread currently stamps onto scheduled events
  /// (kNoOwner when no OwnerScope for this scheduler is active).
  uint64_t current_owner() const;

  /// Teardown sweep for a retired node: cancel every pending event owned
  /// by @p owner (see OwnerScope), reusing the lazy-cancel + compaction
  /// machinery so a mass retirement cannot bloat the heap. Unowned events
  /// are never touched — the medium schedules its in-flight frame
  /// deliveries under kNoOwner for exactly that reason. Throws
  /// std::invalid_argument for kNoOwner. Returns the number cancelled.
  size_t cancel_for_node(uint64_t owner);

  /// Run until the queue is empty or simulated time reaches @p until.
  /// Returns the number of events executed by this call.
  size_t run_until(TimePoint until);

  /// Run until the queue drains completely.
  size_t run();

  /// Number of live (non-cancelled) pending events.
  size_t pending() const {
    return cancelled_.size() < heap_.size() ? heap_.size() - cancelled_.size()
                                            : 0;
  }

  /// Queue entries currently held, *including* cancelled ones awaiting
  /// lazy removal — the quantity the compaction keeps bounded.
  size_t queued() const { return heap_.size(); }

  /// Total events executed over the scheduler's lifetime.
  uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    TimePoint at;
    uint64_t seq = 0;
    uint64_t id = 0;
    /// Owning node for cancel_for_node (kNoOwner = unowned).
    uint64_t owner = kNoOwner;
    std::shared_ptr<std::function<void()>> fn;
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Drop every cancelled entry from the heap in one O(n) pass. Called
  /// when cancelled entries outnumber live ones *or* exceed an absolute
  /// cap: without the cap, a huge queue could hold an arbitrary byte
  /// volume of dead entries while still passing the ratio test.
  void compact();

  /// Cancel bookkeeping: mark @p id, compacting when dead entries pile up.
  bool apply_cancel(uint64_t id);

  TimePoint now_ = TimePoint::zero();
  uint64_t next_seq_ = 1;
  uint64_t next_id_ = 1;
  uint64_t executed_ = 0;
  /// Max-priority heap over EntryCompare (std::push_heap/pop_heap), kept
  /// as a plain vector so compact() can filter it in place.
  std::vector<Entry> heap_;
  std::unordered_set<uint64_t> cancelled_;
};

namespace {

/// Below this size the heap is too small for compaction to matter; the
/// floor also preserves the "cancel twice returns false" behaviour for
/// the tiny schedules unit tests build.
constexpr size_t kCompactFloor = 64;

/// Absolute cancelled-entry cap: compact once this many dead entries
/// accumulate even if they are still a minority of a huge heap. 4096
/// entries is ~256 KB of Entry + closure storage — the bound on wasted
/// memory between compactions.
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

inline Scheduler::OwnerScope::OwnerScope(Scheduler& sched, uint64_t owner)
    : prev_sched_(t_owner.sched), prev_owner_(t_owner.owner) {
  t_owner.sched = &sched;
  t_owner.owner = owner;
}

inline Scheduler::OwnerScope::~OwnerScope() {
  t_owner.sched = prev_sched_;
  t_owner.owner = prev_owner_;
}

inline uint64_t Scheduler::current_owner() const {
  return t_owner.sched == this ? t_owner.owner : kNoOwner;
}

inline EventId Scheduler::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  // Traced after clamping. The event id is deliberately not recorded, so
  // the record carries only what the simulation observes.
  DAPES_TRACE_HERE(trace::EventType::kSchedSchedule,
                   static_cast<uint64_t>(at.us));
  Entry e;
  e.at = at;
  e.seq = next_seq_++;
  e.id = next_id_++;
  e.owner = current_owner();
  e.fn = std::make_shared<std::function<void()>>(std::move(fn));
  const EventId id{e.id};
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
  return id;
}

inline EventId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  if (delay.us < 0) delay.us = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

inline bool Scheduler::apply_cancel(uint64_t id) {
  // Mark; the entry is discarded lazily at pop time, or in bulk once
  // cancelled entries dominate the heap or pile past the absolute cap.
  if (!cancelled_.insert(id).second) return false;
  if ((heap_.size() >= kCompactFloor &&
       cancelled_.size() * 2 > heap_.size()) ||
      cancelled_.size() >= kCompactAbsolute) {
    compact();
  }
  return true;
}

inline bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
  return apply_cancel(id.value);
}

inline size_t Scheduler::cancel_for_node(uint64_t owner) {
  if (owner == kNoOwner) {
    throw std::invalid_argument("Scheduler::cancel_for_node: kNoOwner");
  }
  // Collect first, cancel second: apply_cancel may trigger compact(),
  // which rewrites heap_ mid-iteration.
  std::vector<uint64_t> ids;
  for (const Entry& e : heap_) {
    if (e.owner == owner && !cancelled_.contains(e.id)) ids.push_back(e.id);
  }
  size_t cancelled = 0;
  for (uint64_t id : ids) {
    DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
    if (apply_cancel(id)) ++cancelled;
  }
  return cancelled;
}

inline void Scheduler::compact() {
  std::erase_if(heap_, [&](const Entry& e) {
    auto it = cancelled_.find(e.id);
    if (it == cancelled_.end()) return false;
    cancelled_.erase(it);
    return true;
  });
  // Anything left never matched a queued entry (it already fired or was
  // compacted away before): forget it so the set cannot grow either.
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), EntryCompare{});
}

inline size_t Scheduler::run_until(TimePoint until) {
  size_t count = 0;
  while (!heap_.empty()) {
    if (heap_.front().at > until) break;
    std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    now_ = e.at;
    ++executed_;
    ++count;
    DAPES_TRACE_HERE(trace::EventType::kSchedFire);
    // Re-install the entry's owner for the callback so events it
    // schedules inherit attribution (see OwnerScope).
    OwnerScope own(*this, e.owner);
    (*e.fn)();
  }
  // The clock always reaches the requested horizon, whether or not
  // events remain beyond it.
  if (now_ < until) now_ = until;
  return count;
}

inline size_t Scheduler::run() {
  size_t count = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    now_ = e.at;
    ++executed_;
    ++count;
    DAPES_TRACE_HERE(trace::EventType::kSchedFire);
    // Same owner inheritance as run_until.
    OwnerScope own(*this, e.owner);
    (*e.fn)();
  }
  return count;
}

}  // namespace dapes::sim::ref
