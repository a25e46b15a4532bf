/// @file
/// Discrete-event scheduler.
///
/// Single-threaded, deterministic: events at the same timestamp fire in
/// insertion order (a strictly increasing sequence number breaks ties), so
/// identical seeds give identical runs. Everything in the repository — the
/// wireless medium, NDN forwarders, DAPES peers, the IP baselines — runs on
/// one Scheduler instance per trial.
///
/// Events live in a recycled slot pool: a slot holds the callback and its
/// owner, and the heap orders 24-byte (time, sequence, slot) keys, so
/// scheduling an event allocates nothing once the pool and heap have
/// grown to the trial's peak. An EventId is a slot index tagged with the
/// slot's generation, which changes whenever the slot is released.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"

namespace dapes::sim {

using common::Duration;
using common::TimePoint;

/// Handle for cancelling a scheduled event.
struct EventId {
  /// Opaque event identity (slot generation << 32 | slot index); 0 means
  /// "no event".
  uint64_t value = 0;
  /// True when the handle refers to a real (scheduled) event.
  bool valid() const { return value != 0; }
};

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

  /// Cancel a pending event. Returns true the first time an id is
  /// cancelled and false for a repeat. Cancelling an event that already
  /// fired is harmless: it returns true once, and the id counts as
  /// cancelled in pending() until the next compaction, which forgets
  /// every cancelled id (so a repeat after it returns true again).
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
    const size_t cancelled = cancelled_count();
    return cancelled < heap_.size() ? heap_.size() - cancelled : 0;
  }

  /// Queue entries currently held, *including* cancelled ones awaiting
  /// lazy removal — the quantity the compaction keeps bounded.
  size_t queued() const { return heap_.size(); }

  /// Total events executed over the scheduler's lifetime.
  uint64_t executed() const { return executed_; }

 private:
  /// Heap entry: ordering fields plus the slot holding the event.
  struct Key {
    TimePoint at;
    uint64_t seq = 0;
    uint32_t slot = 0;
  };
  struct KeyCompare {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  /// One pooled event. A slot is free, queued live, or queued cancelled;
  /// it returns to the free list when its heap key leaves the heap.
  struct Slot {
    std::function<void()> fn;
    /// Owning node for cancel_for_node (kNoOwner = unowned).
    uint64_t owner = kNoOwner;
    /// Changes on every release, so stale EventIds never match.
    uint32_t generation = 1;
    bool queued = false;
    bool cancelled = false;
  };

  static uint64_t id_value(uint32_t slot, uint32_t generation) {
    return (uint64_t{generation} << 32) | slot;
  }

  /// Cancelled events the compaction triggers and pending() count: the
  /// cancelled entries still queued plus the remembered stale cancels.
  size_t cancelled_count() const { return dead_ + stale_.size(); }

  /// Drop every cancelled entry from the heap in one O(n) pass. Called
  /// when cancelled entries outnumber live ones *or* exceed an absolute
  /// cap: without the cap, a huge queue could hold an arbitrary byte
  /// volume of dead entries while still passing the ratio test.
  void compact();

  /// Cancel bookkeeping for id @p value, compacting when dead entries
  /// pile up.
  bool apply_cancel(uint64_t value);

  /// Release @p slot: destroy its callback, bump its generation and put
  /// it on the free list.
  void release(uint32_t slot);

  /// Fire events in (time, sequence) order up to @p until inclusive.
  size_t run_through(TimePoint until);

  TimePoint now_ = TimePoint::zero();
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  /// Max-priority heap over KeyCompare (std::push_heap/pop_heap), kept
  /// as a plain vector so compact() can filter it in place.
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  /// Released slots, most recent last.
  std::vector<uint32_t> free_;
  /// Cancelled entries still in the heap.
  size_t dead_ = 0;
  /// Ids cancelled after their event left the heap (it fired, or a
  /// compaction dropped it). They match nothing, but they count as
  /// cancelled until the next compaction and a second cancel of one
  /// returns false — the behaviour of the id-set scheduler this pool
  /// replaced, which pending(), the compaction triggers and cancel()'s
  /// return value keep exactly. Only stale cancels touch this set.
  std::unordered_set<uint64_t> stale_;
};

}  // namespace dapes::sim
