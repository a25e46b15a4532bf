// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/rng.hpp"
#include "scheduler_ref.hpp"
#include "sim/scheduler.hpp"

namespace dapes::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(Duration::milliseconds(30), [&] { order.push_back(3); });
  sched.schedule(Duration::milliseconds(10), [&] { order.push_back(1); });
  sched.schedule(Duration::milliseconds(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesFireInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule(Duration::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  TimePoint seen{};
  sched.schedule(Duration::milliseconds(42), [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen.us, 42000);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  EventId id = sched.schedule(Duration::milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  EventId id = sched.schedule(Duration::milliseconds(5), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(Duration::milliseconds(10), [&] { ++fired; });
  sched.schedule(Duration::milliseconds(30), [&] { ++fired; });
  sched.run_until(TimePoint{20000});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now().us, 20000);
  sched.run_until(TimePoint{40000});
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventAtExactBoundaryRuns) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(Duration::milliseconds(20), [&] { ++fired; });
  sched.run_until(TimePoint{20000});
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(Duration::milliseconds(1), [&] {
    order.push_back(1);
    sched.schedule(Duration::milliseconds(1), [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule(Duration::milliseconds(-5), [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now().us, 0);
}

TEST(Scheduler, ExecutedCounts) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(Duration::milliseconds(i), [] {});
  }
  sched.run();
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(Scheduler, PendingExcludesCancelled) {
  Scheduler sched;
  EventId a = sched.schedule(Duration::milliseconds(1), [] {});
  sched.schedule(Duration::milliseconds(2), [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, CancelledFarFutureEventsCompacted) {
  // The 1000-node-scale failure mode: masses of far-future retransmit
  // timers get cancelled long before they would pop, so lazy pop-time
  // removal never reclaims them. Compaction must keep the heap bounded.
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sched.schedule(Duration::seconds(1000.0 + i), [] {}));
  }
  EXPECT_EQ(sched.queued(), 10000u);
  for (EventId id : ids) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 0u);
  // Everything was cancelled; compaction leaves at most the small
  // below-floor residue it does not bother with.
  EXPECT_LT(sched.queued(), 64u);
}

TEST(Scheduler, RetransmitTimerChurnStaysBounded) {
  // Schedule-then-cancel churn (the retransmit-timer pattern): one live
  // timer at any moment, 100k cancelled ones over time.
  Scheduler sched;
  EventId pending{};
  int fired = 0;
  for (int i = 0; i < 100000; ++i) {
    if (pending.valid()) sched.cancel(pending);
    pending = sched.schedule(Duration::seconds(3600.0), [&] { ++fired; });
    EXPECT_LE(sched.queued(), 64u + 1u) << "iteration " << i;
  }
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CompactionPreservesOrderAndSurvivors) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with a cancelled majority big enough to trip
  // compaction, then check the survivors still fire in time order.
  for (int i = 0; i < 200; ++i) {
    int at_ms = 1000 - i;  // reverse order to exercise the heap
    if (i % 10 == 0) {
      sched.schedule(Duration::milliseconds(at_ms),
                     [&order, at_ms] { order.push_back(at_ms); });
    } else {
      doomed.push_back(sched.schedule(Duration::milliseconds(at_ms), [] {
        ADD_FAILURE() << "cancelled event fired";
      }));
    }
  }
  for (EventId id : doomed) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 20u);
  sched.run();
  ASSERT_EQ(order.size(), 20u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(Scheduler, CancelledPileCompactedByAbsoluteCap) {
  // A huge mostly-live heap: the ratio trigger (cancelled > half) never
  // fires, so only the absolute cap (4096 dead entries) bounds the pile.
  Scheduler sched;
  std::vector<EventId> doomed;
  for (int i = 0; i < 10000; ++i) {
    sched.schedule(Duration::seconds(100.0 + i), [] {});
  }
  for (int i = 0; i < 6000; ++i) {
    doomed.push_back(sched.schedule(Duration::seconds(5000.0 + i), [] {}));
  }
  for (EventId id : doomed) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 10000u);
  // Without the absolute cap every dead entry would linger (16000 total);
  // with it, at most one cap's worth of dead entries survives.
  EXPECT_LE(sched.queued(), 10000u + 4096u);
}

TEST(Scheduler, CancelForNodeSweepsOnlyThatOwner) {
  Scheduler sched;
  int owned = 0, other = 0, unowned = 0;
  {
    Scheduler::OwnerScope own(sched, 7);
    sched.schedule(Duration::milliseconds(1), [&] { ++owned; });
    sched.schedule(Duration::milliseconds(2), [&] { ++owned; });
  }
  {
    Scheduler::OwnerScope own(sched, 8);
    sched.schedule(Duration::milliseconds(1), [&] { ++other; });
  }
  sched.schedule(Duration::milliseconds(1), [&] { ++unowned; });
  EXPECT_EQ(sched.cancel_for_node(7), 2u);
  // A second sweep finds nothing left to cancel.
  EXPECT_EQ(sched.cancel_for_node(7), 0u);
  sched.run();
  EXPECT_EQ(owned, 0);
  EXPECT_EQ(other, 1);
  EXPECT_EQ(unowned, 1);
}

TEST(Scheduler, OwnershipInheritedByTransitiveSchedules) {
  // Events scheduled *from inside* an owned callback belong to the same
  // owner: a node's retransmit chains die with it even though only the
  // root event was scheduled under an explicit OwnerScope.
  Scheduler sched;
  int fired = 0;
  {
    Scheduler::OwnerScope own(sched, 3);
    sched.schedule(Duration::milliseconds(1), [&] {
      sched.schedule(Duration::milliseconds(1), [&] { ++fired; });
    });
  }
  sched.run_until(TimePoint{1000});  // root fires, child inherits owner 3
  EXPECT_EQ(sched.cancel_for_node(3), 1u);
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, OwnerScopeRestoresPreviousOwner) {
  Scheduler sched;
  EXPECT_EQ(sched.current_owner(), Scheduler::kNoOwner);
  {
    Scheduler::OwnerScope outer(sched, 1);
    EXPECT_EQ(sched.current_owner(), 1u);
    {
      Scheduler::OwnerScope inner(sched, 2);
      EXPECT_EQ(sched.current_owner(), 2u);
    }
    EXPECT_EQ(sched.current_owner(), 1u);
  }
  EXPECT_EQ(sched.current_owner(), Scheduler::kNoOwner);
}

TEST(Scheduler, NestedNoOwnerScopeEscapesTheSweep) {
  // An explicit kNoOwner scope inside an owned one leaves the event
  // unowned — how the medium keeps in-flight deliveries alive across the
  // sender's teardown sweep.
  Scheduler sched;
  int delivered = 0;
  {
    Scheduler::OwnerScope own(sched, 5);
    Scheduler::OwnerScope unowned(sched, Scheduler::kNoOwner);
    sched.schedule_at(TimePoint{1000}, [&] { ++delivered; });
  }
  EXPECT_EQ(sched.cancel_for_node(5), 0u);
  sched.run();
  EXPECT_EQ(delivered, 1);
}

TEST(Scheduler, CancelForNodeRejectsBadArgs) {
  Scheduler sched;
  EXPECT_THROW(sched.cancel_for_node(Scheduler::kNoOwner),
               std::invalid_argument);
}

TEST(Scheduler, CancelForNodeComposesWithCompaction) {
  // A sweep large enough to trip the compaction floor must still cancel
  // every owned event and leave survivors intact (the sweep collects ids
  // before cancelling precisely because compaction rewrites the heap).
  Scheduler sched;
  int owned = 0, kept = 0;
  {
    Scheduler::OwnerScope own(sched, 9);
    for (int i = 0; i < 500; ++i) {
      sched.schedule(Duration::milliseconds(1 + i), [&] { ++owned; });
    }
  }
  for (int i = 0; i < 10; ++i) {
    sched.schedule(Duration::milliseconds(1 + i), [&] { ++kept; });
  }
  EXPECT_EQ(sched.cancel_for_node(9), 500u);
  sched.run();
  EXPECT_EQ(owned, 0);
  EXPECT_EQ(kept, 10);
}

TEST(Scheduler, SelfReschedulingChainBounded) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) {
      sched.schedule(Duration::milliseconds(1), tick);
    }
  };
  sched.schedule(Duration::milliseconds(1), tick);
  sched.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sched.now().us, 100000);
}

// ---------------------------------------------------------------------
// Equivalence with the id-set scheduler the slot pool replaced
// (tests/scheduler_ref.hpp, kept verbatim). Both run the same script; after
// every step they must agree on fire order and times, now(), queued(),
// pending(), executed() and every cancel / cancel_for_node return value.

/// One scheduler plus the bookkeeping a script needs. Events are named by
/// tokens (their schedule order), so the two sides can be compared even
/// though their EventId values differ. A fired event's behaviour is a pure
/// function of (seed, token): both sides do the same thing.
template <typename S>
struct ScriptSide {
  explicit ScriptSide(uint64_t seed) : seed(seed) {}

  S sched;
  uint64_t seed;
  /// Whether fired events act (schedule, cancel, sweep) or only log.
  bool react = true;
  std::vector<EventId> ids;  ///< by token
  /// (what, token or count, now) records: fires, cancel results, sweeps.
  std::vector<std::array<int64_t, 3>> log;

  static constexpr uint64_t kUnowned = S::kNoOwner;

  size_t schedule(int64_t delay_us, uint64_t owner) {
    const size_t token = ids.size();
    ids.push_back(EventId{});
    auto fn = [this, token] { fire(token); };
    if (owner == kUnowned) {
      // Inherits the firing event's owner when called from a callback.
      ids[token] = sched.schedule(Duration{delay_us}, fn);
    } else {
      typename S::OwnerScope own(sched, owner);
      ids[token] = sched.schedule(Duration{delay_us}, fn);
    }
    return token;
  }

  /// An event whose callback cancels its own id.
  size_t schedule_self_cancel(int64_t delay_us) {
    const size_t token = ids.size();
    ids.push_back(EventId{});
    ids[token] = sched.schedule(Duration{delay_us}, [this, token] {
      log.push_back({0, static_cast<int64_t>(token), sched.now().us});
      cancel(token);
    });
    return token;
  }

  void cancel(size_t token) {
    log.push_back({1, static_cast<int64_t>(token), sched.cancel(ids[token])});
  }

  void sweep(uint64_t owner) {
    log.push_back({2, static_cast<int64_t>(owner),
                   static_cast<int64_t>(sched.cancel_for_node(owner))});
  }

  void fire(size_t token) {
    log.push_back({0, static_cast<int64_t>(token), sched.now().us});
    if (!react) return;
    const uint64_t h = common::derive_seed(seed, token);
    const uint64_t arg = h >> 8;
    switch (h % 7) {
      case 2:  // a child (same-time ties included), inheriting the owner
        schedule(static_cast<int64_t>(arg % 4) * 1500, kUnowned);
        break;
      case 3:  // self-cancel: the event already left the queue
        cancel(token);
        break;
      case 4:  // cancel an earlier event, whatever its state
        cancel(arg % ids.size());
        break;
      case 5:  // a teardown sweep from inside a callback
        sweep(arg % 4);
        break;
      default:
        break;
    }
  }

  std::array<int64_t, 4> state() const {
    return {sched.now().us, static_cast<int64_t>(sched.queued()),
            static_cast<int64_t>(sched.pending()),
            static_cast<int64_t>(sched.executed())};
  }
};

/// Runs @p seed's random script on both schedulers in lockstep.
void run_equivalence_script(uint64_t seed, int steps) {
  ScriptSide<Scheduler> fast(seed);
  ScriptSide<ref::Scheduler> oracle(seed);
  common::Rng rng(seed);
  auto both = [&](auto&& op) {
    op(fast);
    op(oracle);
  };
  size_t compared = 0;  // log entries already checked
  bool capped = false;  // the absolute-cap burst ran
  auto random_owner = [&] {
    return rng.chance(0.4) ? Scheduler::kNoOwner : rng.next_below(4);
  };
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const uint64_t pick = rng.next_below(100);
    if (pick < 35) {
      // Near-future event; a coarse delay grid makes same-time ties.
      const int64_t delay = static_cast<int64_t>(rng.next_below(40)) * 500;
      const uint64_t owner = random_owner();
      both([&](auto& side) { side.schedule(delay, owner); });
    } else if (pick < 52 && !fast.ids.empty()) {
      // Any issued id: queued, cancelled, fired or compacted away.
      const size_t token = rng.next_below(fast.ids.size());
      both([&](auto& side) { side.cancel(token); });
    } else if (pick < 55) {
      both([&](auto& side) {
        side.log.push_back({3, 0, side.sched.cancel(EventId{})});
      });
    } else if (pick < 61) {
      const uint64_t owner = rng.next_below(4);
      both([&](auto& side) { side.sweep(owner); });
    } else if (pick < 85) {
      const int64_t horizon =
          fast.sched.now().us + static_cast<int64_t>(rng.next_below(6000));
      both([&](auto& side) {
        side.log.push_back(
            {4, static_cast<int64_t>(side.sched.run_until(TimePoint{horizon})),
             side.sched.now().us});
      });
    } else if (pick < 88) {
      both([&](auto& side) {
        side.log.push_back({5, static_cast<int64_t>(side.sched.run()),
                            side.sched.now().us});
      });
    } else if (pick < 97) {
      // A burst of far-future timers, most cancelled again: trips the
      // ratio trigger (and, swept by owner, compaction mid-sweep).
      const size_t count = 40 + rng.next_below(200);
      const uint64_t owner = rng.next_below(4);
      const bool by_sweep = rng.chance(0.3);
      const size_t first = fast.ids.size();
      both([&](auto& side) {
        for (size_t i = 0; i < count; ++i) {
          side.schedule(1'000'000 + static_cast<int64_t>(i % 17) * 1000,
                        i % 3 == 0 ? Scheduler::kNoOwner : owner);
        }
      });
      if (by_sweep) {
        both([&](auto& side) { side.sweep(owner); });
      } else {
        for (size_t i = first; i < first + count; ++i) {
          if (rng.chance(0.8)) both([&](auto& side) { side.cancel(i); });
        }
      }
    } else if (!capped) {
      // Once per script: many live events and a dead pile past the
      // absolute cap (4096) while still a minority of the heap.
      capped = true;
      const size_t first = fast.ids.size();
      both([&](auto& side) {
        for (int i = 0; i < 9000; ++i) {
          side.schedule(2'000'000 + i, Scheduler::kNoOwner);
        }
      });
      for (size_t i = first; i < first + 4200; ++i) {
        both([&](auto& side) { side.cancel(i); });
      }
    }
    ASSERT_EQ(fast.state(), oracle.state());
    ASSERT_EQ(fast.log.size(), oracle.log.size());
    for (; compared < fast.log.size(); ++compared) {
      ASSERT_EQ(fast.log[compared], oracle.log[compared]);
    }
  }
  // Drain: the remainder fires identically too.
  both([&](auto& side) { side.sched.run(); });
  ASSERT_EQ(fast.state(), oracle.state());
  ASSERT_TRUE(fast.log == oracle.log);
}

TEST(SchedulerEquivalence, RandomScriptsMatchTheIdSetScheduler) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    run_equivalence_script(seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(SchedulerEquivalence, StaleCancelsMatchTheIdSetScheduler) {
  // The corner cases spelled out: cancel after fire (true once, then
  // false), self-cancel, a stale cancel's effect on pending(), and a
  // cancel of an id whose entry a compaction dropped.
  ScriptSide<Scheduler> fast(0);
  ScriptSide<ref::Scheduler> oracle(0);
  fast.react = oracle.react = false;
  auto both = [&](auto&& op) {
    op(fast);
    op(oracle);
  };
  both([](auto& side) {
    side.schedule(10, Scheduler::kNoOwner);  // token 0
    side.schedule(20, Scheduler::kNoOwner);  // token 1
    side.sched.run_until(TimePoint{15});     // token 0 fires
    side.cancel(0);                          // after fire: true
    side.cancel(0);                          // repeat: false
    side.log.push_back({9, 0, static_cast<int64_t>(side.sched.pending())});
    side.schedule_self_cancel(30);  // token 2
    side.sched.run_until(TimePoint{50});  // token 2 fires at 45
    side.cancel(2);  // self-cancelled already: false
    side.log.push_back({9, 1, static_cast<int64_t>(side.sched.pending())});
    for (int i = 0; i < 100; ++i) side.schedule(1000 + i, 5);  // tokens 3..
    side.sweep(5);  // dead majority: compacts mid-sweep
    side.cancel(3);  // its entry was compacted away
    side.cancel(3);
    side.sched.run();
    side.cancel(1);
  });
  EXPECT_EQ(fast.state(), oracle.state());
  EXPECT_TRUE(fast.log == oracle.log);
  auto cancels_of = [&](int64_t token) {
    std::vector<int64_t> results;
    for (const auto& entry : fast.log) {
      if (entry[0] == 1 && entry[1] == token) results.push_back(entry[2]);
    }
    return results;
  };
  // After fire and after self-cancel alike: true once, then false.
  EXPECT_EQ(cancels_of(0), (std::vector<int64_t>{1, 0}));
  EXPECT_EQ(cancels_of(2), (std::vector<int64_t>{1, 0}));
}

}  // namespace
}  // namespace dapes::sim
