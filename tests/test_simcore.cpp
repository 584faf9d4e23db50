// Unit and property tests of the discrete-event core: ordering, FIFO
// tie-breaking, cancellation semantics, determinism.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "simcore/simulator.h"

namespace hpcs::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(30), [&] { order.push_back(3); });
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(SimTime(10), [&] { fired = true; });
  EXPECT_TRUE(q.pending(h));
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));  // second cancel is a no-op
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, SlotRecyclingKeepsHandlesDistinct) {
  EventQueue q;
  EventHandle h1 = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  // The recycled slot must not make the stale handle valid again.
  EventHandle h2 = q.schedule(SimTime(2), [] {});
  EXPECT_FALSE(q.pending(h1));
  EXPECT_TRUE(q.pending(h2));
  EXPECT_FALSE(q.cancel(h1));
  EXPECT_TRUE(q.cancel(h2));
}

TEST(EventQueue, SizeCountsLiveEventsOnly) {
  EventQueue q;
  EventHandle a = q.schedule(SimTime(1), [] {});
  q.schedule(SimTime(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), SimTime(2));
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator s;
  SimTime seen = SimTime::zero();
  s.schedule_in(Duration(100), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, SimTime(100));
  EXPECT_EQ(s.now(), SimTime(100));
}

TEST(Simulator, NestedScheduling) {
  Simulator s;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) s.schedule_in(Duration(10), recur);
  };
  s.schedule_in(Duration(10), recur);
  s.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), SimTime(50));
}

TEST(Simulator, RunRespectsDeadline) {
  Simulator s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_in(Duration(i * 10), [&] { ++fired; });
  }
  s.run(SimTime(50));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(s.now(), SimTime(50));
  s.run();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  SimTime when = SimTime::max();
  s.schedule_in(Duration(5), [&] {
    s.schedule_in(Duration::zero(), [&] { when = s.now(); });
  });
  s.run();
  EXPECT_EQ(when, SimTime(5));
}

// Property: a random schedule/cancel workload never fires cancelled events,
// fires everything else exactly once, and in non-decreasing time order.
TEST(EventQueueProperty, RandomScheduleCancelStress) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::vector<EventHandle> handles;
    std::vector<int> fired_count(2000, 0);
    std::vector<bool> cancelled(2000, false);
    SimTime last_fired = SimTime::zero();
    int next_id = 0;

    for (int round = 0; round < 2000; ++round) {
      const double dice = rng.uniform();
      if (dice < 0.6 || q.empty()) {
        const int id = next_id++;
        const SimTime when(rng.uniform_int(0, 100000));
        if (id < 2000) {
          handles.push_back(q.schedule(when, [&fired_count, id] { ++fired_count[static_cast<std::size_t>(id)]; }));
        }
      } else if (dice < 0.8 && !handles.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1));
        if (q.cancel(handles[pick])) {
          cancelled[pick] = true;
        }
      }
    }
    // Drain; events may be in the "past" relative to each other but must pop
    // in non-decreasing order.
    while (!q.empty()) {
      const SimTime t = q.next_time();
      EXPECT_GE(t, last_fired);
      last_fired = t;
      q.pop_and_run();
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (cancelled[i]) {
        EXPECT_EQ(fired_count[i], 0) << "cancelled event " << i << " fired";
      } else {
        EXPECT_EQ(fired_count[i], 1) << "event " << i << " fired " << fired_count[i] << " times";
      }
    }
  }
}

TEST(EventQueueReschedule, MovesPendingEventWithoutTouchingCallback) {
  EventQueue q;
  std::vector<int> order;
  EventHandle h = q.schedule(SimTime(10), [&] { order.push_back(1); });
  q.schedule(SimTime(20), [&] { order.push_back(2); });
  EXPECT_TRUE(q.reschedule(h, SimTime(30)));  // 1 now fires after 2
  EXPECT_TRUE(q.pending(h));
  EXPECT_EQ(q.size(), 2u);  // re-keyed in place: still one event
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueReschedule, StaleHandleReturnsFalse) {
  EventQueue q;
  EventHandle h = q.schedule(SimTime(1), [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.reschedule(h, SimTime(5)));  // already fired
  EventHandle c = q.schedule(SimTime(1), [] {});
  q.cancel(c);
  EXPECT_FALSE(q.reschedule(c, SimTime(5)));  // cancelled
  EXPECT_FALSE(q.reschedule(EventHandle{}, SimTime(5)));  // default handle
}

TEST(EventQueueReschedule, RearmFromInsideFiringCallback) {
  // The recurring-event fast path: the callback re-arms its own slot and the
  // original handle stays valid across every firing.
  EventQueue q;
  struct State {
    EventQueue* q;
    EventHandle h;
    int fired = 0;
  } st{&q, {}, 0};
  st.h = q.schedule(SimTime(10), [&st] {
    if (++st.fired < 5) {
      ASSERT_TRUE(st.q->reschedule(st.h, SimTime(st.fired * 10 + 10)));
    }
  });
  SimTime last = SimTime::zero();
  while (!q.empty()) last = q.pop_and_run();
  EXPECT_EQ(st.fired, 5);
  EXPECT_EQ(last, SimTime(50));
  EXPECT_FALSE(q.pending(st.h));
}

TEST(EventQueueReschedule, FifoOrderFollowsRescheduleTime) {
  // A rescheduled event ties with later-scheduled events at the same time:
  // reschedule() consumes a fresh sequence number, exactly like the
  // cancel+schedule pair it replaces.
  EventQueue q;
  std::vector<int> order;
  EventHandle h = q.schedule(SimTime(5), [&] { order.push_back(0); });
  q.schedule(SimTime(10), [&] { order.push_back(1); });
  EXPECT_TRUE(q.reschedule(h, SimTime(10)));  // now ties with 1, but later seq
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueReschedule, CancelThenReuseKeepsGenerationsDistinct) {
  // A cancelled slot is recycled; the recycled slot must not resurrect the
  // old handle.
  EventQueue q;
  EventHandle old = q.schedule(SimTime(50), [] { FAIL() << "cancelled event fired"; });
  q.cancel(old);
  q.schedule(SimTime(1), [] {});
  while (!q.empty()) q.pop_and_run();
  bool fired = false;
  EventHandle fresh = q.schedule(SimTime(60), [&] { fired = true; });
  EXPECT_FALSE(q.pending(old));
  EXPECT_FALSE(q.cancel(old));
  EXPECT_FALSE(q.reschedule(old, SimTime(70)));
  EXPECT_TRUE(q.pending(fresh));
  while (!q.empty()) q.pop_and_run();
  EXPECT_TRUE(fired);
}

TEST(EventQueueClear, ResetsSequenceNumbering) {
  // clear() must reset the FIFO tie-break counter: a reused queue has to
  // behave exactly like a fresh one (determinism contract).
  auto tie_break_order = [](EventQueue& q) {
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) q.schedule(SimTime(7), [&order, i] { order.push_back(i); });
    while (!q.empty()) q.pop_and_run();
    return order;
  };
  EventQueue fresh;
  const auto expected = tie_break_order(fresh);
  EventQueue reused;
  reused.schedule(SimTime(1), [] {});
  reused.schedule(SimTime(2), [] {});
  reused.clear();
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(tie_break_order(reused), expected);
}

TEST(EventQueueClear, DropsPendingEventsAndHandles) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.schedule(SimTime(5), [&] { fired = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pending(h));
  EXPECT_FALSE(q.cancel(h));
  EXPECT_FALSE(fired);
}

// --- indexed-heap edge cases ---------------------------------------------
// Every pending event owns exactly one heap entry: cancel() removes it,
// reschedule() re-keys it in place, and the firing event's entry stays in
// the heap until its callback returns. These tests pin those paths.

TEST(EventQueueHeap, RescheduleMovesEventsBothWays) {
  EventQueue q;
  std::vector<int> order;
  EventHandle a = q.schedule(SimTime(1'000), [&] { order.push_back(1); });
  EventHandle b = q.schedule(SimTime(50'000'000), [&] { order.push_back(2); });
  // Swap them: a moves far out (sift down), b moves to the front (sift up).
  EXPECT_TRUE(q.reschedule(a, SimTime(60'000'000)));
  EXPECT_TRUE(q.reschedule(b, SimTime(2'000)));
  EXPECT_EQ(q.next_time(), SimTime(2'000));
  EXPECT_EQ(q.check_invariants(), "");
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueHeap, CancelOfPendingEventNeverFires) {
  EventQueue q;
  std::vector<int> order;
  EventHandle a = q.schedule(SimTime(500), [&] { order.push_back(1); });
  q.schedule(SimTime(600), [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.check_invariants(), "");
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueHeap, SeqWrapPreservesFifo) {
  // 64 simultaneous events whose insertion sequences wrap through
  // UINT32_MAX mid-batch: the wrap-aware tiebreak must keep them FIFO.
  EventQueue q;
  q.set_next_seq_for_test(0xFFFFFFE0u);
  std::vector<int> order;
  const SimTime when(0x300000);
  for (int i = 0; i < 64; ++i) {
    q.schedule(when, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueHeap, ClearDropsNearAndFarEvents) {
  EventQueue q;
  bool fired = false;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.schedule(SimTime(100 + i), [&] { fired = true; }));
    handles.push_back(q.schedule(SimTime(50'000'000 + i), [&] { fired = true; }));
  }
  EXPECT_EQ(q.size(), 20u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  for (const EventHandle& h : handles) EXPECT_FALSE(q.pending(h));
  // The cleared queue behaves like a fresh one.
  std::vector<int> order;
  q.schedule(SimTime(20), [&order] { order.push_back(2); });
  q.schedule(SimTime(10), [&order] { order.push_back(1); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueHeap, InCallbackSameInstantReArmFiresAfterQueuedPeers) {
  // Re-arming the firing event to its own timestamp must dispatch it again
  // within the same instant, after the events already queued there (its new
  // insertion sequence is larger).
  EventQueue q;
  std::vector<int> order;
  int rearms = 0;
  EventHandle a;
  a = q.schedule(SimTime(100), [&] {
    order.push_back(1);
    if (rearms++ == 0) {
      ASSERT_TRUE(q.reschedule(a, SimTime(100)));
    }
  });
  q.schedule(SimTime(100), [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
}

TEST(EventQueueHeap, SizeAndEmptyExcludeTheFiringEvent) {
  EventQueue q;
  EventHandle a;
  std::size_t size_inside = 99;
  bool empty_inside = false;
  bool self_pending = true;
  a = q.schedule(SimTime(10), [&] {
    size_inside = q.size();
    empty_inside = q.empty();
    self_pending = q.pending(a);
  });
  q.pop_and_run();
  EXPECT_EQ(size_inside, 0u);
  EXPECT_TRUE(empty_inside);
  EXPECT_FALSE(self_pending);

  // With a second event pending, only that one counts.
  EventHandle b = q.schedule(SimTime(20), [&] {
    size_inside = q.size();
    empty_inside = q.empty();
  });
  q.schedule(SimTime(30), [] {});
  q.pop_and_run();
  EXPECT_EQ(size_inside, 1u);
  EXPECT_FALSE(empty_inside);
  EXPECT_FALSE(q.pending(b));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueHeap, RearmThenCancelInsideOwnCallbackNeverFiresAgain) {
  EventQueue q;
  EventHandle a;
  int fired = 0;
  std::string inside;
  a = q.schedule(SimTime(10), [&] {
    ++fired;
    EXPECT_FALSE(q.cancel(a));  // not pending while it fires
    ASSERT_TRUE(q.reschedule(a, SimTime(20)));
    EXPECT_TRUE(q.pending(a));
    EXPECT_EQ(q.size(), 2u);  // itself, re-armed, and the event at 30
    EXPECT_TRUE(q.cancel(a));
    EXPECT_FALSE(q.pending(a));
    EXPECT_EQ(q.size(), 1u);
    inside = q.check_invariants();
  });
  bool other = false;
  q.schedule(SimTime(30), [&] { other = true; });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(other);
  EXPECT_EQ(inside, "");
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.reschedule(a, SimTime(40)));
  EXPECT_EQ(q.check_invariants(), "");
}

TEST(EventQueueHeap, CancelAndRekeyOthersFromCallbackKeepOrder) {
  EventQueue q;
  std::vector<int> order;
  EventHandle b, c, d;
  std::string inside;
  q.schedule(SimTime(10), [&] {
    order.push_back(0);
    EXPECT_TRUE(q.cancel(c));                     // 30: never fires
    EXPECT_TRUE(q.reschedule(d, SimTime(15)));    // 40 -> 15: sifts up
    EXPECT_TRUE(q.reschedule(b, SimTime(25)));    // 20 -> 25: sifts down
    q.schedule(SimTime(10), [&] { order.push_back(5); });  // zero-delay follow-up
    EXPECT_EQ(q.size(), 4u);
    inside = q.check_invariants();
  });
  b = q.schedule(SimTime(20), [&] { order.push_back(1); });
  c = q.schedule(SimTime(30), [&] { order.push_back(2); });
  d = q.schedule(SimTime(40), [&] { order.push_back(3); });
  q.schedule(SimTime(20), [&] { order.push_back(4); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(inside, "");
  EXPECT_EQ(order, (std::vector<int>{0, 5, 3, 4, 1}));
}

// Determinism: two identical runs produce the identical firing order.
TEST(EventQueueProperty, DeterministicReplay) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      s.schedule_at(SimTime(rng.uniform_int(0, 1000)), [&order, i] { order.push_back(i); });
    }
    s.run();
    return order;
  };
  EXPECT_EQ(run_once(42), run_once(42));
  EXPECT_NE(run_once(42), run_once(43));
}

}  // namespace
}  // namespace hpcs::sim
