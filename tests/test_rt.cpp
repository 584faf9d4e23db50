// Real-time class semantics: strict class ordering over CFS, FIFO
// run-to-block, RR rotation on slice expiry, priority ordering within the
// class, wakeup preemption rules; and the run queue's priority bitmap.

#include <gtest/gtest.h>

#include "kernel/rt_class.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

TEST(RtClass, RtStarvesCfsWhileRunnable) {
  KernelFixture f;
  f.k().start();
  auto& rt = f.k().create_task("rt", std::make_unique<HogBody>(), Policy::kFifo, 0);
  auto& cfs = f.k().create_task("cfs", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(rt, 0);
  f.k().sched_setaffinity(cfs, 0);
  f.k().start_task(cfs);
  f.k().start_task(rt);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(rt);
  f.k().flush_account(cfs);
  EXPECT_GT(rt.t_run, Duration::milliseconds(950));
  EXPECT_LT(cfs.t_run, Duration::milliseconds(10));
}

TEST(RtClass, HigherRtPriorityWins) {
  KernelFixture f;
  f.k().start();
  auto& hi = f.k().create_task("hi", std::make_unique<HogBody>(), Policy::kFifo, 0);
  auto& lo = f.k().create_task("lo", std::make_unique<HogBody>(), Policy::kFifo, 0);
  f.k().sched_setaffinity(hi, 0);
  f.k().sched_setaffinity(lo, 0);
  f.k().sched_setscheduler(hi, Policy::kFifo, 10);
  f.k().sched_setscheduler(lo, Policy::kFifo, 20);  // numerically larger = lower prio
  f.k().start_task(lo);
  f.k().start_task(hi);
  f.run_until(Duration::milliseconds(500));
  f.k().flush_account(hi);
  f.k().flush_account(lo);
  EXPECT_GT(hi.t_run, Duration::milliseconds(490));
  EXPECT_LT(lo.t_run, Duration::milliseconds(5));
}

TEST(RtClass, FifoRunsToBlockNoRotation) {
  KernelFixture f;
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kFifo, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kFifo, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  // SCHED_FIFO: first task keeps the CPU; the peer never runs.
  EXPECT_GT(a.t_run, Duration::milliseconds(990));
  EXPECT_EQ(b.nr_switches, 0);
}

TEST(RtClass, RrRotatesOnSliceExpiry) {
  kern::KernelConfig cfg;
  cfg.rt_rr_slice = Duration::milliseconds(20);
  KernelFixture f(cfg);
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kRr, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kRr, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  f.k().flush_account(a);
  f.k().flush_account(b);
  const double share = a.t_run / (a.t_run + b.t_run);
  EXPECT_NEAR(share, 0.5, 0.05);
  EXPECT_GT(a.nr_switches, 15);  // ~25 rotations/second each
}

TEST(RtClass, RtWakeupPreemptsCfsImmediately) {
  KernelFixture f;
  f.k().start();
  auto& cfs = f.k().create_task("cfs", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& rt = f.k().create_task("rt", std::make_unique<PeriodicBody>(
                                          0.1e6, Duration::milliseconds(10)),
                               Policy::kFifo, 0);
  f.k().sched_setaffinity(cfs, 0);
  f.k().sched_setaffinity(rt, 0);
  f.k().start_task(cfs);
  f.k().start_task(rt);
  f.run_until(Duration::seconds(1.0));
  EXPECT_GT(rt.nr_wakeups, 50);
  // RT wakeup cost is 2 us; preemption of CFS is immediate.
  EXPECT_LT(rt.wakeup_latency_us.mean(), 10.0);
}

TEST(RtClass, EqualRtPriorityDoesNotWakeupPreempt) {
  KernelFixture f;
  f.k().start();
  auto& runner = f.k().create_task("runner", std::make_unique<HogBody>(), Policy::kFifo, 0);
  auto& waker = f.k().create_task("waker", std::make_unique<PeriodicBody>(
                                               0.1e6, Duration::milliseconds(10)),
                                  Policy::kFifo, 0);
  f.k().sched_setaffinity(runner, 0);
  f.k().sched_setaffinity(waker, 0);
  f.k().start_task(runner);
  f.k().start_task(waker);
  f.run_until(Duration::seconds(1.0));
  // Same priority FIFO: the waker never gets the CPU back from the hog.
  f.k().flush_account(waker);
  EXPECT_LT(waker.t_run, Duration::milliseconds(5));
}

TEST(RtClass, SetschedulerSwitchesClassAtRuntime) {
  KernelFixture f;
  f.k().start();
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::milliseconds(200));
  // Promote b to RT: it must take over the CPU entirely.
  EXPECT_TRUE(f.k().sched_setscheduler(b, Policy::kFifo, 10));
  f.k().flush_account(a);
  const Duration a_before = a.t_run;
  f.run_until(Duration::milliseconds(700));
  f.k().flush_account(a);
  f.k().flush_account(b);
  EXPECT_LT((a.t_run - a_before).ms(), 5.0);
  EXPECT_GT(b.t_run, Duration::milliseconds(300));
}

TEST(RtClass, InvalidPriorityRejected) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  EXPECT_FALSE(f.k().sched_setscheduler(t, Policy::kFifo, -1));
  EXPECT_FALSE(f.k().sched_setscheduler(t, Policy::kFifo, 100));
  EXPECT_TRUE(f.k().sched_setscheduler(t, Policy::kFifo, 99));
}

// ---- the RT run queue's priority bitmap, driven through the class hooks ----

/// One RT run queue outside any kernel run loop; the kernel only supplies
/// the `Kernel&` the hooks take.
struct RtRqFixture {
  KernelFixture f;
  kern::RtClass cls;
  kern::Rq rq;
  std::vector<std::unique_ptr<kern::Task>> tasks;

  RtRqFixture() {
    cls.set_index(0);
    rq.class_rqs.push_back(cls.make_rq());
    rq.class_count.push_back(0);
  }
  kern::RtRq& rrq() { return static_cast<kern::RtRq&>(*rq.class_rqs[0]); }
  kern::Task& add(int prio, Policy policy = Policy::kFifo) {
    auto& t = *tasks.emplace_back(std::make_unique<kern::Task>(
        static_cast<Pid>(tasks.size() + 1), "rt" + std::to_string(tasks.size()), policy));
    t.rt_prio = prio;
    cls.enqueue(f.k(), rq, t, /*wakeup=*/true);
    return t;
  }
  kern::Task* pick() { return cls.pick_next(f.k(), rq); }
  const std::deque<kern::Task*>& level(int prio) {
    return rrq().queues[static_cast<std::size_t>(prio)];
  }
};

TEST(RtBitmap, PicksInPriorityOrderAcrossTheWordBoundary) {
  RtRqFixture q;
  auto& p99 = q.add(99);
  auto& p64 = q.add(64);
  auto& p0 = q.add(0);
  auto& p63 = q.add(63);
  for (int p = 0; p < kern::kRtPrioLevels; ++p) {
    EXPECT_EQ(q.rrq().has(p), p == 0 || p == 63 || p == 64 || p == 99) << "prio " << p;
  }
  EXPECT_EQ(q.pick(), &p0);
  EXPECT_FALSE(q.rrq().has(0));
  EXPECT_EQ(q.pick(), &p63);
  EXPECT_EQ(q.pick(), &p64);
  EXPECT_EQ(q.rrq().first(), 99);
  EXPECT_EQ(q.pick(), &p99);
  EXPECT_EQ(q.pick(), nullptr);
  EXPECT_EQ(q.rrq().first(), kern::kRtPrioLevels);
  EXPECT_EQ(q.rrq().bitmap[0], 0u);
  EXPECT_EQ(q.rrq().bitmap[1], 0u);
}

TEST(RtBitmap, FifoPutPrevKeepsTheHead) {
  RtRqFixture q;
  auto& a = q.add(70);
  auto& b = q.add(70);
  ASSERT_EQ(q.pick(), &a);
  EXPECT_TRUE(q.rrq().has(70));  // b still queued
  q.cls.put_prev(q.f.k(), q.rq, a);
  EXPECT_TRUE(q.rrq().has(70));
  EXPECT_EQ(q.level(70), (std::deque<kern::Task*>{&a, &b}));
  // The only task of a level: the pick clears the bit, put_prev sets it.
  RtRqFixture solo;
  auto& s = solo.add(64);
  ASSERT_EQ(solo.pick(), &s);
  EXPECT_FALSE(solo.rrq().has(64));
  solo.cls.put_prev(solo.f.k(), solo.rq, s);
  EXPECT_TRUE(solo.rrq().has(64));
  EXPECT_EQ(solo.pick(), &s);
}

TEST(RtBitmap, ExpiredRrTaskRotatesToTheTail) {
  RtRqFixture q;
  auto& a = q.add(5, Policy::kRr);
  auto& b = q.add(5, Policy::kRr);
  EXPECT_GT(a.slice_left, Duration::zero());  // enqueue grants a fresh slice
  ASSERT_EQ(q.pick(), &a);
  a.slice_left = Duration::zero();
  q.cls.put_prev(q.f.k(), q.rq, a);
  EXPECT_TRUE(q.rrq().has(5));
  EXPECT_EQ(q.level(5), (std::deque<kern::Task*>{&b, &a}));
  EXPECT_EQ(a.slice_left, q.cls.rr_slice());
  // An RR task with slice left resumes at the head, like FIFO.
  ASSERT_EQ(q.pick(), &b);
  q.cls.put_prev(q.f.k(), q.rq, b);
  EXPECT_EQ(q.level(5), (std::deque<kern::Task*>{&b, &a}));
}

TEST(RtBitmap, DequeueClearsOnlyAnEmptiedLevel) {
  RtRqFixture q;
  auto& a = q.add(40);
  auto& b = q.add(40);
  auto& c = q.add(41);
  q.cls.dequeue(q.f.k(), q.rq, a, /*sleep=*/true);
  EXPECT_TRUE(q.rrq().has(40));  // b is still there
  EXPECT_EQ(q.rrq().first(), 40);
  q.cls.dequeue(q.f.k(), q.rq, b, /*sleep=*/true);
  EXPECT_FALSE(q.rrq().has(40));
  EXPECT_TRUE(q.rrq().has(41));
  EXPECT_EQ(q.pick(), &c);
  EXPECT_FALSE(q.rrq().has(41));
}

TEST(RtBitmap, StealCandidateIsLowestPriorityUnpinnedHeadFirst) {
  RtRqFixture q;
  q.add(10);
  auto& pinned = q.add(90);
  pinned.pinned_cpu = 0;
  auto& low_a = q.add(90);
  auto& low_b = q.add(90);
  auto& mid = q.add(50);
  EXPECT_EQ(q.cls.steal_candidate(q.f.k(), q.rq), &low_a);
  low_a.pinned_cpu = 0;
  EXPECT_EQ(q.cls.steal_candidate(q.f.k(), q.rq), &low_b);
  low_b.pinned_cpu = 0;
  EXPECT_EQ(q.cls.steal_candidate(q.f.k(), q.rq), &mid);
  // Stealing looks only; the bitmap is untouched.
  EXPECT_TRUE(q.rrq().has(90));
}

}  // namespace
}  // namespace hpcs::test
