// Kernel edge cases: affinity of running/sleeping tasks, policy changes in
// every state, spurious wakeups, zero-length sleeps, yield semantics, sysfs
// knob effects, tick accounting at boundaries, and the Hybrid heuristic's
// future-work promise (good on both constant and dynamic workloads).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/paper_experiments.h"
#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

TEST(KernelEdge, AffinityOfSleepingTaskMovesImmediately) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  // Still sleeping (never started): affinity moves it directly.
  EXPECT_TRUE(f.k().sched_setaffinity(t, 3));
  EXPECT_EQ(t.cpu, 3);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(50));
  EXPECT_EQ(t.cpu, 3);
}

TEST(KernelEdge, AffinityOfRunningTaskAppliesAtNextWakeup) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<PeriodicBody>(
                                        2.0e6, Duration::milliseconds(5)),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(2));  // mid-compute
  EXPECT_TRUE(f.k().sched_setaffinity(t, 2));
  f.run_until(Duration::milliseconds(50));
  EXPECT_EQ(t.cpu, 2);
  EXPECT_EQ(t.pinned_cpu, 2);
}

TEST(KernelEdge, InvalidAffinityRejected) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  EXPECT_FALSE(f.k().sched_setaffinity(t, 99));
  EXPECT_FALSE(f.k().sched_setaffinity(t, -7));
  EXPECT_TRUE(f.k().sched_setaffinity(t, kInvalidCpu));  // clears the pin
}

TEST(KernelEdge, WakeOfRunnableTaskIsNoop) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(5));
  const auto wakeups_before = t.nr_wakeups;
  f.k().wake(t);  // already runnable
  f.k().wake(t);
  f.run_until(Duration::milliseconds(10));
  EXPECT_EQ(t.nr_wakeups, wakeups_before);
}

TEST(KernelEdge, ZeroSleepIsAnImmediateYieldToWakeup) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task(
      "t",
      std::make_unique<ScriptBody>(std::vector<Act>{
          Act::compute(1.0e6), Act::sleep(Duration::zero()), Act::compute(1.0e6)}),
      Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(50));
  EXPECT_TRUE(t.exited());
  EXPECT_LT(t.t_sleep, Duration::milliseconds(1));
}

TEST(KernelEdge, YieldRotatesHpcRoundRobin) {
  sim::Simulator s;
  kern::Kernel k(s, {});
  hpc::install_hpcsched(k, {});
  k.start();
  // A yielding HPC task shares with its peer even without slice expiry.
  auto& yielder = k.create_task(
      "yielder",
      std::make_unique<ScriptBody>(std::vector<Act>{
          Act::compute(5.0e6), Act::yield(), Act::compute(5.0e6), Act::yield(),
          Act::compute(5.0e6)}),
      Policy::kHpcRr, 0);
  auto& peer = k.create_task("peer", std::make_unique<HogBody>(), Policy::kHpcRr, 0);
  k.sched_setaffinity(yielder, 0);
  k.sched_setaffinity(peer, 0);
  k.start_task(yielder);
  k.start_task(peer);
  s.run(SimTime(2000000000));
  EXPECT_TRUE(yielder.exited());
  k.flush_account(peer);
  EXPECT_GT(peer.t_run, Duration::milliseconds(10));
}

TEST(KernelEdge, CfsLatencyKnobChangesSliceBehaviour) {
  KernelFixture f;
  f.k().start();
  ASSERT_TRUE(f.k().sysfs().write("kernel/sched_latency_ns", 4000000));  // 4 ms
  auto& a = f.k().create_task("a", std::make_unique<HogBody>(), Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().sched_setaffinity(a, 0);
  f.k().sched_setaffinity(b, 0);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::seconds(1.0));
  // 4 ms latency with min_granularity floor 4 ms -> ~2 ms slices floor to
  // min_granularity; many more switches than the default 10 ms slices.
  EXPECT_GT(a.nr_switches, 100);
}

TEST(KernelEdge, PolicyChangeWhileSleepingTakesEffectOnWake) {
  sim::Simulator s;
  kern::Kernel k(s, {});
  hpc::install_hpcsched(k, {});
  k.start();
  auto& t = k.create_task("t", std::make_unique<PeriodicBody>(
                                    1.0e6, Duration::milliseconds(10)),
                          Policy::kNormal, 0);
  k.start_task(t);
  s.run(SimTime(3000000));  // let it block
  EXPECT_TRUE(k.sched_setscheduler(t, Policy::kHpcRr));
  s.run(SimTime(100000000));
  EXPECT_EQ(t.policy(), Policy::kHpcRr);
  EXPECT_FALSE(t.exited());
  // It kept running fine across the class change.
  k.flush_account(t);
  EXPECT_GT(t.t_run, Duration::milliseconds(5));
}

TEST(KernelEdge, RequestSamePriorityIsFreeNoop) {
  KernelFixture f;
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<HogBody>(), Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(5));
  const auto writes = f.k().isa().writes();
  f.k().request_hw_prio(t, t.hw_prio);  // same value
  EXPECT_EQ(f.k().isa().writes(), writes);
}

// Future-work goal (paper §VI): one heuristic good on constant AND dynamic
// applications. Hybrid must be within striking distance of the specialist
// on each side.
// A woken task resumes at its interaction point, so its body steps when it
// is dispatched. A long run of such tasks on one CPU must go through the
// dispatch loop without one zero-delay exec event per task and without
// recursing once per task.
TEST(KernelEdge, ManyWokenTasksThatBlockAtOnceStepWithoutEvents) {
  kern::KernelConfig cfg;
  cfg.cfs.wakeup_cost = Duration::zero();  // wake all of them at instant 0
  KernelFixture f(cfg);
  f.k().start();
  constexpr int kTasks = 50000;
  // Stack depth at each step: a loop steps every body from the same frame.
  std::uintptr_t lowest = UINTPTR_MAX;
  std::uintptr_t highest = 0;
  Act block = Act::block();
  block.on_issue = [&] {
    volatile int marker = 0;
    const auto at = reinterpret_cast<std::uintptr_t>(&marker);
    lowest = std::min(lowest, at);
    highest = std::max(highest, at);
  };
  std::vector<kern::Task*> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    auto& t = f.k().create_task("b" + std::to_string(i),
                                std::make_unique<ScriptBody>(std::vector<Act>{block}),
                                Policy::kNormal, 0);
    f.k().sched_setaffinity(t, 0);
    tasks.push_back(&t);
  }
  const std::int64_t scheduled_before = f.sim.queue_stats().scheduled;
  for (kern::Task* t : tasks) f.k().start_task(*t);
  f.run_until(Duration::microseconds(1));
  // One resched event ran every body; no exec event was ever armed.
  EXPECT_EQ(f.sim.queue_stats().scheduled - scheduled_before, 1);
  EXPECT_EQ(f.sim.queue_stats().dispatched, 1);
  for (const kern::Task* t : tasks) {
    ASSERT_EQ(t->state(), kern::TaskState::kSleeping);
    EXPECT_EQ(t->nr_switches, 1);
  }
  EXPECT_EQ(f.k().context_switches(), kTasks + 1);  // every task, then idle
  EXPECT_EQ(f.k().rq(0).curr, f.k().rq(0).idle);
  EXPECT_EQ(f.k().check_rq_invariants(), "");
  EXPECT_LT(highest - lowest, 4096u) << "the stack grew from one body step to the next";
}

TEST(HybridHeuristic, HandlesBothRegimes) {
  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 12;
  for (auto& l : mb.workload.loads) l /= 4.0;
  const auto mb_base = analysis::run_metbench(mb, analysis::SchedMode::kBaselineCfs);
  const auto mb_uni = analysis::run_metbench(mb, analysis::SchedMode::kUniform);
  const auto mb_hyb = analysis::run_metbench(mb, analysis::SchedMode::kHybrid);
  EXPECT_GT(analysis::improvement_pct(mb_base, mb_hyb),
            analysis::improvement_pct(mb_base, mb_uni) - 4.0)
      << "hybrid must stay close to Uniform on a constant app";

  auto var = analysis::MetBenchVarExperiment::paper();
  var.workload.iterations = 24;
  var.workload.k = 8;
  for (auto& l : var.workload.loads_a) l /= 8.0;
  for (auto& l : var.workload.loads_b) l /= 8.0;
  const auto v_base = analysis::run_metbenchvar(var, analysis::SchedMode::kBaselineCfs);
  const auto v_ada = analysis::run_metbenchvar(var, analysis::SchedMode::kAdaptive);
  const auto v_hyb = analysis::run_metbenchvar(var, analysis::SchedMode::kHybrid);
  EXPECT_GT(analysis::improvement_pct(v_base, v_hyb),
            analysis::improvement_pct(v_base, v_ada) - 4.0)
      << "hybrid must stay close to Adaptive on a dynamic app";
}

}  // namespace
}  // namespace hpcs::test
