// The machine tick's ordering contract: one tick per simulated millisecond
// ticks every CPU in index order; a resched a tick raises runs after every
// CPU's tick work; balance passes keep their per-CPU phase; an event armed
// for a tick instant sorts before or after that tick by when it was armed;
// an idle kernel dispatches one event per tick; a woken task's body steps at
// its dispatch instant, ahead of events armed after its wakeup.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

/// One observation, in the order the simulation made it.
struct Entry {
  SimTime t;
  std::string what;  ///< "tick", "balance", "put_prev" or an event's name
  CpuId cpu = kInvalidCpu;

  bool operator==(const Entry&) const = default;
};

struct ProbeRq final : kern::ClassRq {
  std::deque<kern::Task*> queue;
};

/// A FIFO class for the HPC policies that logs its tick, balance and
/// put_prev hooks. Its balancer never finds a task to steal.
class ProbeClass final : public kern::SchedClass {
 public:
  explicit ProbeClass(std::vector<Entry>& log) : log_(&log) {}

  /// Raise need_resched from CPU `cpu`'s tick at instant `at`.
  void resched_from_tick(CpuId cpu, SimTime at) {
    resched_cpu_ = cpu;
    resched_at_ = at;
  }

  [[nodiscard]] const char* name() const override { return "probe"; }
  [[nodiscard]] bool owns(Policy p) const override { return kern::is_hpc_policy(p); }
  [[nodiscard]] std::unique_ptr<kern::ClassRq> make_rq() const override {
    return std::make_unique<ProbeRq>();
  }
  void enqueue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool wakeup) override {
    (void)k;
    (void)wakeup;
    q(rq).push_back(&t);
  }
  void dequeue(kern::Kernel& k, kern::Rq& rq, kern::Task& t, bool sleep) override {
    (void)k;
    (void)sleep;
    std::erase(q(rq), &t);
  }
  kern::Task* pick_next(kern::Kernel& k, kern::Rq& rq) override {
    (void)k;
    if (q(rq).empty()) return nullptr;
    kern::Task* t = q(rq).front();
    q(rq).pop_front();
    return t;
  }
  void put_prev(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override {
    log_->push_back({k.now(), "put_prev", rq.cpu});
    q(rq).push_front(&t);
  }
  void task_tick(kern::Kernel& k, kern::Rq& rq, kern::Task& t) override {
    (void)t;
    log_->push_back({k.now(), "tick", rq.cpu});
    if (rq.cpu == resched_cpu_ && k.now() == resched_at_) rq.need_resched = true;
  }
  [[nodiscard]] bool wakeup_preempt(kern::Kernel& k, kern::Rq& rq, kern::Task& curr,
                                    kern::Task& woken) override {
    (void)k;
    (void)rq;
    (void)curr;
    (void)woken;
    return false;
  }
  [[nodiscard]] bool wants_balance() const override {
    // The kernel asks right after the tick of the CPU that balances.
    log_->push_back({SimTime::zero(), "balance", kInvalidCpu});
    return true;
  }

 private:
  std::deque<kern::Task*>& q(kern::Rq& rq) const {
    return static_cast<ProbeRq&>(*rq.class_rqs[static_cast<std::size_t>(index())]).queue;
  }

  std::vector<Entry>* log_;
  CpuId resched_cpu_ = kInvalidCpu;
  SimTime resched_at_ = SimTime::zero();
};
HPCS_ASSERT_SCHED_CLASS(ProbeClass);

/// A started kernel with one never-ending probe task per CPU, all running
/// from the first microseconds on.
struct TickRig {
  std::vector<Entry> log;
  KernelFixture f;
  ProbeClass* probe = nullptr;

  explicit TickRig(kern::KernelConfig cfg = {}) : f(cfg) {
    probe = &static_cast<ProbeClass&>(
        f.k().add_class_before_cfs(std::make_unique<ProbeClass>(log)));
    f.k().start();
    for (CpuId cpu = 0; cpu < f.k().num_cpus(); ++cpu) {
      auto& t = f.k().create_task("probe" + std::to_string(cpu), std::make_unique<HogBody>(),
                                  Policy::kHpcFifo, cpu);
      f.k().start_task(t);
    }
  }

  /// The log with balance entries stamped by the tick they follow (their
  /// CPU and instant), so each entry carries who and when.
  [[nodiscard]] std::vector<Entry> stamped() const {
    std::vector<Entry> out;
    for (const Entry& e : log) {
      if (e.what == "balance") {
        EXPECT_FALSE(out.empty() || out.back().what != "tick")
            << "a balance pass must follow its CPU's tick";
        if (!out.empty()) out.push_back({out.back().t, "balance", out.back().cpu});
      } else {
        out.push_back(e);
      }
    }
    return out;
  }
};

SimTime ms(std::int64_t n) { return SimTime::zero() + Duration::milliseconds(n); }

TEST(Tick, CpusTickInIndexOrderAtEachInstant) {
  TickRig rig;
  rig.f.run_until(Duration::milliseconds(5));
  std::vector<Entry> ticks;
  for (const Entry& e : rig.stamped()) {
    if (e.what == "tick") ticks.push_back(e);
  }
  const int n = rig.f.k().num_cpus();
  ASSERT_EQ(ticks.size(), static_cast<std::size_t>(5 * n));
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_EQ(ticks[i].t, ms(1 + static_cast<std::int64_t>(i) / n)) << i;
    EXPECT_EQ(ticks[i].cpu, static_cast<CpuId>(i) % n) << i;
  }
}

TEST(Tick, ReschedFromCpu0RunsAfterEveryCpusTick) {
  TickRig rig;
  rig.probe->resched_from_tick(0, ms(3));
  rig.f.run_until(Duration::milliseconds(4));
  std::vector<Entry> at3;
  for (const Entry& e : rig.stamped()) {
    if (e.t == ms(3) && e.what != "balance") at3.push_back(e);
  }
  const std::vector<Entry> want = {{ms(3), "tick", 0},
                                   {ms(3), "tick", 1},
                                   {ms(3), "tick", 2},
                                   {ms(3), "tick", 3},
                                   {ms(3), "put_prev", 0}};
  EXPECT_EQ(at3, want);
}

TEST(Tick, BalancePassesKeepTheirPerCpuPhase) {
  kern::KernelConfig cfg;
  cfg.balance_interval_ticks = 4;
  TickRig rig(cfg);
  rig.f.run_until(Duration::milliseconds(12));
  std::set<std::pair<std::int64_t, CpuId>> got;
  for (const Entry& e : rig.stamped()) {
    if (e.what == "balance") got.insert({e.t.ns() / Duration::milliseconds(1).ns(), e.cpu});
  }
  // Tick n (1-based) balances CPU c exactly when (n + c) % interval == 0.
  std::set<std::pair<std::int64_t, CpuId>> want;
  for (std::int64_t n = 1; n <= 12; ++n) {
    for (CpuId c = 0; c < rig.f.k().num_cpus(); ++c) {
      if ((n + c) % cfg.balance_interval_ticks == 0) want.insert({n, c});
    }
  }
  EXPECT_EQ(got, want);
}

TEST(Tick, EventAtATickInstantSortsByWhenItWasArmed) {
  TickRig rig;
  sim::Simulator& sim = rig.f.sim;
  auto mark = [&](const char* name) { rig.log.push_back({sim.now(), name, kInvalidCpu}); };
  rig.f.run_until(Duration::microseconds(500));
  // Armed at 0.5 ms: before the 1 ms tick fired and re-armed itself for 2 ms,
  // but after start() armed the 1 ms tick.
  sim.schedule_at(ms(2), [&] { mark("armed_before"); });
  sim.schedule_at(ms(1), [&] {
    mark("at_1ms");
    // Armed at 1 ms, after that instant's tick fired.
    sim.schedule_at(ms(2), [&] { mark("armed_at_1ms"); });
  });
  rig.f.run_until(Duration::microseconds(1500));
  sim.schedule_at(ms(2), [&] { mark("armed_after"); });
  rig.f.run_until(Duration::microseconds(2500));

  auto names_at = [&](SimTime at) {
    std::vector<std::string> out;
    for (const Entry& e : rig.stamped()) {
      if (e.t != at || e.what == "balance") continue;
      out.push_back(e.what == "tick" ? "tick" + std::to_string(e.cpu) : e.what);
    }
    return out;
  };
  const std::vector<std::string> want1 = {"tick0", "tick1", "tick2", "tick3", "at_1ms"};
  EXPECT_EQ(names_at(ms(1)), want1);
  const std::vector<std::string> want2 = {"armed_before", "tick0",        "tick1",      "tick2",
                                          "tick3",        "armed_at_1ms", "armed_after"};
  EXPECT_EQ(names_at(ms(2)), want2);
}

TEST(Tick, IdleKernelDispatchesOneEventPerMillisecond) {
  KernelFixture f;
  f.k().start();
  f.run_until(Duration::milliseconds(100));
  EXPECT_EQ(f.sim.queue_stats().dispatched, 100);
  EXPECT_EQ(f.sim.events_executed(), 100u);
  EXPECT_EQ(f.sim.pending_events(), 1u);
}

TEST(Tick, BodyStepsAtItsDispatchInstant) {
  kern::KernelConfig cfg;
  cfg.cfs.wakeup_cost = Duration::zero();  // the wakeup arms the resched itself
  KernelFixture f(cfg);
  f.k().start();
  std::vector<Entry> log;
  auto mark = [&](const char* name) { log.push_back({f.sim.now(), name, kInvalidCpu}); };
  std::vector<Act> acts = {Act::block(), Act::compute(1.0e9), Act::block()};
  for (Act& a : acts) a.on_issue = [&] { mark("step"); };
  auto& t = f.k().create_task("t", std::make_unique<ScriptBody>(std::move(acts)),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  const SimTime at = SimTime::zero() + Duration::microseconds(500);
  f.sim.schedule_at(at, [&] {
    f.k().wake(t);  // arms CPU 0's resched at this instant
    f.sim.schedule_in(Duration::zero(), [&] { mark("armed_after_wake"); });
  });
  f.run_until(Duration::microseconds(700));
  // The resched dispatches the task and runs its body in the same event, so
  // the step lands before the event armed after the wakeup.
  const std::vector<Entry> want = {{SimTime::zero(), "step", kInvalidCpu},
                                   {at, "step", kInvalidCpu},
                                   {at, "armed_after_wake", kInvalidCpu}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(t.last_dispatch, at);
}

}  // namespace
}  // namespace hpcs::test
