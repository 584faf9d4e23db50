// Stress/property tests of the whole kernel under randomized mixed
// workloads: RT + HPC + CFS tasks with random bodies, random policy flips
// and affinity changes mid-run. Invariants: nothing crashes, accounting is
// conserved, RT never starves behind lower classes, HPC priorities stay in
// range, all finite tasks finish. A second suite checks the run-queue
// counters the scheduling fast paths trust after every simulation step.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hpcsched/hpcsched.h"
#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;

class MixedStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedStress, RandomizedMixRunsClean) {
  Rng rng(GetParam());
  sim::Simulator s;
  kern::KernelConfig kc;
  kc.fair_scheduler =
      rng.uniform() < 0.5 ? kern::FairScheduler::kCfs : kern::FairScheduler::kO1;
  if (rng.uniform() < 0.3) kc.smt_snooze_delay = Duration::microseconds(100);
  kern::Kernel k(s, kc);
  auto& hpc_cls = hpc::install_hpcsched(k, {});
  k.start();

  std::vector<kern::Task*> finite;
  std::vector<kern::Task*> all;
  const int n = static_cast<int>(rng.uniform_int(6, 14));
  for (int i = 0; i < n; ++i) {
    const double dice = rng.uniform();
    Policy policy = Policy::kNormal;
    if (dice < 0.2) {
      policy = Policy::kRr;
    } else if (dice < 0.5) {
      policy = rng.uniform() < 0.5 ? Policy::kHpcRr : Policy::kHpcFifo;
    } else if (dice < 0.6) {
      policy = Policy::kBatch;
    }
    const auto cpu = static_cast<CpuId>(rng.uniform_int(0, 3));
    std::unique_ptr<kern::TaskBody> body;
    const bool is_finite = rng.uniform() < 0.5;
    if (is_finite) {
      std::vector<Act> acts;
      const int segs = static_cast<int>(rng.uniform_int(1, 6));
      for (int g = 0; g < segs; ++g) {
        acts.push_back(Act::compute(rng.uniform(0.1e6, 20.0e6)));
        if (rng.uniform() < 0.5) {
          acts.push_back(Act::sleep(Duration(static_cast<std::int64_t>(
              rng.uniform(0.1e6, 20.0e6)))));
        }
      }
      body = std::make_unique<ScriptBody>(std::move(acts));
    } else {
      body = std::make_unique<PeriodicBody>(
          rng.uniform(0.1e6, 5.0e6),
          Duration(static_cast<std::int64_t>(rng.uniform(1.0e6, 20.0e6))));
    }
    auto& t = k.create_task("t" + std::to_string(i), std::move(body), policy, cpu);
    if (policy == Policy::kRr) k.sched_setscheduler(t, Policy::kRr, 50);
    k.start_task(t);
    all.push_back(&t);
    if (is_finite) finite.push_back(&t);
  }

  // Random perturbations while the mix runs.
  for (int j = 0; j < 10; ++j) {
    const auto when = Duration(static_cast<std::int64_t>(rng.uniform(1e6, 400e6)));
    auto* victim = all[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(all.size()) - 1))];
    const double what = rng.uniform();
    s.schedule_at(SimTime::zero() + when, [&k, victim, what, &rng] {
      if (victim->exited()) return;
      if (what < 0.4) {
        k.sched_setaffinity(*victim, static_cast<CpuId>(rng.uniform_int(0, 3)));
      } else if (what < 0.7 && !kern::is_hpc_policy(victim->policy())) {
        k.sched_setscheduler(*victim, Policy::kHpcRr);
      } else {
        k.set_nice(*victim, static_cast<int>(rng.uniform_int(-10, 10)));
      }
    });
  }

  s.run(SimTime::zero() + Duration::seconds(1.0));

  for (auto* t : finite) {
    EXPECT_TRUE(t->exited()) << t->name() << " did not finish";
  }
  for (auto* t : all) {
    k.flush_account(*t);
    const Duration lifetime = (t->exited() ? t->exit_time : k.now()) - t->created;
    const Duration accounted = t->t_run + t->t_ready + t->t_sleep;
    EXPECT_NEAR(static_cast<double>(accounted.ns()), static_cast<double>(lifetime.ns()), 2e4)
        << t->name() << " accounting leak";
    const int hw = p5::to_int(t->hw_prio);
    EXPECT_GE(hw, 1) << t->name();
    EXPECT_LE(hw, 6) << t->name();
  }
  (void)hpc_cls;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedStress,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909, 1010));

/// Computes in chunks; once asked to, blocks at its next interaction point
/// and stays asleep until woken.
class BlockOnDemandBody final : public kern::TaskBody {
 public:
  explicit BlockOnDemandBody(Work chunk) : chunk_(chunk) {}
  void step(kern::Kernel& k, kern::Task& t) override {
    if (block_next) {
      block_next = false;
      k.body_block(t);
    } else {
      k.body_compute(t, chunk_);
    }
  }
  bool block_next = false;

 private:
  Work chunk_;
};

class RqInvariants : public ::testing::TestWithParam<std::uint64_t> {};

// A seeded random sequence of wake / sleep / sched_setscheduler (RT, HPC
// and fair policies in every direction) / sched_setaffinity, with a few
// simulation events between operations. The class-skip in pick_next, the
// RT bitmap and the balancer's early exit all read these counters.
TEST_P(RqInvariants, CountersHoldAfterEveryStep) {
  Rng rng(GetParam());
  sim::Simulator s;
  kern::KernelConfig kc;
  kc.fair_scheduler =
      rng.uniform() < 0.5 ? kern::FairScheduler::kCfs : kern::FairScheduler::kO1;
  kc.balance_interval_ticks = 4;  // balance often, so pulls interleave with the ops
  kern::Kernel k(s, kc);
  hpc::install_hpcsched(k, {});
  k.start();
  ASSERT_EQ(k.check_rq_invariants(), "");

  constexpr Policy kPolicies[] = {Policy::kFifo,    Policy::kRr,     Policy::kHpcFifo,
                                  Policy::kHpcRr,   Policy::kNormal, Policy::kBatch};
  auto any_policy = [&] { return kPolicies[rng.uniform_int(0, 5)]; };
  std::vector<kern::Task*> tasks;
  std::vector<BlockOnDemandBody*> bodies;
  for (int i = 0; i < 12; ++i) {
    auto body = std::make_unique<BlockOnDemandBody>(rng.uniform(0.05e6, 0.5e6));
    bodies.push_back(body.get());
    auto& t = k.create_task("t" + std::to_string(i), std::move(body), any_policy(),
                            static_cast<CpuId>(rng.uniform_int(0, k.num_cpus() - 1)));
    k.start_task(t);
    tasks.push_back(&t);
  }

  for (int op = 0; op < 3000; ++op) {
    const auto victim = static_cast<std::size_t>(rng.uniform_int(0, 11));
    kern::Task& t = *tasks[victim];
    switch (rng.uniform_int(0, 3)) {
      case 0: k.wake(t); break;
      case 1: bodies[victim]->block_next = true; break;
      case 2:
        k.sched_setscheduler(t, any_policy(), static_cast<int>(rng.uniform_int(0, 99)));
        break;
      default:
        k.sched_setaffinity(t, rng.uniform() < 0.3 ? kInvalidCpu
                                                   : static_cast<CpuId>(rng.uniform_int(
                                                         0, k.num_cpus() - 1)));
        break;
    }
    ASSERT_EQ(k.check_rq_invariants(), "") << "after operation " << op;
    for (auto n = rng.uniform_int(1, 20); n > 0; --n) {
      ASSERT_TRUE(s.step());
      ASSERT_EQ(k.check_rq_invariants(), "") << "after an event following operation " << op;
    }
  }
  EXPECT_GT(k.context_switches(), 0);
  EXPECT_GT(k.migrations(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RqInvariants, ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace hpcs::test
