// Tests for the machine-level features beyond the basic model: the SMT
// snooze delay (idle spin -> cede), multi-chip topologies with the chip
// domain level, and chip-level workload balancing.

#include <gtest/gtest.h>

#include "test_util.h"

namespace hpcs::test {
namespace {

using kern::Policy;
using kern::Topology;

TEST(Snooze, DisabledIdleKeepsContending) {
  KernelFixture f;  // default: smt_snooze_delay = -1
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(10.0e6)}),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(100));
  ASSERT_TRUE(t.exited());
  EXPECT_NEAR(t.t_run.ms(), 10.0 / 0.65, 0.5);
}

TEST(Snooze, ExpiryGivesSiblingSingleThreadSpeed) {
  kern::KernelConfig cfg;
  cfg.smt_snooze_delay = Duration::microseconds(100);
  KernelFixture f(cfg);
  f.k().start();
  auto& t = f.k().create_task("t", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(10.0e6)}),
                              Policy::kNormal, 0);
  f.k().start_task(t);
  f.run_until(Duration::milliseconds(100));
  ASSERT_TRUE(t.exited());
  // ~100us at 0.65, then ST speed 1.0: close to the pure-ST 10 ms.
  EXPECT_LT(t.t_run.ms(), 10.3);
  EXPECT_GT(t.t_run.ms(), 9.9);
}

TEST(Snooze, WakeupCancelsSnooze) {
  kern::KernelConfig cfg;
  cfg.smt_snooze_delay = Duration::microseconds(50);
  KernelFixture f(cfg);
  f.k().start();
  // Sibling alternates burst/sleep; the main task's speed toggles between
  // SMT share (sibling active), brief spin idle, ST (snoozed).
  auto& main_task = f.k().create_task("main", std::make_unique<ScriptBody>(std::vector<Act>{
                                                   Act::compute(50.0e6)}),
                                      Policy::kNormal, 0);
  auto& burster = f.k().create_task(
      "burster", std::make_unique<PeriodicBody>(2.0e6, Duration::milliseconds(5)),
      Policy::kNormal, 1);
  f.k().sched_setaffinity(burster, 1);
  f.k().start_task(main_task);
  f.k().start_task(burster);
  f.run_until(Duration::milliseconds(400));
  ASSERT_TRUE(main_task.exited());
  // Between pure SMT (50/0.65 = 77ms) and pure ST (50ms).
  EXPECT_LT(main_task.t_run.ms(), 75.0);
  EXPECT_GT(main_task.t_run.ms(), 50.0);
}

TEST(MultiChip, TopologyHasThreeLevels) {
  const Topology t = Topology::power5_system(2, 2);
  EXPECT_EQ(t.num_cpus(), 8);
  const auto& lv = t.domains_for(0);
  ASSERT_EQ(lv.size(), 3u);
  EXPECT_EQ(lv[0].level, "smt");
  EXPECT_EQ(lv[1].level, "core");
  EXPECT_EQ(lv[2].level, "chip");
  // CPU 0's core level covers only chip 0's cores.
  EXPECT_EQ(lv[1].num_groups(), 2u);
  EXPECT_EQ(cpus_of(lv[1].group(0)), (std::vector<CpuId>{0, 1}));
  EXPECT_EQ(cpus_of(lv[1].group(1)), (std::vector<CpuId>{2, 3}));
  // Chip level: two groups of four CPUs.
  EXPECT_EQ(cpus_of(lv[2].group(0)), (std::vector<CpuId>{0, 1, 2, 3}));
  EXPECT_EQ(cpus_of(lv[2].group(1)), (std::vector<CpuId>{4, 5, 6, 7}));
  // CPU 5's core level covers chip 1's cores; its chip is the second group.
  EXPECT_EQ(cpus_of(t.domains_for(5)[1].group(0)), (std::vector<CpuId>{4, 5}));
  EXPECT_EQ(t.domains_for(5)[1].own, 0u);
  EXPECT_EQ(t.domains_for(5)[2].own, 1u);
}

TEST(MultiChip, BalancerSpreadsAcrossChips) {
  kern::KernelConfig cfg;
  cfg.num_chips = 2;
  KernelFixture f(cfg);
  f.k().start();
  EXPECT_EQ(f.k().num_cpus(), 8);
  std::vector<kern::Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    auto& t = f.k().create_task("hog" + std::to_string(i), std::make_unique<HogBody>(),
                                Policy::kNormal, 0);
    f.k().start_task(t);
    tasks.push_back(&t);
  }
  f.run_until(Duration::seconds(2.0));
  std::vector<int> per_cpu(8, 0);
  for (auto* t : tasks) ++per_cpu[static_cast<std::size_t>(t->cpu)];
  for (int c = 0; c < 8; ++c) EXPECT_EQ(per_cpu[static_cast<std::size_t>(c)], 1) << "cpu " << c;
}

TEST(MultiChip, SmtPhysicsStaysCoreLocal) {
  kern::KernelConfig cfg;
  cfg.num_chips = 2;
  KernelFixture f(cfg);
  f.k().start();
  // Tasks on different chips never share decode bandwidth.
  auto& a = f.k().create_task("a", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(13.0e6)}),
                              Policy::kNormal, 0);
  auto& b = f.k().create_task("b", std::make_unique<ScriptBody>(std::vector<Act>{
                                        Act::compute(13.0e6)}),
                              Policy::kNormal, 4);  // chip 1
  f.k().request_hw_prio(a, p5::HwPrio::kHigh);
  f.k().start_task(a);
  f.k().start_task(b);
  f.run_until(Duration::milliseconds(100));
  ASSERT_TRUE(a.exited() && b.exited());
  // b is unaffected by a's priority 6 (equal SMT speed vs. its spin idle).
  EXPECT_NEAR(b.t_run.ms(), 13.0 / 0.65, 0.5);
}

}  // namespace
}  // namespace hpcs::test
