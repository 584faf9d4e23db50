#pragma once
// Shared helpers for kernel-level tests: scripted task bodies and a
// ready-made simulator+kernel fixture.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "kernel/kernel.h"
#include "simcore/simulator.h"

namespace hpcs::test {

/// One scripted action of a task body.
struct Act {
  enum class Kind { kCompute, kBlock, kSleep, kYield, kExit } kind;
  Work work = 0;
  Duration dur = Duration::zero();
  /// Optional hook executed when the action is issued.
  std::function<void()> on_issue;

  static Act compute(Work w) { return {Kind::kCompute, w, Duration::zero(), nullptr}; }
  static Act block() { return {Kind::kBlock, 0, Duration::zero(), nullptr}; }
  static Act sleep(Duration d) { return {Kind::kSleep, 0, d, nullptr}; }
  static Act yield() { return {Kind::kYield, 0, Duration::zero(), nullptr}; }
  static Act exit() { return {Kind::kExit, 0, Duration::zero(), nullptr}; }
};

/// Runs a fixed action sequence, then exits.
class ScriptBody final : public kern::TaskBody {
 public:
  explicit ScriptBody(std::vector<Act> acts) : acts_(std::move(acts)) {}

  void step(kern::Kernel& k, kern::Task& t) override {
    if (i_ >= acts_.size()) {
      k.body_exit(t);
      return;
    }
    const Act& a = acts_[i_++];
    if (a.on_issue) a.on_issue();
    switch (a.kind) {
      case Act::Kind::kCompute: k.body_compute(t, a.work); break;
      case Act::Kind::kBlock: k.body_block(t); break;
      case Act::Kind::kSleep: k.body_sleep(t, a.dur); break;
      case Act::Kind::kYield: k.body_yield(t); break;
      case Act::Kind::kExit: k.body_exit(t); break;
    }
  }

 private:
  std::vector<Act> acts_;
  std::size_t i_ = 0;
};

/// Compute `work` then sleep `gap`, forever (a periodic task).
class PeriodicBody final : public kern::TaskBody {
 public:
  PeriodicBody(Work work, Duration gap) : work_(work), gap_(gap) {}

  void step(kern::Kernel& k, kern::Task& t) override {
    if (computing_) {
      computing_ = false;
      k.body_sleep(t, gap_);
    } else {
      computing_ = true;
      k.body_compute(t, work_);
    }
  }

 private:
  Work work_;
  Duration gap_;
  bool computing_ = false;
};

/// Compute forever in bounded chunks (a CPU hog).
class HogBody final : public kern::TaskBody {
 public:
  explicit HogBody(Work chunk = 1.0e6) : chunk_(chunk) {}
  void step(kern::Kernel& k, kern::Task& t) override { k.body_compute(t, chunk_); }

 private:
  Work chunk_;
};

/// The CPUs of one balancing group, as a comparable vector.
inline std::vector<CpuId> cpus_of(std::span<const CpuId> group) {
  return {group.begin(), group.end()};
}

struct KernelFixture {
  sim::Simulator sim;
  std::unique_ptr<kern::Kernel> kernel;

  explicit KernelFixture(kern::KernelConfig cfg = {}) {
    kernel = std::make_unique<kern::Kernel>(sim, cfg);
  }

  kern::Kernel& k() { return *kernel; }

  /// Run until `deadline`.
  void run_until(Duration d) { sim.run(SimTime::zero() + d); }
};

}  // namespace hpcs::test
