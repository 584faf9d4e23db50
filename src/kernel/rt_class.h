#pragma once
// The real-time class: 100 round-robin run-queue lists, one per RT priority
// (paper §III). Essentially the old O(1) scheduler algorithm: a bitmap of
// non-empty lists (Linux rt_prio_array) finds the highest non-empty priority
// in one count-trailing-zeros, and the pick takes that list's first task.
// SCHED_FIFO tasks keep the head until they yield or block; SCHED_RR tasks
// rotate when their slice expires.

#include <array>
#include <bit>
#include <cstdint>
#include <deque>

#include "kernel/sched_class.h"

namespace hpcs::kern {

inline constexpr int kRtPrioLevels = 100;

struct RtRq final : ClassRq {
  std::array<std::deque<Task*>, kRtPrioLevels> queues;
  /// Bit p is set exactly when queues[p] is non-empty.
  std::array<std::uint64_t, 2> bitmap{};

  [[nodiscard]] bool has(int prio) const {
    return (bitmap[static_cast<std::size_t>(prio) / 64] & bit_of(prio)) != 0;
  }
  void mark(int prio) { bitmap[static_cast<std::size_t>(prio) / 64] |= bit_of(prio); }
  void unmark(int prio) { bitmap[static_cast<std::size_t>(prio) / 64] &= ~bit_of(prio); }
  /// Highest priority (lowest number) with a queued task, or kRtPrioLevels.
  [[nodiscard]] int first() const {
    if (bitmap[0] != 0) return std::countr_zero(bitmap[0]);
    if (bitmap[1] != 0) return 64 + std::countr_zero(bitmap[1]);
    return kRtPrioLevels;
  }

 private:
  static std::uint64_t bit_of(int prio) { return std::uint64_t{1} << (prio % 64); }
};

class RtClass final : public SchedClass {
 public:
  explicit RtClass(Duration rr_slice = Duration::milliseconds(100)) : rr_slice_(rr_slice) {}

  [[nodiscard]] const char* name() const override { return "rt"; }
  [[nodiscard]] bool owns(Policy p) const override {
    return p == Policy::kFifo || p == Policy::kRr;
  }
  [[nodiscard]] std::unique_ptr<ClassRq> make_rq() const override {
    return std::make_unique<RtRq>();
  }

  void enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) override;
  void dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) override;
  Task* pick_next(Kernel& k, Rq& rq) override;
  void put_prev(Kernel& k, Rq& rq, Task& t) override;
  void task_tick(Kernel& k, Rq& rq, Task& t) override;
  [[nodiscard]] bool wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) override;
  void yield(Kernel& k, Rq& rq, Task& t) override;
  Task* steal_candidate(Kernel& k, Rq& rq) override;

  [[nodiscard]] Duration rr_slice() const { return rr_slice_; }

 private:
  static RtRq& rrq(Rq& rq, int index);
  Duration rr_slice_;
};

}  // namespace hpcs::kern
