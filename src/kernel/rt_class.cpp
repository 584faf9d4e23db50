#include "kernel/rt_class.h"

#include <algorithm>

#include "common/check.h"
#include "kernel/kernel.h"

namespace hpcs::kern {

HPCS_ASSERT_SCHED_CLASS(RtClass);

RtRq& RtClass::rrq(Rq& rq, int index) {
  return static_cast<RtRq&>(*rq.class_rqs[static_cast<std::size_t>(index)]);
}

void RtClass::enqueue(Kernel& k, Rq& rq, Task& t, bool wakeup) {
  (void)k;
  (void)wakeup;
  RtRq& r = rrq(rq, index());
  HPCS_CHECK(t.rt_prio >= 0 && t.rt_prio < kRtPrioLevels);
  r.queues[static_cast<std::size_t>(t.rt_prio)].push_back(&t);
  r.mark(t.rt_prio);
  if (t.policy() == Policy::kRr && t.slice_left <= Duration::zero()) {
    t.slice_left = rr_slice_;
  }
}

void RtClass::dequeue(Kernel& k, Rq& rq, Task& t, bool sleep) {
  (void)k;
  (void)sleep;
  RtRq& r = rrq(rq, index());
  auto& q = r.queues[static_cast<std::size_t>(t.rt_prio)];
  auto it = std::find(q.begin(), q.end(), &t);
  if (it != q.end()) {
    q.erase(it);
    if (q.empty()) r.unmark(t.rt_prio);
  }
  // If the task is currently running it was already removed by pick_next.
}

Task* RtClass::pick_next(Kernel& k, Rq& rq) {
  (void)k;
  RtRq& r = rrq(rq, index());
  const int prio = r.first();
  if (prio == kRtPrioLevels) return nullptr;
  auto& q = r.queues[static_cast<std::size_t>(prio)];
  Task* t = q.front();
  q.pop_front();
  if (q.empty()) r.unmark(prio);
  return t;
}

void RtClass::put_prev(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  RtRq& r = rrq(rq, index());
  // FIFO semantics (and an RR task whose slice is not exhausted) resume at
  // the head of their priority list; an expired RR task rotates to the tail.
  auto& q = r.queues[static_cast<std::size_t>(t.rt_prio)];
  if (t.policy() == Policy::kRr && t.slice_left <= Duration::zero()) {
    t.slice_left = rr_slice_;
    q.push_back(&t);
  } else {
    q.push_front(&t);
  }
  r.mark(t.rt_prio);
}

void RtClass::task_tick(Kernel& k, Rq& rq, Task& t) {
  if (t.policy() != Policy::kRr) return;  // FIFO: no time slicing
  t.slice_left -= k.tick_period();
  if (t.slice_left <= Duration::zero()) {
    RtRq& r = rrq(rq, index());
    // Rotate only if a peer of the same priority is waiting.
    if (!r.queues[static_cast<std::size_t>(t.rt_prio)].empty()) {
      rq.need_resched = true;
    } else {
      t.slice_left = rr_slice_;
    }
  }
}

bool RtClass::wakeup_preempt(Kernel& k, Rq& rq, Task& curr, Task& woken) {
  (void)k;
  (void)rq;
  return woken.rt_prio < curr.rt_prio;  // strictly higher RT priority only
}

void RtClass::yield(Kernel& k, Rq& rq, Task& t) {
  (void)k;
  (void)rq;
  // Expire the slice so put_prev rotates the task to the tail.
  t.slice_left = Duration::zero();
}

Task* RtClass::steal_candidate(Kernel& k, Rq& rq) {
  (void)k;
  RtRq& r = rrq(rq, index());
  for (auto it = r.queues.rbegin(); it != r.queues.rend(); ++it) {
    for (Task* t : *it) {
      if (t->pinned_cpu == kInvalidCpu) return t;
    }
  }
  return nullptr;
}

}  // namespace hpcs::kern
