#pragma once
// PARAVER-style tracing (paper §V uses PARAVER to visualize runs): records
// per-task state intervals (computing vs waiting), hardware-priority change
// events, per-iteration utilization samples and wakeup latencies. The Gantt
// renderer and CSV exporter consume this data to regenerate Figures 3-6.

#include <map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "kernel/task.h"
#include "kernel/trace_hooks.h"

namespace hpcs::trace {

/// What a task was doing during an interval. Matches the paper's two-tone
/// traces: computing (runnable, dark) vs waiting (blocked, light).
enum class Activity { kCompute, kWait };

struct Interval {
  SimTime begin = SimTime::zero();
  SimTime end = SimTime::zero();
  Activity activity = Activity::kWait;
};

struct PrioEvent {
  SimTime when = SimTime::zero();
  int prio = 4;
};

struct IterationEvent {
  SimTime when = SimTime::zero();
  int iteration = 0;
  double util_last = 0.0;
  double util_metric = 0.0;
};

class Tracer final : public kern::TraceSink {
 public:
  // TraceSink implementation.
  void on_state(SimTime t, const kern::Task& task, kern::TaskState new_state) override;
  void on_hw_prio(SimTime t, const kern::Task& task, p5::HwPrio prio) override;
  void on_iteration(SimTime t, const kern::Task& task, int iteration, double util_last,
                    double util_metric) override;
  void on_wakeup_latency(SimTime t, const kern::Task& task, Duration latency) override;

  /// Close all open intervals at `end`.
  void finalize(SimTime end);

  /// A task's intervals and priority events, in time order; intervals do
  /// not overlap. Events must arrive in time order (checked): the writers
  /// and the Gantt sweep rely on it.
  [[nodiscard]] const std::vector<Interval>& intervals(Pid pid) const;
  [[nodiscard]] const std::vector<PrioEvent>& prio_events(Pid pid) const;
  [[nodiscard]] const std::vector<IterationEvent>& iteration_events(Pid pid) const;
  [[nodiscard]] const RunningStat& wakeup_latency_us(Pid pid) const;
  [[nodiscard]] std::vector<Pid> traced_pids() const;

  /// Fraction of [begin,end] the task spent computing.
  [[nodiscard]] double compute_fraction(Pid pid, SimTime begin, SimTime end) const;

 private:
  struct PerTask {
    std::vector<Interval> intervals;
    std::vector<PrioEvent> prios;
    std::vector<IterationEvent> iterations;
    RunningStat latency_us;
    Activity open_activity = Activity::kWait;
    SimTime open_since = SimTime::zero();
    bool has_open = false;
    bool exited = false;
  };

  PerTask& slot(const kern::Task& task, SimTime t);

  std::map<Pid, PerTask> tasks_;
};

}  // namespace hpcs::trace
