#pragma once
// ASCII Gantt rendering of traced tasks — the textual equivalent of the
// paper's PARAVER figures: one row per task, '#' while computing, '.' while
// waiting, plus an optional per-task hardware-priority row.

#include <string>
#include <vector>

#include "trace/tracer.h"

namespace hpcs::trace {

struct GanttOptions {
  int width = 100;            ///< character columns
  bool show_priorities = true;
  SimTime begin = SimTime::zero();
  SimTime end = SimTime::zero();  ///< zero = auto (max interval end)
};

/// Render the tasks (in the given order, with labels) over the time window.
/// Fails a check when `width` < 1 or the window is shorter than `width` ns.
/// Costs O(intervals + priority events + width) per task.
[[nodiscard]] std::string render_gantt(const Tracer& tracer, const std::vector<Pid>& pids,
                                       const std::vector<std::string>& labels,
                                       const GanttOptions& opt = {});

}  // namespace hpcs::trace
