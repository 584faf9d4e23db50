#pragma once
// CSV export of trace data: state intervals, per-iteration utilization
// series (the data behind Figures 3-6) and priority timelines. Fields are
// formatted by trace::TextOut (integers in decimal, doubles as "%.6g"),
// whatever the stream's format flags.

#include <ostream>
#include <string>
#include <vector>

#include "trace/tracer.h"

namespace hpcs::trace {

/// One row per interval: pid,label,begin_s,end_s,activity.
void write_intervals_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                         const std::vector<std::string>& labels);

/// One row per completed iteration: pid,label,iteration,time_s,util_last,util_metric.
void write_iterations_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                          const std::vector<std::string>& labels);

/// One row per priority change: pid,label,time_s,prio.
void write_priorities_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                          const std::vector<std::string>& labels);

}  // namespace hpcs::trace
