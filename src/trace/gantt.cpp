#include "trace/gantt.h"

#include <algorithm>

#include "common/check.h"

namespace hpcs::trace {
namespace {

SimTime auto_end(const Tracer& tracer, const std::vector<Pid>& pids) {
  SimTime end = SimTime::zero();
  for (const Pid pid : pids) {
    for (const Interval& iv : tracer.intervals(pid)) end = std::max(end, iv.end);
  }
  return end;
}

/// Cell c covers [begin + cell*c, begin + cell*(c+1)); the last one runs to
/// the window's end and absorbs the division's remainder.
struct Cells {
  SimTime begin;
  SimTime end;
  Duration cell;
  int width;

  [[nodiscard]] SimTime lo(int c) const { return begin + cell * c; }
  [[nodiscard]] SimTime hi(int c) const { return c == width - 1 ? end : begin + cell * (c + 1); }
};

/// One pass over the task's intervals, which Tracer appends in time order
/// and without overlap: `k` is the first interval that ends after the
/// current cell's start, so each interval is visited once per cell it
/// overlaps and the row costs O(intervals + width). Each cell's computing
/// time is the same integer sum Tracer::compute_fraction takes.
void append_activity_row(std::string& out, const std::vector<Interval>& ivs, const Cells& g) {
  std::size_t k = 0;
  for (int c = 0; c < g.width; ++c) {
    const SimTime lo = g.lo(c);
    const SimTime hi = g.hi(c);
    while (k < ivs.size() && ivs[k].end <= lo) ++k;
    Duration computing = Duration::zero();
    for (std::size_t j = k; j < ivs.size() && ivs[j].begin < hi; ++j) {
      if (ivs[j].activity != Activity::kCompute) continue;
      const SimTime a = std::max(ivs[j].begin, lo);
      const SimTime b = std::min(ivs[j].end, hi);
      if (b > a) computing += b - a;
    }
    const double frac = computing / (hi - lo);
    out += frac >= 0.5 ? '#' : (frac > 0.05 ? '+' : '.');
  }
}

/// The priority in effect at the start of each cell (default 4): the last
/// event at or before it. Events are in time order, so one cursor suffices.
void append_priority_row(std::string& out, const std::vector<PrioEvent>& prios, const Cells& g) {
  std::size_t k = 0;
  int prio = 4;
  for (int c = 0; c < g.width; ++c) {
    const SimTime lo = g.lo(c);
    for (; k < prios.size() && prios[k].when <= lo; ++k) prio = prios[k].prio;
    out += prio == 4 ? ' ' : static_cast<char>('0' + prio);
  }
}

}  // namespace

std::string render_gantt(const Tracer& tracer, const std::vector<Pid>& pids,
                         const std::vector<std::string>& labels, const GanttOptions& opt) {
  HPCS_CHECK(pids.size() == labels.size());
  HPCS_CHECK_MSG(opt.width > 0, "GanttOptions::width must be at least 1");
  GanttOptions o = opt;
  if (o.end <= o.begin) o.end = auto_end(tracer, pids);
  if (o.end <= o.begin) return "(empty trace)\n";

  const Duration span = o.end - o.begin;
  HPCS_CHECK_MSG(span.ns() >= o.width,
                 "GanttOptions: the window [begin, end) is shorter than width ns, so a cell "
                 "would be empty");
  const Cells cells{o.begin, o.end, span / o.width, o.width};

  std::size_t label_w = 4;
  for (const auto& l : labels) label_w = std::max(label_w, l.size());

  std::string out;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const Pid pid = pids[i];
    out += labels[i];
    out.append(label_w - labels[i].size(), ' ');
    out += " |";
    append_activity_row(out, tracer.intervals(pid), cells);
    out += "|\n";

    const auto& prios = tracer.prio_events(pid);
    if (o.show_priorities && !prios.empty()) {
      out.append(label_w, ' ');
      out += " |";
      append_priority_row(out, prios, cells);
      out += "| (hw prio when != 4)\n";
    }
  }
  out.append(label_w, ' ');
  out += "  ^" + format_time(o.begin) + " ... " + format_time(o.end) +
         "  ('#'=computing, '.'=waiting)\n";
  return out;
}

}  // namespace hpcs::trace
