// Trace module tests: interval construction from state transitions, compute
// fractions, Gantt rendering, CSV export formats, and differential checks of
// the buffered formatter and the one-pass Gantt against their references
// (std::ostream insertion and per-cell Tracer::compute_fraction).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>

#include "common/rng.h"
#include "kernel/task.h"
#include "trace/csv.h"
#include "trace/gantt.h"
#include "trace/paraver.h"
#include "trace/text_out.h"
#include "trace/tracer.h"

namespace hpcs::trace {
namespace {

SimTime at_ms(std::int64_t ms) { return SimTime(ms * 1000000); }

struct TraceFixture {
  kern::Task task{7, "rank0", kern::Policy::kHpcRr};
  Tracer tracer;

  /// Feed a wake/sleep/wake/... pattern.
  void feed(std::initializer_list<std::pair<std::int64_t, kern::TaskState>> events) {
    for (const auto& [ms, state] : events) tracer.on_state(at_ms(ms), task, state);
  }
};

TEST(Tracer, BuildsComputeWaitIntervals) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {10, kern::TaskState::kSleeping},
          {30, kern::TaskState::kRunnable},
          {40, kern::TaskState::kExited}});
  const auto& iv = f.tracer.intervals(7);
  ASSERT_EQ(iv.size(), 3u);
  EXPECT_EQ(iv[0].activity, Activity::kCompute);
  EXPECT_EQ(iv[0].begin, at_ms(0));
  EXPECT_EQ(iv[0].end, at_ms(10));
  EXPECT_EQ(iv[1].activity, Activity::kWait);
  EXPECT_EQ(iv[2].activity, Activity::kCompute);
  EXPECT_EQ(iv[2].end, at_ms(40));
}

TEST(Tracer, ComputeFraction) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {25, kern::TaskState::kSleeping},
          {100, kern::TaskState::kRunnable},
          {110, kern::TaskState::kExited}});
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(0), at_ms(100)), 0.25, 1e-9);
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(0), at_ms(110)), 35.0 / 110.0, 1e-9);
  EXPECT_NEAR(f.tracer.compute_fraction(7, at_ms(50), at_ms(60)), 0.0, 1e-9);
  // Unknown pid: zero.
  EXPECT_DOUBLE_EQ(f.tracer.compute_fraction(99, at_ms(0), at_ms(10)), 0.0);
}

TEST(Tracer, FinalizeClosesOpenInterval) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}});
  f.tracer.finalize(at_ms(50));
  const auto& iv = f.tracer.intervals(7);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_EQ(iv[0].end, at_ms(50));
}

TEST(Tracer, PrioAndIterationEvents) {
  TraceFixture f;
  f.tracer.on_hw_prio(at_ms(5), f.task, p5::HwPrio::kHigh);
  f.tracer.on_iteration(at_ms(10), f.task, 1, 25.0, 30.0);
  f.tracer.on_wakeup_latency(at_ms(10), f.task, Duration::microseconds(42));
  ASSERT_EQ(f.tracer.prio_events(7).size(), 1u);
  EXPECT_EQ(f.tracer.prio_events(7)[0].prio, 6);
  ASSERT_EQ(f.tracer.iteration_events(7).size(), 1u);
  EXPECT_EQ(f.tracer.iteration_events(7)[0].iteration, 1);
  EXPECT_NEAR(f.tracer.wakeup_latency_us(7).mean(), 42.0, 1e-9);
}

TEST(Gantt, RendersComputeAndWaitCells) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable},
          {50, kern::TaskState::kSleeping},
          {100, kern::TaskState::kRunnable},
          {110, kern::TaskState::kExited}});
  GanttOptions opt;
  opt.width = 10;
  opt.show_priorities = false;
  opt.end = at_ms(100);
  const std::string g = render_gantt(f.tracer, {7}, {"rank0"}, opt);
  // First half computing, second half waiting.
  EXPECT_NE(g.find("#####....."), std::string::npos) << g;
  EXPECT_NE(g.find("rank0"), std::string::npos);
}

TEST(Gantt, ShowsNonDefaultPriorities) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}});
  f.tracer.on_hw_prio(at_ms(40), f.task, p5::HwPrio::kHigh);
  f.tracer.finalize(at_ms(100));
  GanttOptions opt;
  opt.width = 10;
  const std::string g = render_gantt(f.tracer, {7}, {"rank0"}, opt);
  EXPECT_NE(g.find("666666"), std::string::npos) << g;
}

TEST(Gantt, EmptyTrace) {
  Tracer t;
  EXPECT_EQ(render_gantt(t, {}, {}), "(empty trace)\n");
}

TEST(Csv, IntervalExport) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  std::ostringstream os;
  write_intervals_csv(os, f.tracer, {7}, {"rank0"});
  const std::string s = os.str();
  EXPECT_NE(s.find("pid,label,begin_s,end_s,activity"), std::string::npos);
  EXPECT_NE(s.find("7,rank0,0,0.01,compute"), std::string::npos) << s;
}

TEST(Csv, IterationExport) {
  TraceFixture f;
  f.tracer.on_iteration(at_ms(2000), f.task, 3, 25.5, 40.25);
  std::ostringstream os;
  write_iterations_csv(os, f.tracer, {7}, {"rank0"});
  EXPECT_NE(os.str().find("7,rank0,3,2,25.5,40.25"), std::string::npos) << os.str();
}

TEST(Csv, PriorityExport) {
  TraceFixture f;
  f.tracer.on_hw_prio(at_ms(500), f.task, p5::HwPrio::kMediumHigh);
  std::ostringstream os;
  write_priorities_csv(os, f.tracer, {7}, {"rank0"});
  EXPECT_NE(os.str().find("7,rank0,0.5,5"), std::string::npos) << os.str();
}

// --- TextOut: byte-identical to default std::ostream insertion -------------

template <typename T>
void expect_same_bytes(const std::vector<T>& values) {
  std::ostringstream want;
  std::ostringstream got;
  TextOut out(got);
  for (const T v : values) {
    want << v << ',';
    out << v << ',';
  }
  out.flush();
  ASSERT_EQ(got.str().size(), want.str().size());
  EXPECT_EQ(got.str(), want.str());
  // Value by value, so a failure names the value.
  for (const T v : values) {
    std::ostringstream w;
    std::ostringstream g;
    TextOut o(g);
    w << v;
    o << v;
    o.flush();
    EXPECT_EQ(g.str(), w.str()) << "value " << static_cast<long double>(v);
  }
}

TEST(TextOut, EdgeDoublesMatchOstream) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  expect_same_bytes<double>({
      0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0, 2.5, -1.5, 25.5, 40.25,
      // "%g" switches to an exponent below 1e-4 ...
      1e-4, 0.000099999949, 0.00009999995, 0.000099999951, 1e-5, 9.99999e-6, 9.999995e-6,
      1.0000005e-5, 1.23456789e-5, -1e-5,
      // ... and at 1e6 once rounded to 6 digits: 999999.5 prints "1e+06".
      999999.0, 999999.4, 999999.49999, 999999.5, 999999.5000001, 1e6, 1e6 + 1, 123456.5,
      123455.5, 1234567.0, -999999.5,
      // Round-half cases at the sixth digit and long mantissas.
      1.0000005, 1.0000015, 1.00000049999, 0.1234565, 0.1234575, 3.14159265358979,
      // Far ends of the range.
      1e15, 1e16, 1e300, 1e-300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::lowest(), kInf, -kInf});
}

TEST(TextOut, IntegerExtremesMatchOstream) {
  expect_same_bytes<std::int64_t>({0, 1, -1, 9, 10, -10, std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()});
  expect_same_bytes<int>({0, 7, -7, std::numeric_limits<int>::max(),
                          std::numeric_limits<int>::min(), 77000001});
  expect_same_bytes<std::size_t>({0, 4, std::numeric_limits<std::size_t>::max()});
}

TEST(TextOut, SimTimeSecondsMatchOstream) {
  // 10^5 instants, log-uniform from 1 ns to 10^13 ns: every exponent the
  // CSV time columns can carry. The joined text also spans many buffers.
  Rng rng(20);
  std::vector<double> secs;
  secs.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const double log_ns = rng.uniform(0.0, std::log(1e13));
    const auto ns = static_cast<std::int64_t>(std::llround(std::exp(log_ns)));
    secs.push_back(SimTime(ns).sec());
  }
  expect_same_bytes(secs);
}

TEST(TextOut, StringsAcrossTheBufferBoundary) {
  const std::string big(10000, 'x');
  std::ostringstream got;
  TextOut out(got);
  for (int i = 0; i < 3; ++i) out << std::string_view(big).substr(0, 4000) << i << ';';
  out << big << 'y';
  out.flush();
  std::ostringstream want;
  for (int i = 0; i < 3; ++i) want << big.substr(0, 4000) << i << ';';
  want << big << 'y';
  EXPECT_EQ(got.str(), want.str());
}

// --- Seeded random traces ------------------------------------------------------

struct RandomTrace {
  std::vector<std::unique_ptr<kern::Task>> tasks;
  std::vector<Pid> pids;
  std::vector<std::string> labels;
  Tracer tracer;
  SimTime end = SimTime::zero();
};

/// Up to four tasks with random state changes and priority events. Steps of
/// 0 ns give same-instant events; a task may exit or stay open until
/// finalize. `scale` sets the typical step, so intervals range from much
/// shorter than a Gantt cell to many cells long.
std::unique_ptr<RandomTrace> random_trace(Rng& rng) {
  auto t = std::make_unique<RandomTrace>();
  const int n = static_cast<int>(rng.uniform_int(1, 4));
  const std::int64_t scale = std::int64_t{1} << rng.uniform_int(0, 24);
  for (int i = 0; i < n; ++i) {
    t->tasks.push_back(std::make_unique<kern::Task>(10 + i, "r", kern::Policy::kHpcRr));
    t->pids.push_back(10 + i);
    t->labels.push_back("P" + std::to_string(i + 1));
    const kern::Task& task = *t->tasks.back();
    SimTime now(rng.uniform_int(0, 3) * scale);
    const int events = static_cast<int>(rng.uniform_int(0, 300));
    for (int e = 0; e < events; ++e) {
      now += Duration(rng.uniform_int(0, 2 * scale));
      const auto kind = rng.uniform_int(0, 9);
      if (kind < 4) {
        t->tracer.on_state(now, task, kern::TaskState::kRunnable);
      } else if (kind < 8) {
        t->tracer.on_state(now, task, kern::TaskState::kSleeping);
      } else {
        const int prio = static_cast<int>(rng.uniform_int(1, 6));
        t->tracer.on_hw_prio(now, task, p5::hw_prio_from_int(prio));
      }
    }
    if (rng.uniform_int(0, 3) == 0) {
      t->tracer.on_state(now + Duration(scale), task, kern::TaskState::kExited);
    }
    t->end = std::max(t->end, now + Duration(scale));
  }
  t->tracer.finalize(t->end + Duration(rng.uniform_int(0, 2 * scale)));
  return t;
}

/// The Gantt as it was drawn before the sweep: per cell, the compute
/// fraction from Tracer::compute_fraction and the last priority event at or
/// before the cell's start, found by scanning every event.
std::string reference_gantt(const Tracer& tracer, const std::vector<Pid>& pids,
                            const std::vector<std::string>& labels, GanttOptions o) {
  if (o.end <= o.begin) {
    for (const Pid pid : pids) {
      for (const Interval& iv : tracer.intervals(pid)) o.end = std::max(o.end, iv.end);
    }
  }
  if (o.end <= o.begin) return "(empty trace)\n";
  const Duration cell = (o.end - o.begin) / o.width;
  std::ostringstream out;
  std::size_t label_w = 4;
  for (const auto& l : labels) label_w = std::max(label_w, l.size());
  for (std::size_t i = 0; i < pids.size(); ++i) {
    out << labels[i] << std::string(label_w - labels[i].size(), ' ') << " |";
    for (int c = 0; c < o.width; ++c) {
      const SimTime lo = o.begin + cell * c;
      const SimTime hi = (c == o.width - 1) ? o.end : o.begin + cell * (c + 1);
      const double frac = tracer.compute_fraction(pids[i], lo, hi);
      out << (frac >= 0.5 ? '#' : (frac > 0.05 ? '+' : '.'));
    }
    out << "|\n";
    const auto& prios = tracer.prio_events(pids[i]);
    if (o.show_priorities && !prios.empty()) {
      out << std::string(label_w, ' ') << " |";
      for (int c = 0; c < o.width; ++c) {
        int prio = 4;
        for (const PrioEvent& e : prios) {
          if (e.when <= o.begin + cell * c) prio = e.prio;
        }
        out << (prio == 4 ? ' ' : static_cast<char>('0' + prio));
      }
      out << "| (hw prio when != 4)\n";
    }
  }
  out << std::string(label_w, ' ') << "  ^" << format_time(o.begin) << " ... "
      << format_time(o.end) << "  ('#'=computing, '.'=waiting)\n";
  return out.str();
}

TEST(GanttSweep, EqualsPerCellComputeFractionReference) {
  Rng rng(2008);
  int compared = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto t = random_trace(rng);
    for (int w = 0; w < 4; ++w) {
      GanttOptions o;
      o.width = static_cast<int>(rng.uniform_int(1, 200));
      o.show_priorities = rng.uniform_int(0, 3) != 0;
      const std::int64_t e = t->end.ns();
      switch (rng.uniform_int(0, 3)) {
        case 0:  // whole trace, end found from the intervals
          break;
        case 1:  // starts after 0
          o.begin = SimTime(rng.uniform_int(0, e / 2));
          break;
        case 2:  // ends inside the trace
          o.end = SimTime(rng.uniform_int(e / 2, e));
          break;
        default:  // both, possibly reaching past the last interval
          o.begin = SimTime(rng.uniform_int(0, e / 2));
          o.end = SimTime(rng.uniform_int(e / 2, 2 * e + 1));
          break;
      }
      GanttOptions eff = o;
      if (eff.end <= eff.begin) {
        for (const Pid pid : t->pids) {
          for (const Interval& iv : t->tracer.intervals(pid)) eff.end = std::max(eff.end, iv.end);
        }
      }
      if (eff.end > eff.begin && (eff.end - eff.begin).ns() < o.width) continue;  // rejected input
      const std::string ref = reference_gantt(t->tracer, t->pids, t->labels, o);
      ASSERT_EQ(render_gantt(t->tracer, t->pids, t->labels, o), ref)
          << "trial " << trial << " width " << o.width << " window [" << o.begin.ns() << ", "
          << o.end.ns() << ")";
      ++compared;
    }
  }
  EXPECT_GT(compared, 1400);
}

TEST(GanttSweep, IntervalSpanningManyCellsCountsInEach) {
  // One compute interval over cells 1..8 of 10, and 1 ns of compute at the
  // very start of cell 9: a cursor that left an interval behind once it had
  // reached a cell boundary would draw cells 2..8 as waiting.
  kern::Task task{3, "t", kern::Policy::kHpcRr};
  Tracer tr;
  tr.on_state(at_ms(0), task, kern::TaskState::kSleeping);
  tr.on_state(at_ms(15), task, kern::TaskState::kRunnable);
  tr.on_state(at_ms(85), task, kern::TaskState::kSleeping);
  tr.on_state(at_ms(90), task, kern::TaskState::kRunnable);
  tr.on_state(at_ms(90) + Duration(1), task, kern::TaskState::kSleeping);
  tr.finalize(at_ms(100));
  GanttOptions opt;
  opt.width = 10;
  opt.show_priorities = false;
  const std::string g = render_gantt(tr, {3}, {"t"}, opt);
  EXPECT_NE(g.find("|.########.|"), std::string::npos) << g;
}

// --- Writers: byte-identical to ostream insertion of the same fields ---------

TEST(TraceWriters, MatchOstreamFormatting) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const auto t = random_trace(rng);
    for (std::size_t i = 0; i < t->tasks.size(); ++i) {
      for (int k = 0; k < 20; ++k) {
        t->tracer.on_iteration(t->end, *t->tasks[i], k, rng.uniform(0.0, 100.0),
                               rng.uniform(-1.0, 1.0) * std::exp(rng.uniform(-30.0, 30.0)));
      }
    }
    std::ostringstream want;
    want << "pid,label,begin_s,end_s,activity\n";
    for (std::size_t i = 0; i < t->pids.size(); ++i) {
      for (const Interval& iv : t->tracer.intervals(t->pids[i])) {
        want << t->pids[i] << ',' << t->labels[i] << ',' << iv.begin.sec() << ','
             << iv.end.sec() << ',' << (iv.activity == Activity::kCompute ? "compute" : "wait")
             << '\n';
      }
    }
    want << "pid,label,iteration,time_s,util_last,util_metric\n";
    for (std::size_t i = 0; i < t->pids.size(); ++i) {
      for (const IterationEvent& e : t->tracer.iteration_events(t->pids[i])) {
        want << t->pids[i] << ',' << t->labels[i] << ',' << e.iteration << ',' << e.when.sec()
             << ',' << e.util_last << ',' << e.util_metric << '\n';
      }
    }
    want << "pid,label,time_s,prio\n";
    for (std::size_t i = 0; i < t->pids.size(); ++i) {
      for (const PrioEvent& e : t->tracer.prio_events(t->pids[i])) {
        want << t->pids[i] << ',' << t->labels[i] << ',' << e.when.sec() << ',' << e.prio << '\n';
      }
    }
    const SimTime prv_end = t->end + Duration(1);
    want << "#Paraver (01/01/08 at 00:00):" << prv_end.ns() << "_ns:1(4):1:" << t->pids.size()
         << "(";
    for (std::size_t i = 0; i < t->pids.size(); ++i) want << (i == 0 ? "" : ",") << "1:1";
    want << ")\n";
    for (std::size_t i = 0; i < t->pids.size(); ++i) {
      const std::size_t task = i + 1;
      const std::size_t cpu = i % 4 + 1;
      for (const Interval& iv : t->tracer.intervals(t->pids[i])) {
        want << "1:" << cpu << ":1:" << task << ":1:" << iv.begin.ns() << ':' << iv.end.ns() << ':'
             << (iv.activity == Activity::kCompute ? kPrvStateRunning : kPrvStateWaiting) << '\n';
      }
      for (const PrioEvent& e : t->tracer.prio_events(t->pids[i])) {
        want << "2:" << cpu << ":1:" << task << ":1:" << e.when.ns() << ':' << kPrvEventHwPrio
             << ':' << e.prio << '\n';
      }
    }

    std::ostringstream got;
    write_intervals_csv(got, t->tracer, t->pids, t->labels);
    write_iterations_csv(got, t->tracer, t->pids, t->labels);
    write_priorities_csv(got, t->tracer, t->pids, t->labels);
    ParaverJob job;
    job.pids = t->pids;
    job.labels = t->labels;
    job.end = prv_end;
    write_prv(got, t->tracer, job);
    ASSERT_EQ(got.str(), want.str()) << "trial " << trial;
  }
}

// --- Bad input fails loudly ------------------------------------------------------

TEST(GanttDeathTest, NonPositiveWidthNamesTheOption) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  GanttOptions opt;
  opt.width = 0;
  EXPECT_DEATH((void)render_gantt(f.tracer, {7}, {"rank0"}, opt), "GanttOptions::width");
  opt.width = -3;
  EXPECT_DEATH((void)render_gantt(f.tracer, {7}, {"rank0"}, opt), "GanttOptions::width");
}

TEST(GanttDeathTest, WindowShorterThanWidthNamesTheOption) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  GanttOptions opt;
  opt.width = 100;
  opt.begin = at_ms(5);
  opt.end = at_ms(5) + Duration(99);
  EXPECT_DEATH((void)render_gantt(f.tracer, {7}, {"rank0"}, opt),
               "GanttOptions: the window \\[begin, end\\) is shorter than width");
  opt.end = at_ms(5) + Duration(100);  // one ns per cell is enough
  EXPECT_NE(render_gantt(f.tracer, {7}, {"rank0"}, opt).find("rank0"), std::string::npos);
}

TEST(ParaverDeathTest, NonPositiveCpuCountNamesTheField) {
  TraceFixture f;
  f.feed({{0, kern::TaskState::kRunnable}, {10, kern::TaskState::kExited}});
  ParaverJob job;
  job.pids = {7};
  job.labels = {"rank0"};
  job.cpus = 0;
  std::ostringstream os;
  EXPECT_DEATH(write_prv(os, f.tracer, job), "ParaverJob::cpus");
}

TEST(TracerDeathTest, EventsOutOfTimeOrderFail) {
  TraceFixture f;
  f.feed({{10, kern::TaskState::kRunnable}});
  EXPECT_DEATH(f.tracer.on_state(at_ms(5), f.task, kern::TaskState::kSleeping), "time order");
  f.tracer.finalize(at_ms(20));
  EXPECT_DEATH(f.tracer.on_state(at_ms(15), f.task, kern::TaskState::kRunnable), "time order");
  f.tracer.on_hw_prio(at_ms(10), f.task, p5::HwPrio::kHigh);
  EXPECT_DEATH(f.tracer.on_hw_prio(at_ms(9), f.task, p5::HwPrio::kLow), "time order");
}

}  // namespace
}  // namespace hpcs::trace
