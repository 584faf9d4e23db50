// perfbench: end-to-end and per-layer benchmark of the paper's runs.
//
//   perfbench --workload siesta|metbenchvar|paper_eval --seed N --seconds S
//             --trace 0|1 [--spans PATH]
//   perfbench --self-test
//   perfbench --list-metrics
//
// A pass runs every experiment of the workload once. Untraced passes
// (--trace 0) give the end-to-end metrics; --trace 1 alternates untraced and
// traced passes (obs recorder on, a RankProgram decorator, timed calls into
// the public trace/analysis functions) and gives the per-layer metrics. All
// timing happens here, around the layers' public entry points; the simulator
// itself is not instrumented for this benchmark.
//
// Correctness: a serial reference pass through the public analysis::run_*
// functions is made at set-up; every later pass (timed, traced, parallel)
// must reproduce its digest run by run. A mismatch counts as a failed run
// and makes the command exit non-zero.

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/iterations.h"
#include "analysis/paper_experiments.h"
#include "analysis/tables.h"
#include "exp/parallel_runner.h"
#include "simmpi/ops.h"
#include "trace/csv.h"
#include "trace/gantt.h"
#include "trace/paraver.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace hpcs;
using analysis::RunResult;
using analysis::SchedMode;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double since_epoch() { return std::chrono::duration<double>(Clock::now() - kEpoch).count(); }

// ---------------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; `perfbench
// --list-metrics` prints this table so run.py --self-test can compare them.
// `target` is the end-to-end metric and workload the layer metric should move.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* target;
};

constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "lower", "median host seconds per pass"},
    {"setup_s", "s", "lower", "median host seconds to build one pass's configs and programs"},
    {"peak_rss_mb", "MB", "lower", "peak resident memory of the process"},
    {"exec_err_pct", "%", "lower", "mean |sim exec - paper exec| / paper exec"},
    {"util_err_pp", "pp", "lower", "mean |sim %Comp - paper %Comp| per rank"},
    {"gain_err_pp", "pp", "lower", "mean |sim gain - paper gain| of non-Baseline modes"},
};

constexpr MetricDef kPerLayer[] = {
    {"simcore.events", "count", "lower", "wall_s on siesta, metbenchvar Baseline/Static"},
    {"simcore.ns_per_event", "ns", "lower", "wall_s on siesta, metbenchvar Baseline/Static"},
    {"simcore.heap_fallback_ratio", "ratio", "lower", "wall_s on siesta, metbenchvar"},
    {"simcore.stale_ratio", "ratio", "lower", "wall_s on siesta, metbenchvar"},
    {"kernel.ctx_switches", "count", "lower", "wall_s on metbenchvar Baseline/Static, siesta Baseline"},
    {"kernel.wakeups", "count", "lower", "wall_s on metbenchvar Baseline/Static, siesta Baseline"},
    {"kernel.balance_pulls", "count", "lower", "wall_s on metbenchvar Baseline/Static, siesta Baseline"},
    {"kernel.migrations", "count", "lower", "wall_s on metbenchvar Baseline/Static, siesta Baseline"},
    {"kernel.wakeup_latency_us", "us", "lower", "*_err_* on siesta (simulated latency)"},
    {"hpcsched.iterations", "count", "lower", "wall_s on siesta Uniform/Adaptive"},
    {"hpcsched.decisions", "count", "lower", "wall_s on siesta Uniform/Adaptive"},
    {"hpcsched.prio_changes", "count", "lower", "wall_s on siesta Uniform/Adaptive; *_err_* on both"},
    {"hpcsched.imbalance_detections", "count", "lower", "wall_s on siesta Uniform/Adaptive"},
    {"hpcsched.reset_ratio", "ratio", "lower", "*_err_* on metbenchvar"},
    {"power5.hw_prio_writes", "count", "lower", "wall_s on siesta Uniform/Adaptive"},
    {"simmpi.messages", "count", "lower", "wall_s on siesta, not metbenchvar"},
    {"simmpi.ops.compute", "count", "lower", "wall_s on siesta, not metbenchvar"},
    {"simmpi.ops.p2p", "count", "lower", "wall_s on siesta, not metbenchvar"},
    {"simmpi.ops.collective", "count", "lower", "wall_s on siesta, not metbenchvar"},
    {"workloads.next_calls", "count", "lower", "wall_s on siesta, not metbenchvar"},
    {"workloads.next_s", "s", "lower", "wall_s on siesta, not metbenchvar"},
    {"workloads.build_s", "s", "lower", "setup_s on every workload"},
    {"exp.workers", "count", "higher", "wall_s on paper_eval"},
    {"exp.busy_s", "s", "lower", "wall_s on paper_eval"},
    {"exp.utilization", "ratio", "higher", "wall_s on paper_eval"},
    {"exp.critical_path_s", "s", "lower", "wall_s on paper_eval"},
    {"exp.queue_wait_s", "s", "lower", "wall_s on paper_eval"},
    {"exp.max_queue_depth", "count", "lower", "wall_s on paper_eval"},
    {"trace.render_s", "s", "lower", "wall_s, peak_rss_mb on paper_eval"},
    {"trace.intervals", "count", "lower", "wall_s, peak_rss_mb on paper_eval"},
    {"obs.ring_dropped", "count", "lower", "traced run only (tracing loss)"},
    {"obs.overhead_ratio", "ratio", "lower", "traced vs untraced wall on the same workload"},
    {"analysis.post_s", "s", "lower", "wall_s on paper_eval"},
    {"run_s.Baseline", "s", "lower", "wall_s: which run moved"},
    {"run_s.Static", "s", "lower", "wall_s: which run moved"},
    {"run_s.Uniform", "s", "lower", "wall_s: which run moved"},
    {"run_s.Adaptive", "s", "lower", "wall_s: which run moved"},
};

const MetricDef* find_def(const std::string& name) {
  for (const MetricDef& d : kEndToEnd) {
    if (name == d.name) return &d;
  }
  for (const MetricDef& d : kPerLayer) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

bool valid_metric_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------
// Statistics and digests.
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile with at least ten samples above it: the value at
/// sorted index n-11. Returns false when there are fewer than 11 samples.
bool tail(std::vector<double> v, double& value, double& pct) {
  if (v.size() < 11) return false;
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() - 11;
  value = v[k];
  pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size());
  return true;
}

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void put(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) { bytes(s.data(), s.size()); }
};

/// The simulated outcome of one run: exec ns, per-rank util and final
/// priority, context switches, messages and priority changes.
std::uint64_t run_digest(const RunResult& r) {
  Fnv f;
  f.put(r.exec_time.ns());
  for (const analysis::TaskResult& t : r.ranks) {
    f.put(t.util_pct);
    f.put(t.final_hw_prio);
  }
  f.put(r.context_switches);
  f.put(r.messages);
  f.put(r.hw_prio_changes);
  return f.h;
}

double clock_read_s() {
  constexpr int kReads = 200000;
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    Clock::time_point last{};
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    per.push_back(std::chrono::duration<double>(last - t0).count() / kReads);
  }
  return median(per);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so it would report the launching
/// process's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Machine-speed probe. On a shared host, other tenants' load slows every pass
// by up to 40% for minutes at a time, which no number of passes averages out.
// A fixed loop of virtual calls over a few thousand small objects (benchmark
// code, never the simulator's) slows in step with the simulator, so the
// end-to-end host times are reported scaled to the probe's reference time:
// t * kProbeRefS / (median probe time of the run).
// ---------------------------------------------------------------------------

/// About the probe's median time on the machine the first baseline was
/// measured on (perfbench/README.md). Only the ratio between two runs on
/// one machine carries meaning.
constexpr double kProbeRefS = 0.025;

struct ProbeObj {
  virtual ~ProbeObj() = default;
  virtual std::uint64_t step(std::uint64_t v) = 0;
};

template <int N>
struct ProbeImpl final : ProbeObj {
  std::uint64_t s = N;
  std::uint64_t step(std::uint64_t v) override {
    s = s * 31 + v + N;
    return s >> (N % 7);
  }
};

class SpeedProbe {
 public:
  SpeedProbe() {
    for (int i = 0; i < kObjects; ++i) objs_.push_back(make(i % 8, std::make_integer_sequence<int, 8>{}));
  }

  /// Seconds for one fixed round of calls in a pseudo-random order.
  double time_round() {
    const double t0 = since_epoch();
    std::uint64_t x = 7, acc = 0;
    for (int i = 0; i < kCalls; ++i) {
      x ^= x << 13U;
      x ^= x >> 7U;
      x ^= x << 17U;
      acc += objs_[x % kObjects]->step(acc);
    }
    sink_ = acc;
    return since_epoch() - t0;
  }

 private:
  static constexpr int kObjects = 4096;
  static constexpr int kCalls = 1000000;

  template <int... N>
  static std::unique_ptr<ProbeObj> make(int k, std::integer_sequence<int, N...>) {
    std::unique_ptr<ProbeObj> p;
    ((k == N ? (p = std::make_unique<ProbeImpl<N>>(), 0) : 0), ...);
    return p;
  }

  std::vector<std::unique_ptr<ProbeObj>> objs_;
  volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// The paper runs.
// ---------------------------------------------------------------------------

enum class Bench { kMetBench, kMetBenchVar, kBtMz, kSiesta };

/// One paper run: a table row set (table 3..6) or a figure panel (figure 3..6,
/// traced and rendered).
struct RunSpec {
  Bench bench;
  SchedMode mode;
  int table = 0;   ///< 3..6, or 0 for a figure run
  int figure = 0;  ///< 3..6, or 0 for a table run
};

// Experiment parameters as the table and figure drivers set them.
analysis::MetBenchExperiment metbench_exp(bool fig) {
  auto e = analysis::MetBenchExperiment::paper();
  if (fig) e.workload.iterations = 12;
  return e;
}
analysis::MetBenchVarExperiment metbenchvar_exp() {
  return analysis::MetBenchVarExperiment::paper();
}
analysis::BtMzExperiment btmz_exp(bool fig) {
  auto e = analysis::BtMzExperiment::paper();
  if (fig) e.workload.iterations = 60;
  return e;
}
analysis::SiestaExperiment siesta_exp(bool fig) {
  auto e = analysis::SiestaExperiment::paper();
  if (fig) {
    e.workload.microiters = 8000;
    e.workload.mark_every = 100;
  }
  return e;
}

const char* bench_name(Bench b) {
  switch (b) {
    case Bench::kMetBench: return "MetBench";
    case Bench::kMetBenchVar: return "MetBenchVar";
    case Bench::kBtMz: return "BT-MZ";
    case Bench::kSiesta: return "SIESTA";
  }
  return "?";
}

std::string spec_label(const RunSpec& s) {
  return std::string(s.figure != 0 ? "Fig" : "Table") + std::to_string(s.figure != 0 ? s.figure : s.table) +
         " " + bench_name(s.bench) + " " + analysis::sched_mode_name(s.mode);
}

/// The public library path: what bench/table* and bench/fig* call.
RunResult reference_run(const RunSpec& s, std::uint64_t seed) {
  const bool fig = s.figure != 0;
  switch (s.bench) {
    case Bench::kMetBench: return analysis::run_metbench(metbench_exp(fig), s.mode, fig, seed);
    case Bench::kMetBenchVar: return analysis::run_metbenchvar(metbenchvar_exp(), s.mode, fig, seed);
    case Bench::kBtMz: return analysis::run_btmz(btmz_exp(fig), s.mode, fig, seed);
    case Bench::kSiesta: return analysis::run_siesta(siesta_exp(fig), s.mode, fig, seed);
  }
  std::abort();
}

/// The same run split into set-up (config + workload factory) and the
/// run_experiment call, so the factories stay out of the timed loop. The
/// reference pass checks that this split reproduces reference_run().
struct Prepared {
  analysis::ExperimentConfig cfg;
  wl::ProgramSet programs;
};

Prepared prepare(const RunSpec& s, std::uint64_t seed, const obs::ObsConfig& obs, double& build_s) {
  const bool fig = s.figure != 0;
  Prepared p;
  p.cfg = analysis::paper_defaults(s.mode, seed, fig, obs);
  const double t0 = since_epoch();
  switch (s.bench) {
    case Bench::kMetBench: {
      const auto e = metbench_exp(fig);
      if (s.mode == SchedMode::kStatic) p.cfg.static_prios = e.static_prios;
      p.programs = wl::make_metbench(e.workload);
      break;
    }
    case Bench::kMetBenchVar: {
      const auto e = metbenchvar_exp();
      if (s.mode == SchedMode::kStatic) p.cfg.static_prios = e.static_prios;
      p.programs = wl::make_metbenchvar(e.workload);
      break;
    }
    case Bench::kBtMz: {
      const auto e = btmz_exp(fig);
      p.cfg.placement = {0, 2, 3, 1};
      if (s.mode == SchedMode::kStatic) p.cfg.static_prios = e.static_prios;
      p.programs = wl::make_btmz(e.workload);
      break;
    }
    case Bench::kSiesta: p.programs = wl::make_siesta(siesta_exp(fig).workload); break;
  }
  build_s += since_epoch() - t0;
  return p;
}

analysis::PaperReference paper_ref(const RunSpec& s) {
  switch (s.bench) {
    case Bench::kMetBench: return analysis::paper_reference_metbench(s.mode);
    case Bench::kMetBenchVar: return analysis::paper_reference_metbenchvar(s.mode);
    case Bench::kBtMz: return analysis::paper_reference_btmz(s.mode);
    case Bench::kSiesta: return analysis::paper_reference_siesta(s.mode);
  }
  std::abort();
}

const std::vector<SchedMode> kFourModes = {SchedMode::kBaselineCfs, SchedMode::kStatic,
                                           SchedMode::kUniform, SchedMode::kAdaptive};
const std::vector<SchedMode> kSiestaModes = {SchedMode::kBaselineCfs, SchedMode::kUniform,
                                             SchedMode::kAdaptive};

struct Workload {
  std::string name;
  std::vector<RunSpec> runs;
  unsigned jobs = 1;  ///< ParallelRunner width
};

bool make_workload(const std::string& name, Workload& w) {
  w.name = name;
  auto add = [&w](Bench b, const std::vector<SchedMode>& modes, int table, int figure) {
    for (SchedMode m : modes) w.runs.push_back({b, m, table, figure});
  };
  if (name == "siesta") {
    add(Bench::kSiesta, kSiestaModes, 6, 0);
  } else if (name == "metbenchvar") {
    add(Bench::kMetBenchVar, kFourModes, 4, 0);
  } else if (name == "paper_eval") {
    add(Bench::kMetBench, kFourModes, 3, 0);
    add(Bench::kMetBenchVar, kFourModes, 4, 0);
    add(Bench::kBtMz, kFourModes, 5, 0);
    add(Bench::kSiesta, kSiestaModes, 6, 0);
    add(Bench::kMetBench, kFourModes, 0, 3);
    add(Bench::kMetBenchVar, kFourModes, 0, 4);
    add(Bench::kBtMz, kFourModes, 0, 5);
    add(Bench::kSiesta, kSiestaModes, 0, 6);
    const unsigned hw = std::thread::hardware_concurrency();
    w.jobs = hw >= 1 ? hw : 1;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, and the RankProgram decorator.
// ---------------------------------------------------------------------------

struct Span {
  std::string layer;  ///< bench, exp, sim, trace, analysis
  std::string name;
  int parent = -1;    ///< index into the same span list
  double begin = 0.0;
  double end = 0.0;
  std::int64_t next_calls = 0;  ///< run_experiment spans: aggregated next()
  double next_s = 0.0;
};

struct NextStats {
  std::int64_t calls = 0;
  std::int64_t compute = 0;
  std::int64_t p2p = 0;
  std::int64_t collective = 0;
  double seconds = 0.0;  ///< raw, including one clock read per call
};

/// Times and classifies every next() of the wrapped program.
class TimedProgram final : public mpi::RankProgram {
 public:
  TimedProgram(std::unique_ptr<mpi::RankProgram> inner, NextStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  mpi::MpiOp next() override {
    const auto t0 = Clock::now();
    mpi::MpiOp op = inner_->next();
    stats_.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    ++stats_.calls;
    std::visit(
        [this](const auto& o) {
          using T = std::decay_t<decltype(o)>;
          if constexpr (std::is_same_v<T, mpi::OpCompute>) {
            ++stats_.compute;
          } else if constexpr (std::is_same_v<T, mpi::OpSend> || std::is_same_v<T, mpi::OpRecv> ||
                               std::is_same_v<T, mpi::OpIsend> || std::is_same_v<T, mpi::OpIrecv> ||
                               std::is_same_v<T, mpi::OpWaitAll>) {
            ++stats_.p2p;
          } else if constexpr (std::is_same_v<T, mpi::OpBarrier> ||
                               std::is_same_v<T, mpi::OpAllreduce> ||
                               std::is_same_v<T, mpi::OpBcast> || std::is_same_v<T, mpi::OpReduce>) {
            ++stats_.collective;
          }
        },
        op);
    return op;
  }

 private:
  std::unique_ptr<mpi::RankProgram> inner_;
  NextStats& stats_;
};

// ---------------------------------------------------------------------------
// Running one job (run + render) and one pass.
// ---------------------------------------------------------------------------

/// Obs counters read by name from the run's snapshot; a missing counter is
/// left out of the map (and so of the metric built from it).
using Counters = std::map<std::string, double>;

void read_counters(const obs::MetricsSnapshot& snap, Counters& into) {
  static const char* const kNames[] = {
      "sim.events_executed", "sim.eq_dispatched", "sim.eq_stale_dropped", "sim.eq_wheel_armed",
      "sim.eq_wheel_heap_fallbacks", "kern.ctx_switches", "kern.migrations", "kern.balance_pulls",
      "tp.sched_wake", "tp.hw_prio", "tp.ring_dropped", "hpc.iterations", "hpc.prio_changes",
      "hpc.resets", "hpc.imbalance_detections", "hpc.heuristic_decisions"};
  for (const char* n : kNames) {
    if (const obs::MetricValue* v = snap.find(n)) into[n] += static_cast<double>(v->count);
  }
  if (const obs::MetricValue* v = snap.find("kern.wakeup_latency_us")) {
    into["kern.wakeup_latency_us.sum"] += v->value;
    into["kern.wakeup_latency_us.count"] += static_cast<double>(v->count);
  }
}

struct JobOut {
  RunResult result;  ///< trace and recorder released after use
  std::uint64_t digest = 0;
  double begin = 0.0, end = 0.0;  ///< job span, since epoch
  double run_s = 0.0;
  double render_s = 0.0;
  std::int64_t intervals = 0;
  NextStats next;
  Counters counters;
  std::vector<Span> spans;  ///< [0] is the job span
  std::string error;
};

/// An output stream target that folds every byte into a digest instead of
/// keeping it: the in-memory stand-in for the figure drivers' output files.
class HashBuf final : public std::streambuf {
 public:
  explicit HashBuf(Fnv& f) : f_(f) { setp(buf_, buf_ + sizeof buf_); }

 protected:
  int_type overflow(int_type ch) override {
    sync();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      f_.bytes(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    f_.bytes(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    setp(buf_, buf_ + sizeof buf_);
    return 0;
  }

 private:
  Fnv& f_;
  char buf_[4096];
};

/// Render a figure run through the public trace writers and fold every
/// rendered byte into the digest.
void render_figure(const RunSpec& s, JobOut& out, bool keep_spans) {
  const RunResult& r = out.result;
  std::vector<Pid> pids;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < r.ranks.size(); ++i) {
    pids.push_back(r.ranks[i].pid);
    labels.push_back("P" + std::to_string(i + 1));
    out.intervals += static_cast<std::int64_t>(r.tracer->intervals(r.ranks[i].pid).size());
  }
  Fnv f;
  f.put(out.digest);
  HashBuf buf(f);
  std::ostream os(&buf);
  auto timed = [&](const char* name, const std::function<void()>& render) {
    const double t0 = since_epoch();
    render();
    os.flush();
    const double t1 = since_epoch();
    out.render_s += t1 - t0;
    if (keep_spans) out.spans.push_back({"trace", name, 0, t0, t1, 0, 0.0});
  };
  timed("trace::render_gantt", [&] {
    trace::GanttOptions opt;
    opt.width = s.figure == 4 ? 135 : 120;
    os << trace::render_gantt(*r.tracer, pids, labels, opt);
  });
  timed("trace::write_prv+pcf+row", [&] {
    trace::ParaverJob job;
    job.pids = pids;
    job.labels = labels;
    trace::write_prv(os, *r.tracer, job);
    trace::write_pcf(os);
    trace::write_row(os, job);
  });
  timed("trace::write_*_csv", [&] {
    trace::write_intervals_csv(os, *r.tracer, pids, labels);
    trace::write_iterations_csv(os, *r.tracer, pids, labels);
    trace::write_priorities_csv(os, *r.tracer, pids, labels);
  });
  out.digest = f.h;
}

/// Release the trace and recorder once their data has been read, so a pass
/// holds only the small per-run summaries.
void finish_job(const RunSpec& s, JobOut& out, bool keep_spans) {
  out.digest = run_digest(out.result);
  if (s.figure != 0 && out.result.tracer) render_figure(s, out, keep_spans);
  if (!out.result.metrics.empty()) read_counters(out.result.metrics, out.counters);
  out.result.tracer.reset();
  out.result.recorder.reset();
  out.result.chrome.reset();
  out.result.metrics = {};
}

JobOut run_job(const RunSpec& s, Prepared p, bool traced) {
  JobOut out;
  out.begin = since_epoch();
  if (traced) out.spans.push_back({"exp", "job " + spec_label(s), -1, out.begin, 0.0, 0, 0.0});
  try {
    if (traced) {
      for (auto& prog : p.programs) prog = std::make_unique<TimedProgram>(std::move(prog), out.next);
    }
    const double t0 = since_epoch();
    out.result = analysis::run_experiment(p.cfg, std::move(p.programs));
    const double t1 = since_epoch();
    out.run_s = t1 - t0;
    if (traced) {
      out.spans.push_back({"sim", "analysis::run_experiment", 0, t0, t1, out.next.calls,
                           out.next.seconds});
    }
    finish_job(s, out, traced);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.end = since_epoch();
  if (traced) out.spans[0].end = out.end;
  return out;
}

/// Per-pass outcome of the analysis post-processing.
struct Accuracy {
  double exec_err_pct = 0.0;
  double util_err_pp = 0.0;
  double gain_err_pp = 0.0;
  std::uint64_t text_digest = 0;  ///< rendered tables and derived series
};

/// The analysis layer's share of the evaluation: characterization tables,
/// improvements, imbalance and iteration series; plus the error against
/// the paper's tables.
Accuracy post_process(const Workload& w, const std::vector<JobOut>& outs) {
  Accuracy a;
  Fnv f;
  double exec_sum = 0.0, util_sum = 0.0, gain_sum = 0.0;
  int exec_n = 0, util_n = 0, gain_n = 0;
  for (int table = 3; table <= 6; ++table) {
    std::vector<analysis::TableSection> sections;
    const RunResult* base = nullptr;
    double base_ref = 0.0;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
      const RunSpec& s = w.runs[i];
      if (s.table != table) continue;
      const RunResult& r = outs[i].result;
      const analysis::PaperReference ref = paper_ref(s);
      sections.push_back({ref.label, &r, {}});
      exec_sum += 100.0 * std::fabs(r.exec_time.sec() - ref.exec_time_s) / ref.exec_time_s;
      ++exec_n;
      for (std::size_t k = 0; k < r.ranks.size() && k < ref.util_pct.size(); ++k) {
        util_sum += std::fabs(r.ranks[k].util_pct - ref.util_pct[k]);
        ++util_n;
      }
      if (s.mode == SchedMode::kBaselineCfs) {
        base = &r;
        base_ref = ref.exec_time_s;
      } else if (base != nullptr) {
        const double paper_gain = 100.0 * (1.0 - ref.exec_time_s / base_ref);
        gain_sum += std::fabs(analysis::improvement_pct(*base, r) - paper_gain);
        ++gain_n;
      }
      f.put(analysis::mean_imbalance(r));
    }
    if (!sections.empty()) {
      f.str(analysis::render_characterization_table("Table " + std::to_string(table), sections));
    }
  }
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    if (w.runs[i].figure == 0) continue;
    for (const auto& marks : outs[i].result.marks) {
      const analysis::IterationSeries ser = analysis::derive_series(marks);
      for (double u : ser.util_pct) f.put(u);
    }
  }
  a.exec_err_pct = exec_n > 0 ? exec_sum / exec_n : 0.0;
  a.util_err_pp = util_n > 0 ? util_sum / util_n : 0.0;
  a.gain_err_pp = gain_n > 0 ? gain_sum / gain_n : 0.0;
  a.text_digest = f.h;
  return a;
}

struct PassOut {
  std::vector<JobOut> jobs;
  Accuracy acc;
  double setup_s = 0.0;
  double build_s = 0.0;
  double wall_s = 0.0;
  double post_s = 0.0;
  exp::EngineStats engine;
  std::vector<Span> spans;  ///< traced passes: pass, jobs, layer calls
};

PassOut run_pass(const Workload& w, std::uint64_t seed, bool traced) {
  PassOut p;
  obs::ObsConfig obs;
  obs.enabled = traced;
  // A set-up takes microseconds, so one sample is mostly noise: build it
  // several times back to back, keep the last build and the median times.
  constexpr int kSetupRepeats = 9;
  std::vector<double> setup_s, build_s;
  std::vector<Prepared> prepared;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    prepared.clear();
    double build = 0.0;
    const double s0 = since_epoch();
    prepared.reserve(w.runs.size());
    for (const RunSpec& s : w.runs) prepared.push_back(prepare(s, seed, obs, build));
    setup_s.push_back(since_epoch() - s0);
    build_s.push_back(build);
  }
  p.setup_s = median(setup_s);
  p.build_s = median(build_s);

  exp::ParallelRunner runner(w.jobs);
  const double t0 = since_epoch();
  p.jobs = runner.map(w.runs.size(), [&](std::size_t i) {
    return run_job(w.runs[i], std::move(prepared[i]), traced);
  });
  p.engine = runner.last_stats();
  const double t1 = since_epoch();
  p.acc = post_process(w, p.jobs);
  const double t2 = since_epoch();
  p.post_s = t2 - t1;
  p.wall_s = t2 - t0;

  if (traced) {
    p.spans.push_back({"bench", "pass", -1, t0, t2, 0, 0.0});
    for (JobOut& j : p.jobs) {
      const int base = static_cast<int>(p.spans.size());
      for (Span sp : j.spans) {
        sp.parent = sp.parent < 0 ? 0 : sp.parent + base;
        p.spans.push_back(std::move(sp));
      }
      j.spans.clear();
    }
    p.spans.push_back({"analysis", "post_process", 0, t1, t2, 0, 0.0});
  }
  return p;
}

/// The serial reference pass through analysis::run_* (digests only).
std::vector<std::uint64_t> reference_digests(const Workload& w, std::uint64_t seed) {
  std::vector<std::uint64_t> d;
  for (const RunSpec& s : w.runs) {
    JobOut out;
    out.result = reference_run(s, seed);
    finish_job(s, out, false);
    d.push_back(out.digest);
  }
  return d;
}

/// Failed runs of a pass against the reference digests (error or mismatch).
int check_pass(const PassOut& p, const std::vector<std::uint64_t>& ref, std::string& why) {
  int failed = 0;
  for (std::size_t i = 0; i < p.jobs.size(); ++i) {
    const JobOut& j = p.jobs[i];
    const RunResult& r = j.result;
    bool ok = j.error.empty() && j.digest == ref[i] && r.exec_time.ns() > 0;
    for (const analysis::TaskResult& t : r.ranks) ok = ok && t.util_pct >= 0.0 && t.util_pct <= 100.0;
    if (!ok) {
      ++failed;
      if (why.empty()) why = "run " + std::to_string(i) + (j.error.empty() ? ": digest mismatch" : ": " + j.error);
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
};

std::string num(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricDef* d = find_def(metrics[i].name);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": \"" + d->unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Self time per layer: span minus the union of its children (and, for
/// run_experiment, minus the aggregated next() time, which is the workloads
/// layer).
std::map<std::string, double> layer_self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].push_back({s.begin, s.end});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_b = 0.0, cur_e = -1.0;
    for (auto [b, e] : iv) {
      b = std::max(b, spans[i].begin);
      e = std::min(e, spans[i].end);
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[spans[i].layer] += spans[i].end - spans[i].begin - covered - spans[i].next_s;
    if (spans[i].next_calls > 0) self["workloads"] += spans[i].next_s;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  os << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "  {\"id\": " << i << ", \"parent\": " << s.parent << ", \"layer\": \"" << s.layer
       << "\", \"name\": \"" << s.name << "\", \"begin_s\": " << num(s.begin)
       << ", \"dur_s\": " << num(s.end - s.begin);
    if (s.next_calls > 0) os << ", \"next_calls\": " << s.next_calls << ", \"next_s\": " << num(s.next_s);
    os << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

// ---------------------------------------------------------------------------
// Benchmark modes.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

using PassStat = std::function<double(const PassOut&)>;

double median_over(const std::vector<PassOut>& passes, const PassStat& f) {
  std::vector<double> v;
  for (const PassOut& p : passes) v.push_back(f(p));
  return median(v);
}

double sum_jobs(const PassOut& p, const std::function<double(const JobOut&)>& f) {
  double s = 0.0;
  for (const JobOut& j : p.jobs) s += f(j);
  return s;
}

double ratio(double num_v, double den) { return den > 0.0 ? num_v / den : 0.0; }

std::vector<Metric> end_to_end_metrics(const std::vector<PassOut>& plain, double probe_s) {
  const Accuracy& acc = plain[0].acc;
  const double wall = median_over(plain, [](const PassOut& p) { return p.wall_s; });
  const double setup = median_over(plain, [](const PassOut& p) { return p.setup_s; });
  const double scale = kProbeRefS / probe_s;
  std::vector<Metric> out = {
      {"wall_s", wall * scale},
      {"setup_s", setup * scale},
      {"peak_rss_mb", peak_rss_mb()},
      {"exec_err_pct", acc.exec_err_pct},
      {"util_err_pp", acc.util_err_pp},
      {"gain_err_pp", acc.gain_err_pp},
  };
  const std::string n = "n=" + std::to_string(plain.size()) + " passes";
  for (const Metric& m : out) {
    const MetricDef* d = find_def(m.name);
    const std::string extra = m.name == "peak_rss_mb"                     ? "n=1 process"
                              : m.name.find("_err_") != std::string::npos ? "deterministic, " + n
                                                                          : "speed-scaled, " + n;
    std::printf("metric %-16s %14.6g %-5s better=%s (%s)\n", m.name.c_str(), m.value, d->unit,
                d->better, extra.c_str());
  }
  std::printf("info   host times above are scaled by %.4f: probe median %.5f s, reference "
              "%.3f s; unscaled wall_s %.6g s, setup_s %.6g s\n",
              scale, probe_s, kProbeRefS, wall, setup);
  std::vector<double> walls;
  std::printf("samples wall_s (unscaled):");
  for (const PassOut& p : plain) {
    walls.push_back(p.wall_s);
    std::printf(" %.4f", p.wall_s);
  }
  std::printf("\n");
  // Not in the JSON result: a run of the benchmark's length makes too few
  // passes for a percentile above the median to have ten passes beyond it.
  double tv = 0.0, tp = 0.0;
  if (tail(walls, tv, tp)) {
    std::printf("info   %-16s %14.6g s     better=lower (unscaled, p%.1f of %s)\n", "wall_s.tail", tv, tp,
                n.c_str());
  } else {
    std::printf("info   wall_s.tail dropped: %s, at least 11 are needed\n", n.c_str());
  }
  return out;
}

std::vector<Metric> layer_metrics(const Workload& w, const std::vector<PassOut>& plain,
                                  const std::vector<PassOut>& traced, double clock_s) {
  // Counts are deterministic (checked equal on every traced pass): take the
  // first traced pass. Times are medians over the traced passes.
  const PassOut& t0 = traced[0];
  Counters c;
  for (const JobOut& j : t0.jobs) {
    for (const auto& [k, v] : j.counters) c[k] += v;
  }
  auto count = [&t0](const std::function<double(const JobOut&)>& f) { return sum_jobs(t0, f); };
  auto med = [&traced](const PassStat& f) { return median_over(traced, f); };
  const double wall = median_over(plain, [](const PassOut& p) { return p.wall_s; });

  std::vector<Metric> out;
  // A metric built from obs counters is absent when any of them is.
  auto from = [&c, &out](const char* name, std::initializer_list<const char*> keys,
                         const std::function<double(const std::vector<double>&)>& f) {
    std::vector<double> v;
    for (const char* k : keys) {
      const auto it = c.find(k);
      if (it == c.end()) return;
      v.push_back(it->second);
    }
    out.push_back({name, f(v)});
  };
  auto first = [](const std::vector<double>& v) { return v[0]; };
  auto quotient = [](const std::vector<double>& v) { return ratio(v[0], v[1]); };
  from("simcore.events", {"sim.events_executed"}, first);
  from("simcore.ns_per_event", {"sim.events_executed"},
       [wall](const std::vector<double>& v) { return ratio(wall * 1e9, v[0]); });
  from("simcore.heap_fallback_ratio", {"sim.eq_wheel_heap_fallbacks", "sim.eq_wheel_armed"},
       [](const std::vector<double>& v) { return ratio(v[0], v[0] + v[1]); });
  from("simcore.stale_ratio", {"sim.eq_stale_dropped", "sim.eq_dispatched"}, quotient);
  from("kernel.ctx_switches", {"kern.ctx_switches"}, first);
  from("kernel.wakeups", {"tp.sched_wake"}, first);
  from("kernel.balance_pulls", {"kern.balance_pulls"}, first);
  from("kernel.migrations", {"kern.migrations"}, first);
  from("kernel.wakeup_latency_us", {"kern.wakeup_latency_us.sum", "kern.wakeup_latency_us.count"},
       quotient);
  from("hpcsched.iterations", {"hpc.iterations"}, first);
  from("hpcsched.decisions", {"hpc.heuristic_decisions"}, first);
  from("hpcsched.prio_changes", {"hpc.prio_changes"}, first);
  from("hpcsched.imbalance_detections", {"hpc.imbalance_detections"}, first);
  from("hpcsched.reset_ratio", {"hpc.resets", "hpc.iterations"}, quotient);
  from("power5.hw_prio_writes", {"tp.hw_prio"}, first);
  out.push_back({"simmpi.messages", count([](const JobOut& j) {
                   return static_cast<double>(j.result.messages);
                 })});
  out.push_back({"simmpi.ops.compute",
                 count([](const JobOut& j) { return static_cast<double>(j.next.compute); })});
  out.push_back({"simmpi.ops.p2p",
                 count([](const JobOut& j) { return static_cast<double>(j.next.p2p); })});
  out.push_back({"simmpi.ops.collective",
                 count([](const JobOut& j) { return static_cast<double>(j.next.collective); })});
  out.push_back({"workloads.next_calls",
                 count([](const JobOut& j) { return static_cast<double>(j.next.calls); })});
  out.push_back({"workloads.next_s", med([clock_s](const PassOut& p) {
                   return sum_jobs(p, [clock_s](const JobOut& j) {
                     return j.next.seconds - static_cast<double>(j.next.calls) * clock_s;
                   });
                 })});
  out.push_back({"workloads.build_s", med([](const PassOut& p) { return p.build_s; })});

  auto busy = [](const PassOut& p) {
    return sum_jobs(p, [](const JobOut& j) { return j.end - j.begin; });
  };
  auto workers = [](const PassOut& p) { return static_cast<double>(std::max(1U, p.engine.workers)); };
  out.push_back({"exp.workers", workers(t0)});
  out.push_back({"exp.busy_s", med(busy)});
  out.push_back({"exp.utilization", med([&](const PassOut& p) {
                   return ratio(busy(p), workers(p) * p.engine.wall_ms * 1e-3);
                 })});
  out.push_back({"exp.critical_path_s", med([](const PassOut& p) {
                   double m = 0.0;
                   for (const JobOut& j : p.jobs) m = std::max(m, j.end - j.begin);
                   return m;
                 })});
  out.push_back({"exp.queue_wait_s", med([](const PassOut& p) {
                   double start = p.jobs[0].begin;
                   for (const JobOut& j : p.jobs) start = std::min(start, j.begin);
                   return sum_jobs(p, [start](const JobOut& j) { return j.begin - start; });
                 })});
  out.push_back({"exp.max_queue_depth", static_cast<double>(t0.engine.max_queue_depth)});

  out.push_back({"trace.render_s", med([](const PassOut& p) {
                   return sum_jobs(p, [](const JobOut& j) { return j.render_s; });
                 })});
  out.push_back({"trace.intervals",
                 count([](const JobOut& j) { return static_cast<double>(j.intervals); })});
  from("obs.ring_dropped", {"tp.ring_dropped"}, first);
  out.push_back({"obs.overhead_ratio", ratio(med([](const PassOut& p) { return p.wall_s; }), wall)});
  out.push_back({"analysis.post_s", med([](const PassOut& p) { return p.post_s; })});
  for (SchedMode m : kFourModes) {
    out.push_back({std::string("run_s.") + analysis::sched_mode_name(m), med([&w, m](const PassOut& p) {
                     double s = 0.0;
                     for (std::size_t i = 0; i < p.jobs.size(); ++i) {
                       if (w.runs[i].mode == m) s += p.jobs[i].run_s;
                     }
                     return s;
                   })});
  }

  for (const MetricDef& d : kPerLayer) {
    const auto it =
        std::find_if(out.begin(), out.end(), [&d](const Metric& m) { return m.name == d.name; });
    if (it == out.end()) {
      std::printf("layer  %-30s absent (counter not exported)\n", d.name);
    } else {
      std::printf("layer  %-30s %14.6g %-5s better=%s n=%zu traced passes; moves %s\n", d.name,
                  it->value, d.unit, d.better, traced.size(), d.target);
    }
  }
  return out;
}

int run_benchmark(const Args& a) {
  Workload w;
  if (!make_workload(a.workload, w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const double clock_s = clock_read_s();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d hardware_concurrency=%u "
              "build_type=%s clock_read_ns=%.2f runs_per_pass=%zu workers=%u\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, clock_s * 1e9,
              w.runs.size(), w.jobs);

  // Set-up: the serial reference pass through the public analysis::run_*
  // path. It also warms the allocator and caches before timing.
  const std::vector<std::uint64_t> ref = reference_digests(w, a.seed);
  std::int64_t attempted = static_cast<std::int64_t>(ref.size());
  std::int64_t failed = 0;
  std::string why;

  SpeedProbe probe;
  std::vector<double> probes = {probe.time_round()};
  std::vector<PassOut> plain, traced;
  const double deadline = since_epoch() + a.seconds;
  do {
    plain.push_back(run_pass(w, a.seed, false));
    probes.push_back(probe.time_round());
    if (a.trace) traced.push_back(run_pass(w, a.seed, true));
  } while (since_epoch() < deadline);
  for (const auto* set : {&plain, &traced}) {
    for (const PassOut& p : *set) {
      attempted += static_cast<std::int64_t>(p.jobs.size());
      failed += check_pass(p, ref, why);
    }
  }
  // Deterministic metrics and counts must repeat on every pass.
  bool same = true;
  for (const auto* set : {&plain, &traced}) {
    for (const PassOut& p : *set) {
      same = same && p.acc.text_digest == plain[0].acc.text_digest &&
             p.acc.exec_err_pct == plain[0].acc.exec_err_pct;
    }
  }
  for (const PassOut& p : traced) {
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      same = same && p.jobs[i].counters == traced[0].jobs[i].counters &&
             p.jobs[i].next.calls == traced[0].jobs[i].next.calls;
    }
  }
  if (!same && why.empty()) why = "analysis output or counts differ between passes";
  const bool correct = failed == 0 && same;

  std::vector<Metric> out;
  if (!a.trace) {
    out = end_to_end_metrics(plain, median(probes));
  } else {
    out = layer_metrics(w, plain, traced, clock_s);
    std::vector<Span> all;
    for (const PassOut& p : traced) {
      const int base = static_cast<int>(all.size());
      for (Span sp : p.spans) {
        if (sp.parent >= 0) sp.parent += base;
        all.push_back(std::move(sp));
      }
    }
    for (const auto& [layer, s] : layer_self_times(all)) {
      std::printf("self   %-10s %10.4f s over %zu traced passes\n", layer.c_str(), s, traced.size());
    }
    if (!a.spans_path.empty()) {
      write_spans(a.spans_path, all);
      std::printf("spans  %zu written to %s\n", all.size(), a.spans_path.c_str());
    }
  }
  std::printf("metric fail_ratio %g (failed %lld / attempted %lld runs)%s%s\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed), static_cast<long long>(attempted),
              why.empty() ? "" : "; first failure: ", why.c_str());
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-tests of the benchmark's own checks.
// ---------------------------------------------------------------------------

int self_test() {
  int bad = 0;
  auto expect = [&bad](bool ok, const char* what) {
    std::printf("self-test %-58s %s\n", what, ok ? "ok" : "FAIL");
    if (!ok) ++bad;
  };
  Workload w;
  make_workload("metbenchvar", w);
  const std::vector<std::uint64_t> ref = reference_digests(w, 1);
  const PassOut a = run_pass(w, 1, false);
  const PassOut b = run_pass(w, 1, true);
  const PassOut c = run_pass(w, 1, true);
  std::string why;
  expect(check_pass(a, ref, why) == 0 && check_pass(b, ref, why) == 0,
         "same seed: same digest, untraced and traced");
  bool counts_same = true;
  for (std::size_t i = 0; i < b.jobs.size(); ++i) {
    counts_same = counts_same && b.jobs[i].counters == c.jobs[i].counters &&
                  b.jobs[i].next.calls == c.jobs[i].next.calls;
  }
  expect(a.acc.exec_err_pct == b.acc.exec_err_pct && a.acc.util_err_pp == b.acc.util_err_pp &&
             a.acc.gain_err_pp == b.acc.gain_err_pp && a.acc.text_digest == b.acc.text_digest &&
             counts_same && !b.jobs[0].counters.empty(),
         "same seed: same deterministic metrics and counts");
  const std::vector<std::uint64_t> ref2 = reference_digests(w, 2);
  expect(ref2 != ref, "different seed: different digest");

  PassOut corrupt;
  for (const JobOut& j : a.jobs) {
    JobOut k;
    k.result.exec_time = j.result.exec_time;
    k.result.ranks = j.result.ranks;
    k.result.context_switches = j.result.context_switches;
    k.result.messages = j.result.messages;
    k.result.hw_prio_changes = j.result.hw_prio_changes;
    corrupt.jobs.push_back(std::move(k));
  }
  corrupt.jobs[1].result.ranks[2].util_pct += 1e-9;
  for (std::size_t i = 0; i < corrupt.jobs.size(); ++i) {
    corrupt.jobs[i].digest = run_digest(corrupt.jobs[i].result);
  }
  why.clear();
  expect(check_pass(corrupt, ref, why) == 1, "corrupted result: caught by the digest check");

  bool names_ok = true;
  for (const MetricDef& d : kEndToEnd) names_ok = names_ok && valid_metric_name(d.name);
  for (const MetricDef& d : kPerLayer) names_ok = names_ok && valid_metric_name(d.name);
  expect(names_ok && !valid_metric_name("run_s.Baseline|Static") && !valid_metric_name(""),
         "metric names match [A-Za-z0-9_.-]+");
  return bad == 0 ? 0 : 1;
}

int list_metrics() {
  auto dump = [](const char* key, const MetricDef* defs, std::size_t n) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}", i ? ", " : "",
                  defs[i].name, defs[i].unit, defs[i].better);
    }
    std::printf("]");
  };
  std::printf("{");
  dump("end_to_end", kEndToEnd, std::size(kEndToEnd));
  std::printf(", ");
  dump("per_layer", kPerLayer, std::size(kPerLayer));
  std::printf("}\n");
  return 0;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return self_test();
  if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) return list_metrics();
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload siesta|metbenchvar|paper_eval --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n"
                 "       perfbench --self-test | --list-metrics\n");
    return 2;
  }
  return run_benchmark(a);
}
