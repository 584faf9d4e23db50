#pragma once
// Shared helpers for the bench drivers: one command-line parse for every
// driver (Options), fanning the per-mode runs across the parallel experiment
// engine (results are committed in mode order, so output is bit-identical to
// the serial drivers), and the table layout that prints each experiment next
// to the paper's own numbers.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/paper_experiments.h"
#include "analysis/tables.h"
#include "bench_json.h"
#include "common/log.h"
#include "exp/parallel_runner.h"
#include "obs/chrome_trace.h"
#include "obs/manifest.h"
#include "obs/ring_dump.h"

namespace hpcs::bench {

/// Observability knobs: off by default so the golden numbers are
/// unaffected; switched on by the --obs* flags / HPCS_OBS* variables listed
/// under Options below.
struct ObsOptions {
  obs::ObsConfig cfg;
  std::string trace_path;
  std::string ring_dump_path;
};

/// Every flag a bench driver accepts, parsed once at the top of main() by
/// parse_options(). Environment variables apply first; flags override them.
///   --jobs N / --jobs=N / HPCS_JOBS=N
///                                 worker count of the parallel experiment
///                                 engine (exp::parse_jobs_flag). Results are
///                                 committed in submission order, so output
///                                 is byte-identical for every N. A malformed
///                                 value exits 2.
///   --log-level LEVEL / HPCS_LOG_LEVEL=LEVEL
///                                 runtime log threshold (debug, info, warn,
///                                 error, off or 0-4). An unknown level
///                                 exits 2.
///   --obs / HPCS_OBS=1            metrics registry + tracepoint rings,
///                                 MANIFEST_<name>.json (+ .host.json sidecar)
///   --obs-trace PATH / HPCS_OBS_TRACE=PATH
///                                 additionally capture a Chrome-trace /
///                                 Perfetto JSON view of every run into PATH
///                                 (implies --obs)
///   --obs-ring N / HPCS_OBS_RING=N
///                                 per-CPU tracepoint ring capacity in
///                                 entries; must be a power of two (the ring
///                                 wraps with a mask). Default 4096. An
///                                 invalid value exits 2 rather than silently
///                                 rounding — a bench that drops a different
///                                 number of trace entries than asked for is
///                                 not comparable.
///   --obs-trace-stream / HPCS_OBS_TRACE_STREAM=1
///                                 spool Chrome-trace records to disk during
///                                 capture instead of buffering them in
///                                 memory (same bytes out; for long runs)
///   --obs-ring-dump PATH / HPCS_OBS_RING_DUMP=PATH
///                                 dump every run's retained tracepoint ring
///                                 entries raw (32 bytes each, little-endian,
///                                 versioned header) into PATH for post-mortem
///                                 tooling — scripts/obs_ring_decode.py reads
///                                 it back (implies --obs)
///   --obs-window NS / HPCS_OBS_WINDOW=NS
///                                 sample every registered metric on sim-time
///                                 window boundaries of NS nanoseconds into
///                                 the manifest's per-window series (schema
///                                 hpcs-obs-manifest-v2; implies --obs). The
///                                 series is byte-identical serial vs --jobs N,
///                                 so scripts/manifest_diff.py can flag
///                                 mid-run anomalies that identical totals
///                                 hide. An invalid value exits 2.
/// Any other argument exits 2: a leftover or misspelt flag must fail loudly,
/// not run a different experiment than the one asked for.
struct Options {
  unsigned jobs = 1;
  ObsOptions obs;
};

/// Parse argv and the environment into Options. The ablation drivers take
/// only --jobs (`jobs_only`): every other flag is then unknown, and
/// HPCS_LOG_LEVEL / HPCS_OBS* are not read.
inline Options parse_options(int argc, char** argv, bool jobs_only = false) {
  Options o;
  ObsOptions& ob = o.obs;
  auto fail = [](const char* origin, const std::string& error) {
    std::fprintf(stderr, "error: %s: %s\n", origin, error.c_str());
    std::exit(2);
  };
  auto set_ring = [&](const char* text, const char* origin) {
    std::string error;
    if (!obs::parse_ring_capacity(text, ob.cfg.ring_capacity, error)) fail(origin, error);
  };
  auto set_window = [&](const char* text, const char* origin) {
    std::string error;
    if (!obs::parse_window_ns(text, ob.cfg.window_ns, error)) fail(origin, error);
  };
  auto set_level = [&](const char* text, const char* origin) {
    LogLevel lvl;
    if (!parse_log_level(text, lvl)) fail(origin, std::string("unknown log level '") + text + "'");
    set_log_level(lvl);
  };
  auto env = [](const char* name) -> const char* {
    const char* v = std::getenv(name);
    return v != nullptr && v[0] != '\0' ? v : nullptr;
  };
  auto env_on = [&](const char* name) {
    const char* v = env(name);
    return v != nullptr && std::strcmp(v, "0") != 0;
  };

  if (!jobs_only) {
    if (const char* v = env("HPCS_LOG_LEVEL")) set_level(v, "HPCS_LOG_LEVEL");
    ob.cfg.enabled = env_on("HPCS_OBS");
    ob.cfg.chrome_stream = env_on("HPCS_OBS_TRACE_STREAM");
    if (const char* v = env("HPCS_OBS_TRACE")) ob.trace_path = v;
    if (const char* v = env("HPCS_OBS_RING")) set_ring(v, "HPCS_OBS_RING");
    if (const char* v = env("HPCS_OBS_RING_DUMP")) ob.ring_dump_path = v;
    if (const char* v = env("HPCS_OBS_WINDOW")) set_window(v, "HPCS_OBS_WINDOW");
  }

  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const std::size_t eq = a.find('=');
    const std::string_view name = a.substr(0, eq);
    // The value of `--name VALUE` / `--name=VALUE`; a missing one exits 2.
    auto value = [&]() -> const char* {
      if (eq != std::string_view::npos) return argv[i] + eq + 1;
      if (i + 1 >= argc) fail(argv[i], "missing value");
      return argv[++i];
    };
    if (name == "--jobs") {
      (void)value();  // checked by exp::parse_jobs_flag below
    } else if (jobs_only) {
      fail(argv[i], "unknown option");
    } else if (name == "--log-level") {
      set_level(value(), "--log-level");
    } else if (a == "--obs") {
      ob.cfg.enabled = true;
    } else if (a == "--obs-trace-stream") {
      ob.cfg.chrome_stream = true;
    } else if (name == "--obs-trace") {
      ob.trace_path = value();
    } else if (name == "--obs-ring-dump") {
      ob.ring_dump_path = value();
    } else if (name == "--obs-ring") {
      set_ring(value(), "--obs-ring");
    } else if (name == "--obs-window") {
      set_window(value(), "--obs-window");
    } else {
      fail(argv[i], "unknown option");
    }
  }
  o.jobs = exp::parse_jobs_flag(argc, argv);
  if (!ob.trace_path.empty()) {
    ob.cfg.enabled = true;
    ob.cfg.chrome_trace = true;
  }
  if (!ob.ring_dump_path.empty()) ob.cfg.enabled = true;
  if (ob.cfg.window_ns > 0) ob.cfg.enabled = true;
  return o;
}

/// Run one experiment per mode through the parallel engine; results come
/// back in mode order regardless of worker interleaving. `host_stats`, when
/// given, receives the engine's host-side stats for the .host.json sidecar.
template <typename RunFn>
std::vector<analysis::RunResult> run_modes(unsigned jobs,
                                           const std::vector<analysis::SchedMode>& modes,
                                           RunFn run,
                                           exp::EngineStats* host_stats = nullptr) {
  exp::ParallelRunner runner(jobs);
  auto results = runner.map(modes.size(), [&](std::size_t i) { return run(modes[i]); });
  if (host_stats != nullptr) *host_stats = runner.last_stats();
  return results;
}

/// MANIFEST_<name>.json: the deterministic per-run metrics manifest (one
/// entry per mode, fixed metric order — see docs/observability.md). A sweep
/// run with --jobs N produces a byte-identical file to the serial run.
inline void write_metrics_manifest(const char* name,
                                   const std::vector<analysis::SchedMode>& modes,
                                   const std::vector<analysis::RunResult>& results) {
  std::vector<obs::ManifestRun> runs;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    runs.push_back({analysis::sched_mode_name(modes[i]), results[i].metrics});
  }
  obs::write_manifest_json(std::string("MANIFEST_") + name + ".json", name, runs);
}

/// MANIFEST_<name>.host.json: host-side sidecar (pool stats + wall time).
/// Deliberately a separate file — it is the one place wall-clock appears, so
/// the main manifest stays byte-comparable across machines and job counts.
inline void write_host_sidecar(const char* name, unsigned jobs,
                               const exp::EngineStats& s) {
  JsonObject root;
  root.field("schema", "hpcs-obs-host-v1").field("bench", name).field("jobs", jobs);
  JsonObject engine;
  engine.field("tasks", s.tasks)
      .field("workers", s.workers)
      .field("jobs_submitted", s.jobs_submitted)
      .field("jobs_executed", s.jobs_executed)
      .field("max_queue_depth", s.max_queue_depth)
      .array("per_worker_executed", s.per_worker_executed)
      .field("wall_ms", s.wall_ms);
  root.object("engine", engine);
  write_json_file(std::string("MANIFEST_") + name + ".host.json", root);
}

/// Tracing data is not dropped in silence: one stderr line for a run whose
/// per-CPU tracepoint rings wrapped, naming the driver, the run and the
/// number of entries lost. stderr only, so stdout and the manifest (whose
/// tp.ring_dropped counter holds the same count) keep their bytes.
inline void warn_ring_drops(const std::string& name, const std::string& run,
                            const analysis::RunResult& r, std::size_t ring_capacity) {
  const std::uint64_t dropped = r.recorder ? r.recorder->total_dropped() : 0;
  if (dropped == 0) return;
  std::fprintf(stderr,
               "warning: %s %s: tracepoint rings dropped %llu entries (capacity %zu per "
               "CPU); raise --obs-ring to keep them\n",
               name.c_str(), run.c_str(), static_cast<unsigned long long>(dropped),
               ring_capacity);
}

/// One-call obs epilogue for a table/ablation driver: ring-drop warnings,
/// manifest + host sidecar (+ Chrome trace when --obs-trace was given).
/// No-op with obs off.
inline void write_obs_outputs(const char* name, const ObsOptions& o, unsigned jobs,
                              const std::vector<analysis::SchedMode>& modes,
                              const std::vector<analysis::RunResult>& results,
                              const exp::EngineStats* host_stats = nullptr) {
  if (!o.cfg.enabled) return;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    warn_ring_drops(name, analysis::sched_mode_name(modes[i]), results[i], o.cfg.ring_capacity);
  }
  write_metrics_manifest(name, modes, results);
  if (host_stats != nullptr) write_host_sidecar(name, jobs, *host_stats);
  if (!o.trace_path.empty()) {
    std::vector<obs::ChromeTraceRun> runs;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      if (results[i].chrome) {
        runs.push_back({analysis::sched_mode_name(modes[i]), results[i].chrome.get(),
                        &results[i].metrics});
      }
    }
    if (obs::write_chrome_trace(o.trace_path, runs)) {
      std::printf("wrote Chrome trace: %s (open in ui.perfetto.dev)\n", o.trace_path.c_str());
    }
  }
  if (!o.ring_dump_path.empty()) {
    std::vector<obs::RingDumpRun> runs;
    for (std::size_t i = 0; i < modes.size(); ++i) {
      runs.push_back({analysis::sched_mode_name(modes[i]), results[i].recorder.get()});
    }
    std::string error;
    if (obs::write_ring_dump(o.ring_dump_path, runs, error)) {
      std::printf("wrote ring dump: %s (decode with scripts/obs_ring_decode.py)\n",
                  o.ring_dump_path.c_str());
    } else {
      std::fprintf(stderr, "error: --obs-ring-dump: %s\n", error.c_str());
      std::exit(1);
    }
  }
}

/// BENCH_<name>.json for a table driver: one entry per mode with the
/// headline exec time and utilization spread.
inline void write_table_json(const char* name, unsigned jobs,
                             const std::vector<analysis::SchedMode>& modes,
                             const std::vector<analysis::RunResult>& results) {
  JsonObject root;
  root.field("bench", name).field("jobs", jobs);
  std::vector<JsonObject> entries;
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const analysis::RunResult& r = results[i];
    JsonObject e;
    e.field("mode", analysis::sched_mode_name(modes[i]))
        .field("exec_s", r.exec_time.sec())
        .field("min_util_pct", r.min_util())
        .field("max_util_pct", r.max_util())
        .field("ctx_switches", r.context_switches)
        .field("hw_prio_changes", r.hw_prio_changes);
    if (i > 0) e.field("improvement_vs_first_pct", analysis::improvement_pct(results[0], r));
    entries.push_back(std::move(e));
  }
  root.array("modes", entries);
  write_json_file(std::string("BENCH_") + name + ".json", root);
}

inline void print_side_by_side(const analysis::RunResult& ours,
                               const analysis::PaperReference& paper) {
  std::printf("%-18s | %-28s | %-28s\n", paper.label, "measured (this repro)", "paper (POWER5)");
  for (std::size_t i = 0; i < ours.ranks.size(); ++i) {
    const double paper_util = i < paper.util_pct.size() ? paper.util_pct[i] : 0.0;
    std::printf("  P%-15zu | util %6.2f%%                | util %6.2f%%\n", i + 1,
                ours.ranks[i].util_pct, paper_util);
  }
  std::printf("  %-16s | %10.2fs                 | %10.2fs\n", "exec time",
              ours.exec_time.sec(), paper.exec_time_s);
}

inline void print_improvement_summary(const char* what, const analysis::RunResult& baseline,
                                      const analysis::RunResult& candidate,
                                      double paper_baseline_s, double paper_candidate_s) {
  const double ours = analysis::improvement_pct(baseline, candidate);
  const double paper =
      paper_baseline_s > 0 ? 100.0 * (1.0 - paper_candidate_s / paper_baseline_s) : 0.0;
  std::printf("%-26s improvement: measured %+6.2f%%   paper %+6.2f%%\n", what, ours, paper);
}

}  // namespace hpcs::bench
