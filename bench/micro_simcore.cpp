// Event-loop and parallel-engine micro benchmark. Measures:
//  1. events/sec on the event-queue hot patterns:
//       - recurring per-CPU ticks re-armed via the reschedule() fast path
//         (4 CPUs: the near-empty queue the paper runs produce)
//       - one-shot events with a 32-byte capture (simmpi send-style; these
//         exceed std::function's inline buffer — InplaceFunction keeps them
//         allocation-free)
//       - timeout churn: schedule a fat-capture guard, cancel before firing
//       - mixed periodic ticks + sparse far-future timeouts (a populated
//         queue: 48 ticks over 4k long timeouts)
//  2. wall-clock of an 8-point MetBench sweep run serially (--jobs 1) vs on
//     all hardware threads, plus a row-for-row equality check (the engine's
//     bit-identical contract).
// Emits BENCH_simcore.json. Flags: --jobs N (HPCS_JOBS) for the parallel
// leg; any other flag exits 2 (bench::parse_options).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analysis/paper_experiments.h"
#include "analysis/sweep.h"
#include "bench_common.h"
#include "simcore/simulator.h"

using namespace hpcs;

namespace {

double now_s() {
  // Bench timing harness: measuring the simulator from outside is the one
  // legitimate wall-clock read (simulation code itself must use SimTime).
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())  // HPCSLINT-ALLOW(wallclock)
      .count();
}

/// Recurring per-CPU 1 ms ticks, re-armed in-callback — the simulator's
/// highest-volume pattern, with `cpus` periodic timers.
double bench_tick_loop(int cpus) {
  sim::Simulator s;
  struct Ctx {
    sim::Simulator* s;
    sim::EventHandle h;
  };
  std::vector<Ctx> ctx(static_cast<std::size_t>(cpus));
  for (int i = 0; i < cpus; ++i) {
    auto& c = ctx[static_cast<std::size_t>(i)];
    c.s = &s;
    Ctx* p = &c;
    c.h = s.schedule_in(Duration::milliseconds(1), [p] {
      if (!p->s->reschedule_in(p->h, Duration::milliseconds(1))) std::abort();
    });
  }
  const double t0 = now_s();
  const std::uint64_t target = 6'000'000;
  while (s.events_executed() < target) s.step();
  return double(s.events_executed()) / (now_s() - t0);
}

double bench_big_capture() {
  sim::EventQueue q;
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  std::uint64_t sink = 0;
  const std::uint64_t kBatches = 60'000;
  const int kBatch = 64;
  std::int64_t t = 0;
  const double t0 = now_s();
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      Payload p{b, std::uint64_t(i), b ^ std::uint64_t(i), b + std::uint64_t(i)};
      q.schedule(SimTime(t + i), [p, &sink] { sink += p.a + p.d; });
    }
    while (!q.empty()) q.pop_and_run();
    t += kBatch;
  }
  const double rate = double(kBatches * kBatch) / (now_s() - t0);
  if (sink == 0) std::abort();
  return rate;
}

double bench_cancel_churn() {
  sim::EventQueue q;
  struct Payload {
    std::uint64_t a, b, c, d;
  };
  std::uint64_t sink = 0;
  const std::uint64_t kIters = 4'000'000;
  const double t0 = now_s();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    Payload p{i, i + 1, i + 2, i + 3};
    auto h = q.schedule(SimTime(std::int64_t(i + 1000)), [p, &sink] { sink += p.b; });
    if (!q.cancel(h)) std::abort();
    if ((i & 63) == 63) {
      // Dispatch now and then, as a real run loop would.
      q.schedule(SimTime(std::int64_t(i + 1)), [&sink] { ++sink; });
      q.pop_and_run();
    }
  }
  return double(kIters) / (now_s() - t0);
}

/// The kernel's real queue shape: a band of periodic millisecond ticks plus
/// a sparse population of long timeouts that almost never fire but must be
/// stepped over (or around) on every dispatch.
double bench_mixed_periodic_sparse() {
  sim::EventQueue q;
  struct Ctx {
    sim::EventQueue* q;
    sim::EventHandle h;
    std::int64_t when;
    std::int64_t period;
  };
  constexpr int kPeriodic = 48;
  constexpr int kSparse = 4096;
  std::vector<Ctx> ctx(kPeriodic + kSparse);
  for (int i = 0; i < kPeriodic; ++i) {
    Ctx* c = &ctx[static_cast<std::size_t>(i)];
    c->q = &q;
    c->period = 1'000'000;  // 1 ms tick
    c->when = c->period + i;
    c->h = q.schedule(SimTime(c->when), [c] {
      c->when += c->period;
      if (!c->q->reschedule(c->h, SimTime(c->when))) std::abort();
    });
  }
  for (int i = 0; i < kSparse; ++i) {
    Ctx* c = &ctx[static_cast<std::size_t>(kPeriodic + i)];
    c->q = &q;
    c->period = 250'000'000 + std::int64_t(i) * 1000;  // 250 ms-ish timeouts
    c->when = c->period;
    c->h = q.schedule(SimTime(c->when), [c] {
      c->when += c->period;
      if (!c->q->reschedule(c->h, SimTime(c->when))) std::abort();
    });
  }
  const double t0 = now_s();
  const std::uint64_t target = 4'000'000;
  std::uint64_t fired = 0;
  while (fired < target) {
    q.pop_and_run();
    ++fired;
  }
  return double(fired) / (now_s() - t0);
}

std::vector<analysis::SweepPoint> make_sweep_points() {
  std::vector<analysis::SweepPoint> points;
  const std::vector<analysis::SchedMode> modes = {
      analysis::SchedMode::kBaselineCfs, analysis::SchedMode::kStatic,
      analysis::SchedMode::kUniform, analysis::SchedMode::kAdaptive};
  for (const std::uint64_t seed : {1ull, 2ull}) {
    for (const analysis::SchedMode mode : modes) {
      auto e = analysis::MetBenchExperiment::paper();
      e.workload.iterations = 15;
      analysis::ExperimentConfig cfg = analysis::paper_defaults(mode, seed, false);
      if (mode == analysis::SchedMode::kStatic) cfg.static_prios = e.static_prios;
      const wl::MetBenchConfig w = e.workload;
      points.push_back(analysis::SweepPoint{
          std::string(analysis::sched_mode_name(mode)) + "/seed" + std::to_string(seed), cfg,
          [w] { return wl::make_metbench(w); }});
    }
  }
  return points;
}

bool rows_equal(const std::vector<analysis::SweepRow>& a,
                const std::vector<analysis::SweepRow>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].exec_s != b[i].exec_s ||
        a[i].min_util != b[i].min_util || a[i].max_util != b[i].max_util ||
        a[i].mean_imbalance != b[i].mean_imbalance || a[i].prio_changes != b[i].prio_changes ||
        a[i].ctx_switches != b[i].ctx_switches ||
        a[i].avg_wakeup_latency_us != b[i].avg_wakeup_latency_us ||
        a[i].improvement_vs_first_pct != b[i].improvement_vs_first_pct) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_options(argc, argv, /*jobs_only=*/true).jobs;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("=== simcore micro: event-loop hot paths ===\n");
  const double tick = bench_tick_loop(4);
  const double big = bench_big_capture();
  const double cancel = bench_cancel_churn();
  const double mixed = bench_mixed_periodic_sparse();
  std::printf("tick loop 4cpu (reschedule fast path):  %8.1fM events/s\n", tick / 1e6);
  std::printf("32B-capture one-shot events:            %8.1fM events/s\n", big / 1e6);
  std::printf("schedule+cancel churn:                  %8.1fM events/s\n", cancel / 1e6);
  std::printf("mixed periodic + sparse timeouts:       %8.1fM events/s\n", mixed / 1e6);

  std::printf("\n=== parallel experiment engine: 8-point MetBench sweep ===\n");
  const auto points = make_sweep_points();
  const double s0 = now_s();
  const auto serial_rows = analysis::run_sweep(points, 1);
  const double serial_s = now_s() - s0;
  const double p0 = now_s();
  const auto parallel_rows = analysis::run_sweep(points, jobs);
  const double parallel_s = now_s() - p0;
  const bool identical = rows_equal(serial_rows, parallel_rows);
  std::printf("serial  (--jobs 1): %.3fs\n", serial_s);
  std::printf("parallel (--jobs %u): %.3fs  speedup %.2fx\n", jobs, parallel_s,
              parallel_s > 0 ? serial_s / parallel_s : 0.0);
  std::printf("rows bit-identical: %s\n", identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf("hardware threads: %u\n", hw);

  bench::JsonObject events;
  events.field("tick_reschedule_per_s", tick)
      .field("big_capture_per_s", big)
      .field("cancel_churn_per_s", cancel)
      .field("mixed_periodic_sparse_per_s", mixed);
  bench::JsonObject sweep;
  sweep.field("points", static_cast<std::int64_t>(points.size()))
      .field("serial_s", serial_s)
      .field("parallel_s", parallel_s)
      .field("jobs", jobs)
      .field("speedup", parallel_s > 0 ? serial_s / parallel_s : 0.0)
      .field("rows_bit_identical", identical);
  bench::JsonObject root;
  root.field("bench", "micro_simcore")
      .field("hardware_concurrency", hw)
      .object("events_per_sec", events)
      .object("sweep", sweep);
  bench::write_json_file("BENCH_simcore.json", root);
  return identical ? 0 : 1;
}
