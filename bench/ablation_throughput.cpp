// Ablation: machine-model parameters.
//  1. The speed(share) curve itself (the characterization of [4]).
//  2. Idle-contention priority: spin idle (the paper's machine) vs true
//     snooze — showing how much of the balancing story depends on it.
//  3. MetBench improvement as a function of the intrinsic load ratio.
//
// The simulation runs of ablations 2 and 3 are independent and fan across
// the parallel experiment engine (--jobs N / HPCS_JOBS).

#include <cstdio>
#include <functional>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"
#include "power5/throughput.h"

using namespace hpcs;
using analysis::SchedMode;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_options(argc, argv, /*jobs_only=*/true).jobs;

  // --- 1. Characterization curve --------------------------------------------
  std::printf("=== Ablation 1: speed vs decode share (priority pair sweep) ===\n");
  const p5::ThroughputParams params;
  std::printf("%-8s %-10s %-10s %-12s %-12s\n", "diff", "share_hi", "speed_hi", "speed_lo",
              "hi gain / lo loss");
  for (int diff = 0; diff <= 4; ++diff) {
    const auto hi = p5::hw_prio_from_int(std::min(6, 4 + diff));
    const auto lo = p5::hw_prio_from_int(std::min(6, 4 + diff) - diff);
    const auto s = p5::context_speeds(params, hi, true, lo, true);
    const auto eq = p5::context_speeds(params, p5::HwPrio::kMedium, true,
                                       p5::HwPrio::kMedium, true);
    const double share = diff == 0 ? 0.5 : 1.0 - 1.0 / (1 << (diff + 1));
    std::printf("%-8d %-10.4f %-10.4f %-12.4f %+.1f%% / %+.1f%%\n", diff, share, s.a, s.b,
                100.0 * (s.a / eq.a - 1.0), 100.0 * (s.b / eq.b - 1.0));
  }

  // --- 2 & 3: fan the independent experiment runs across the engine ---------
  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 20;
  const std::vector<int> idle_prios = {4, 2, -1};
  const std::vector<double> ratios = {1.5, 2.0, 3.0, 4.0, 6.0, 8.0};

  struct Pair {
    analysis::RunResult base, uni;
  };
  std::vector<Pair> idle_runs(idle_prios.size());
  std::vector<Pair> ratio_runs(ratios.size());

  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < idle_prios.size(); ++i) {
    tasks.push_back([&idle_runs, i, &idle_prios, &mb] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kBaselineCfs, 1, false);
      cfg.kernel.throughput.idle_contention_prio = idle_prios[i];
      idle_runs[i].base = analysis::run_experiment(cfg, wl::make_metbench(mb.workload));
    });
    tasks.push_back([&idle_runs, i, &idle_prios, &mb] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kUniform, 1, false);
      cfg.kernel.throughput.idle_contention_prio = idle_prios[i];
      idle_runs[i].uni = analysis::run_experiment(cfg, wl::make_metbench(mb.workload));
    });
  }
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    wl::MetBenchConfig w;
    w.iterations = 20;
    const double large = 1.33e9;
    w.loads = {large / ratios[i], large, large / ratios[i], large};
    tasks.push_back([&ratio_runs, i, w] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kBaselineCfs, 1, false);
      ratio_runs[i].base = analysis::run_experiment(cfg, wl::make_metbench(w));
    });
    tasks.push_back([&ratio_runs, i, w] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kUniform, 1, false);
      ratio_runs[i].uni = analysis::run_experiment(cfg, wl::make_metbench(w));
    });
  }
  exp::ParallelRunner runner(jobs);
  runner.run_all(std::move(tasks));

  // --- 2. Idle model ----------------------------------------------------------
  std::printf("\n=== Ablation 2: spin idle vs true snooze (MetBench) ===\n");
  std::vector<bench::JsonObject> idle_json;
  for (std::size_t i = 0; i < idle_prios.size(); ++i) {
    std::printf("idle_prio=%-3d baseline %.2fs  uniform %+.2f%%\n", idle_prios[i],
                idle_runs[i].base.exec_time.sec(),
                analysis::improvement_pct(idle_runs[i].base, idle_runs[i].uni));
    bench::JsonObject e;
    e.field("idle_prio", idle_prios[i])
        .field("baseline_s", idle_runs[i].base.exec_time.sec())
        .field("uniform_gain_pct", analysis::improvement_pct(idle_runs[i].base, idle_runs[i].uni));
    idle_json.push_back(std::move(e));
  }
  std::printf("(with a true snooze the idle sibling donates the core, the baseline\n"
              " speeds up and prioritization buys much less — the spin-idle machine\n"
              " is where HPCSched shines, which matches the paper's Table III)\n");

  // --- 3. Load-ratio sweep ------------------------------------------------------
  std::printf("\n=== Ablation 3: improvement vs intrinsic imbalance ratio ===\n");
  std::printf("%-8s %-14s %-12s\n", "ratio", "baseline (s)", "uniform (%)");
  std::vector<bench::JsonObject> ratio_json;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    std::printf("%-8.1f %-14.2f %+-12.2f\n", ratios[i], ratio_runs[i].base.exec_time.sec(),
                analysis::improvement_pct(ratio_runs[i].base, ratio_runs[i].uni));
    bench::JsonObject e;
    e.field("ratio", ratios[i])
        .field("baseline_s", ratio_runs[i].base.exec_time.sec())
        .field("uniform_gain_pct",
               analysis::improvement_pct(ratio_runs[i].base, ratio_runs[i].uni));
    ratio_json.push_back(std::move(e));
  }
  std::printf("(the +/-2 priority window balances ratios up to ~4:1; beyond that the\n"
              " scheduler saturates at MAX_PRIO — the paper's conclusion 2 trade-off)\n");

  bench::JsonObject root;
  root.field("bench", "ablation_throughput").field("jobs", jobs);
  root.array("idle_model", idle_json);
  root.array("load_ratio_sweep", ratio_json);
  bench::write_json_file("BENCH_ablation_throughput.json", root);
  return 0;
}
