// Ablation: OS-noise sensitivity (the extrinsic imbalance axis, paper §I
// references [9],[22],[24],[28]). Sweeps daemon duty cycle and measures the
// SIESTA improvement split and the Adaptive heuristic's stability on
// MetBench — the "aggressive heuristic over-reacts to noise" claim of §V-A.
//
// The 4 runs per burst level are independent; the whole grid fans across the
// parallel experiment engine (--jobs N / HPCS_JOBS) and is printed in order
// afterwards.

#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"

using namespace hpcs;
using analysis::SchedMode;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_options(argc, argv, /*jobs_only=*/true).jobs;
  std::printf("=== Noise sweep: burst length at fixed 10ms period ===\n\n");

  auto siesta = analysis::SiestaExperiment::paper();
  siesta.workload.microiters = 15000;

  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 15;

  const std::vector<int> bursts = {0, 25, 50, 100, 250};
  struct Row {
    analysis::RunResult siesta_base, siesta_uni, mb_base, mb_ada;
  };
  std::vector<Row> rows(bursts.size());

  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const int burst_us = bursts[i];
    kern::NoiseConfig noise;
    noise.burst = Duration::microseconds(burst_us);
    const bool enable = burst_us > 0;
    auto with_noise = [noise, enable](SchedMode mode) {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(mode, 1, false);
      cfg.noise = noise;
      cfg.enable_noise = enable;
      return cfg;
    };
    tasks.push_back([&rows, i, with_noise, &siesta] {
      rows[i].siesta_base = analysis::run_experiment(with_noise(SchedMode::kBaselineCfs),
                                                     wl::make_siesta(siesta.workload));
    });
    tasks.push_back([&rows, i, with_noise, &siesta] {
      rows[i].siesta_uni = analysis::run_experiment(with_noise(SchedMode::kUniform),
                                                    wl::make_siesta(siesta.workload));
    });
    tasks.push_back([&rows, i, with_noise, &mb] {
      rows[i].mb_base = analysis::run_experiment(with_noise(SchedMode::kBaselineCfs),
                                                 wl::make_metbench(mb.workload));
    });
    tasks.push_back([&rows, i, with_noise, &mb] {
      rows[i].mb_ada = analysis::run_experiment(with_noise(SchedMode::kAdaptive),
                                                wl::make_metbench(mb.workload));
    });
  }
  exp::ParallelRunner runner(jobs);
  runner.run_all(std::move(tasks));

  std::printf("%-12s | %-30s | %-30s\n", "burst (us)", "SIESTA base(s) / uniform gain",
              "MetBench adaptive gain / prio chgs");
  std::vector<bench::JsonObject> entries;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const Row& r = rows[i];
    std::printf("%-12d | %8.2fs / %+6.2f%%           | %+6.2f%% / %lld\n", bursts[i],
                r.siesta_base.exec_time.sec(),
                analysis::improvement_pct(r.siesta_base, r.siesta_uni),
                analysis::improvement_pct(r.mb_base, r.mb_ada),
                static_cast<long long>(r.mb_ada.hw_prio_changes));
    bench::JsonObject e;
    e.field("burst_us", bursts[i])
        .field("siesta_base_s", r.siesta_base.exec_time.sec())
        .field("siesta_uniform_gain_pct", analysis::improvement_pct(r.siesta_base, r.siesta_uni))
        .field("metbench_adaptive_gain_pct", analysis::improvement_pct(r.mb_base, r.mb_ada))
        .field("metbench_adaptive_prio_changes", r.mb_ada.hw_prio_changes);
    entries.push_back(std::move(e));
  }

  std::printf(
      "\nwithout noise the SIESTA gain shrinks toward the pure wakeup-cost delta and\n"
      "Adaptive stops over-reacting on MetBench (priority changes drop to the\n"
      "convergence minimum); heavier noise grows both effects — the paper's §V-D\n"
      "latency story and §V-A Fig. 3d over-reaction story on one axis.\n");

  bench::JsonObject root;
  root.field("bench", "ablation_noise").field("jobs", jobs);
  root.array("burst_sweep", entries);
  bench::write_json_file("BENCH_ablation_noise.json", root);
  return 0;
}
