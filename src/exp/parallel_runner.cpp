#include "exp/parallel_runner.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

namespace hpcs::exp {

unsigned default_jobs() {
  if (const char* env = std::getenv("HPCS_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

namespace {

/// Largest accepted --jobs / HPCS_JOBS value.
constexpr unsigned long long kMaxJobs = 4096;

/// Parse a worker count (decimal digits, 1..kMaxJobs) or exit 2 with a
/// message naming `origin`. strtoull saturates on overflow, which the range
/// check rejects.
unsigned jobs_or_exit(const char* text, const char* origin) {
  if (text == nullptr) text = "";
  const std::string_view t = text;
  const bool digits = !t.empty() && std::all_of(t.begin(), t.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
  const unsigned long long v = digits ? std::strtoull(text, nullptr, 10) : 0;
  if (v < 1 || v > kMaxJobs) {
    std::fprintf(stderr, "error: %s: expected a worker count in 1..%llu, got '%s'\n",
                 origin, kMaxJobs, text);
    std::exit(2);
  }
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned parse_jobs_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--jobs") == 0) {
      return jobs_or_exit(i + 1 < argc ? argv[i + 1] : nullptr, "--jobs");
    }
    if (std::strncmp(a, "--jobs=", 7) == 0) return jobs_or_exit(a + 7, "--jobs");
  }
  if (const char* env = std::getenv("HPCS_JOBS")) {
    if (env[0] != '\0') return jobs_or_exit(env, "HPCS_JOBS");
  }
  return default_jobs();
}

ParallelRunner::ParallelRunner(unsigned jobs) : jobs_(jobs == 0 ? default_jobs() : jobs) {}

void ParallelRunner::run_all(std::vector<std::function<void()>> tasks) {
  // Host-side engine stats only: batch wall time never feeds back into any
  // simulation result (runs are pure functions of their configs).
  const auto wall_begin = std::chrono::steady_clock::now();  // HPCSLINT-ALLOW(wallclock)
  last_stats_ = EngineStats{};
  last_stats_.tasks = static_cast<std::int64_t>(tasks.size());

  std::vector<std::exception_ptr> errors(tasks.size());
  if (jobs_ <= 1 || tasks.size() <= 1) {
    // Serial reference path: identical code shape, no threads involved.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      try {
        tasks[i]();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
    last_stats_.jobs_submitted = last_stats_.tasks;
    last_stats_.jobs_executed = last_stats_.tasks;
  } else {
    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, tasks.size()));
    ThreadPool pool(workers);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      pool.submit([&tasks, &errors, i] {
        try {
          tasks[i]();
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
    const PoolStats ps = pool.stats();
    last_stats_.workers = workers;
    last_stats_.jobs_submitted = ps.submitted;
    last_stats_.jobs_executed = ps.executed;
    last_stats_.max_queue_depth = ps.max_queue_depth;
    last_stats_.per_worker_executed = ps.per_worker_executed;
  }
  const auto wall_end = std::chrono::steady_clock::now();  // HPCSLINT-ALLOW(wallclock)
  last_stats_.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_begin).count();

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace hpcs::exp
