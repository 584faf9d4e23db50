#include "trace/csv.h"

#include "common/check.h"
#include "trace/text_out.h"

namespace hpcs::trace {

void write_intervals_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                         const std::vector<std::string>& labels) {
  HPCS_CHECK(pids.size() == labels.size());
  TextOut out(os);
  out << "pid,label,begin_s,end_s,activity\n";
  for (std::size_t i = 0; i < pids.size(); ++i) {
    for (const Interval& iv : tracer.intervals(pids[i])) {
      out << pids[i] << ',' << labels[i] << ',' << iv.begin.sec() << ',' << iv.end.sec() << ','
          << (iv.activity == Activity::kCompute ? "compute" : "wait") << '\n';
    }
  }
  out.flush();
}

void write_iterations_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                          const std::vector<std::string>& labels) {
  HPCS_CHECK(pids.size() == labels.size());
  TextOut out(os);
  out << "pid,label,iteration,time_s,util_last,util_metric\n";
  for (std::size_t i = 0; i < pids.size(); ++i) {
    for (const IterationEvent& e : tracer.iteration_events(pids[i])) {
      out << pids[i] << ',' << labels[i] << ',' << e.iteration << ',' << e.when.sec() << ','
          << e.util_last << ',' << e.util_metric << '\n';
    }
  }
  out.flush();
}

void write_priorities_csv(std::ostream& os, const Tracer& tracer, const std::vector<Pid>& pids,
                          const std::vector<std::string>& labels) {
  HPCS_CHECK(pids.size() == labels.size());
  TextOut out(os);
  out << "pid,label,time_s,prio\n";
  for (std::size_t i = 0; i < pids.size(); ++i) {
    for (const PrioEvent& e : tracer.prio_events(pids[i])) {
      out << pids[i] << ',' << labels[i] << ',' << e.when.sec() << ',' << e.prio << '\n';
    }
  }
  out.flush();
}

}  // namespace hpcs::trace
