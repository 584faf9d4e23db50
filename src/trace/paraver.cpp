#include "trace/paraver.h"

#include <algorithm>
#include <fstream>

#include "common/check.h"
#include "trace/text_out.h"

namespace hpcs::trace {
namespace {

SimTime auto_end(const Tracer& tracer, const std::vector<Pid>& pids) {
  SimTime end = SimTime::zero();
  for (const Pid pid : pids) {
    for (const Interval& iv : tracer.intervals(pid)) end = std::max(end, iv.end);
  }
  return end;
}

}  // namespace

void write_prv(std::ostream& os, const Tracer& tracer, const ParaverJob& job) {
  HPCS_CHECK(job.pids.size() == job.labels.size());
  HPCS_CHECK_MSG(job.cpus > 0, "ParaverJob::cpus must be at least 1");
  const SimTime end = job.end > SimTime::zero() ? job.end : auto_end(tracer, job.pids);
  TextOut out(os);

  // Header: #Paraver (dd/mm/yy at hh:mm):ftime:nNodes(nCpus):nAppl:
  //         applId(nTasks(threads:node,...))
  // Timestamps are nanoseconds since simulation start (deterministic — no
  // wall-clock, so the date field is fixed).
  out << "#Paraver (01/01/08 at 00:00):" << end.ns() << "_ns:1(" << job.cpus << "):1:"
      << job.pids.size() << "(";
  for (std::size_t i = 0; i < job.pids.size(); ++i) {
    out << (i == 0 ? "" : ",") << "1:1";
  }
  out << ")\n";

  // State records, one line per interval:
  //   1:cpu:appl:task:thread:begin:end:state
  // plus hardware-priority user events:
  //   2:cpu:appl:task:thread:time:type:value
  for (std::size_t i = 0; i < job.pids.size(); ++i) {
    const int task = static_cast<int>(i) + 1;
    const int cpu = static_cast<int>(i % static_cast<std::size_t>(job.cpus)) + 1;
    for (const Interval& iv : tracer.intervals(job.pids[i])) {
      const int state =
          iv.activity == Activity::kCompute ? kPrvStateRunning : kPrvStateWaiting;
      out << "1:" << cpu << ":1:" << task << ":1:" << iv.begin.ns() << ':' << iv.end.ns()
          << ':' << state << '\n';
    }
    for (const PrioEvent& e : tracer.prio_events(job.pids[i])) {
      out << "2:" << cpu << ":1:" << task << ":1:" << e.when.ns() << ':' << kPrvEventHwPrio
          << ':' << e.prio << '\n';
    }
  }
  out.flush();
}

void write_pcf(std::ostream& os) {
  os << "DEFAULT_OPTIONS\n\nLEVEL               TASK\nUNITS               NANOSEC\n\n";
  os << "STATES\n";
  os << "0    Idle\n";
  os << kPrvStateRunning << "    Running\n";
  os << kPrvStateWaiting << "    Waiting a message\n";
  os << "\nSTATES_COLOR\n";
  os << "0    {117,195,255}\n";
  os << kPrvStateRunning << "    {0,0,255}\n";
  os << kPrvStateWaiting << "    {255,255,170}\n";
  os << "\nEVENT_TYPE\n";
  os << "9    " << kPrvEventHwPrio << "    POWER5 hardware thread priority\n";
  os << "VALUES\n";
  for (int p = 0; p <= 7; ++p) os << p << "      priority " << p << "\n";
}

void write_row(std::ostream& os, const ParaverJob& job) {
  os << "LEVEL CPU SIZE " << job.cpus << "\n";
  for (int c = 1; c <= job.cpus; ++c) os << "CPU " << c << "\n";
  os << "\nLEVEL TASK SIZE " << job.pids.size() << "\n";
  for (const auto& label : job.labels) os << label << "\n";
}

bool export_paraver(const std::string& prefix, const Tracer& tracer, const ParaverJob& job) {
  std::ofstream prv(prefix + ".prv");
  std::ofstream pcf(prefix + ".pcf");
  std::ofstream row(prefix + ".row");
  if (!prv || !pcf || !row) return false;
  write_prv(prv, tracer, job);
  write_pcf(pcf);
  write_row(row, job);
  return prv.good() && pcf.good() && row.good();
}

}  // namespace hpcs::trace
