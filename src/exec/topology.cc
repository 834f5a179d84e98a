#include "exec/topology.h"

#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace alex::exec {
namespace {

/// Kernel cpu ids this process may run on, via the affinity mask. Empty
/// when the syscall is unavailable or denied.
std::vector<int> ReadAllowedCpus() {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

}  // namespace

CpuTopology CpuTopology::Probe() {
  std::vector<int> allowed = ReadAllowedCpus();
  if (allowed.empty()) {
    // No affinity information: fall back to hardware_concurrency() dense
    // ids. hardware_concurrency() may itself report 0; never go below 1.
    const unsigned hw = std::thread::hardware_concurrency();
    for (int cpu = 0; cpu < static_cast<int>(hw == 0 ? 1 : hw); ++cpu) {
      allowed.push_back(cpu);
    }
  }
  CpuTopology topo;
  topo.cpus_.reserve(allowed.size());
  for (int cpu : allowed) topo.cpus_.push_back(CpuInfo{cpu});
  return topo;
}

const CpuTopology& CpuTopology::Detect() {
  static const CpuTopology* topo = new CpuTopology(Probe());
  return *topo;
}

}  // namespace alex::exec
