#ifndef ALEX_EXEC_TOPOLOGY_H_
#define ALEX_EXEC_TOPOLOGY_H_

#include <cstddef>
#include <vector>

namespace alex::exec {

/// One logical CPU this process may run on.
struct CpuInfo {
  int cpu = 0;  ///< Kernel CPU id (the id affinity masks use).
};

/// The CPUs the scheduler will actually give this process: the affinity
/// mask, not the machine total — in a container with a 4-CPU quota on a
/// 64-CPU host the answer is 4.
///
/// Probing never fails. Where the affinity mask cannot be read (syscall
/// denied by seccomp, non-Linux build) the answer is hardware_concurrency()
/// dense CPU ids, and at least one.
class CpuTopology {
 public:
  /// Probes the live system.
  static CpuTopology Probe();

  /// Process-wide probe, performed once and cached.
  static const CpuTopology& Detect();

  /// CPUs available to this process, ascending by cpu id. Never empty.
  const std::vector<CpuInfo>& cpus() const { return cpus_; }
  size_t num_cpus() const { return cpus_.size(); }

  /// The one place pool sizes come from: the number of CPUs the process is
  /// actually allowed to use (at least 1). Replaces the ad-hoc
  /// hardware_concurrency() calls that ignored container CPU restrictions.
  size_t RecommendedWorkers() const { return cpus_.empty() ? 1 : cpus_.size(); }

 private:
  CpuTopology() = default;

  std::vector<CpuInfo> cpus_;
};

}  // namespace alex::exec

#endif  // ALEX_EXEC_TOPOLOGY_H_
