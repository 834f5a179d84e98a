#include "exec/topology.h"

#include <gtest/gtest.h>

namespace alex::exec {
namespace {

TEST(CpuTopologyTest, ProbeNeverReturnsEmpty) {
  const CpuTopology topo = CpuTopology::Probe();
  EXPECT_GE(topo.num_cpus(), 1u);
  EXPECT_EQ(topo.RecommendedWorkers(), topo.num_cpus());
  for (size_t i = 1; i < topo.num_cpus(); ++i) {
    EXPECT_LT(topo.cpus()[i - 1].cpu, topo.cpus()[i].cpu)
        << "cpu ids must be ascending and distinct";
  }
}

TEST(CpuTopologyTest, DetectIsCachedAndStable) {
  const CpuTopology& a = CpuTopology::Detect();
  const CpuTopology& b = CpuTopology::Detect();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace alex::exec
