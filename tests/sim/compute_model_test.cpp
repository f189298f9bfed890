#include "comm/compute_model.h"

#include <gtest/gtest.h>

namespace scd::comm {
namespace {

TEST(ComputeModelTest, KernelTimeScalesWithThreadsAndEfficiency) {
  ComputeModel m;
  m.clock_hz = 1e9;
  m.threads_per_node = 1;
  m.thread_efficiency = 1.0;
  EXPECT_DOUBLE_EQ(m.kernel_time(1e9, 1.0), 1.0);
  m.threads_per_node = 4;
  EXPECT_DOUBLE_EQ(m.kernel_time(1e9, 1.0), 0.25);
  m.thread_efficiency = 0.5;
  EXPECT_DOUBLE_EQ(m.kernel_time(1e9, 1.0), 0.5);
}

TEST(ComputeModelTest, SerialTimeIgnoresThreads) {
  ComputeModel m;
  m.clock_hz = 2e9;
  m.threads_per_node = 16;
  EXPECT_DOUBLE_EQ(m.serial_time(2e9, 1.0), 1.0);
}

TEST(ComputeModelTest, LocalBytesTime) {
  ComputeModel m;
  m.mem_bandwidth_Bps = 10e9;
  EXPECT_DOUBLE_EQ(m.local_bytes_time(10'000'000'000ull), 1.0);
}

TEST(ComputeModelTest, FactoryModelsMatchPaperHardware) {
  const ComputeModel das5 = das5_node();
  EXPECT_DOUBLE_EQ(das5.clock_hz, 2.4e9);  // E5-2630v3
  EXPECT_EQ(das5.threads_per_node, 16u);   // dual 8-core
  const ComputeModel cloud = hpc_cloud_node();
  EXPECT_DOUBLE_EQ(cloud.clock_hz, 2.0e9);  // E7-4850
  EXPECT_EQ(cloud.threads_per_node, 40u);
  // Equal units: the 40 slower cores still out-compute 16 faster ones.
  EXPECT_LT(cloud.kernel_time(1e9, 1.0), das5.kernel_time(1e9, 1.0));
}

TEST(ComputeModelTest, ValidationCatchesNonsense) {
  ComputeModel m;
  m.threads_per_node = 0;
  EXPECT_THROW(m.validate(), scd::UsageError);
  ComputeModel m2;
  m2.thread_efficiency = 1.5;
  EXPECT_THROW(m2.validate(), scd::UsageError);
}

}  // namespace
}  // namespace scd::comm
