#include "core/vertical_cost.h"

#include <gtest/gtest.h>

#include "sim/cluster.h"

namespace scd::core {
namespace {

PhantomWorkload friendster_workload() {
  PhantomWorkload w;
  w.num_vertices = 65'608'366;
  w.avg_degree = 55.0;
  w.minibatch_vertices = 16384;
  w.minibatch_pairs = 8192;
  w.heldout_pairs = 0;
  return w;
}

TEST(VerticalCostTest, ScalesWithKAndM) {
  const PhantomWorkload w = friendster_workload();
  const comm::ComputeModel node = comm::das5_node();
  const double base = vertical_iteration_cost(node, w, 512, 32).total();
  EXPECT_GT(vertical_iteration_cost(node, w, 1024, 32).total(), base);
  PhantomWorkload big_m = w;
  big_m.minibatch_vertices *= 2;
  EXPECT_GT(vertical_iteration_cost(node, big_m, 512, 32).total(), base);
}

TEST(VerticalCostTest, MoreCoresAreFaster) {
  const PhantomWorkload w = friendster_workload();
  const double t16 =
      vertical_iteration_cost(comm::das5_node(16), w, 1024, 32).total();
  const double t40 =
      vertical_iteration_cost(comm::hpc_cloud_node(40), w, 1024, 32).total();
  // 40 slower-clocked cores still beat 16 faster ones on this workload
  // (Fig. 4a's observation).
  EXPECT_LT(t40, t16);
}

TEST(VerticalCostTest, UpdatePhiDominatesAtLargeK) {
  const PhantomWorkload w = friendster_workload();
  const VerticalIterationCost cost =
      vertical_iteration_cost(comm::das5_node(), w, 12288, 32);
  EXPECT_GT(cost.update_phi, cost.update_pi);
  EXPECT_GT(cost.update_phi, cost.update_beta_theta);
  EXPECT_GT(cost.update_phi, cost.draw_minibatch);
}

// Fig. 4b's headline claim, encoded as a test: at com-Friendster scale
// the 64-node distributed configuration beats the 40-core 1TB machine,
// and the gap widens with K.
TEST(VerticalCostTest, DistributedBeatsVerticalAtScaleWithWideningGap) {
  const PhantomWorkload w = friendster_workload();
  Hyper hyper;
  DistributedOptions options;
  options.base.num_neighbors = 32;
  options.base.eval_interval = 0;

  double previous_ratio = 0.0;
  for (std::uint32_t k : {256u, 512u, 1024u, 2048u}) {
    hyper.num_communities = k;
    sim::SimCluster::Config config;
    config.num_ranks = 65;
    sim::SimCluster cluster(config);
    DistributedSampler dist(cluster, w, hyper, options);
    const double distributed =
        dist.run(6).avg_iteration_seconds;
    const double vertical =
        vertical_iteration_cost(comm::hpc_cloud_node(40), w, k, 32).total();
    EXPECT_LT(distributed, vertical) << "K=" << k;
    const double ratio = vertical / distributed;
    EXPECT_GT(ratio, previous_ratio * 0.8) << "gap shrank sharply at K=" << k;
    previous_ratio = ratio;
  }
  // Overall, the advantage at K=2048 should be substantial.
  EXPECT_GT(previous_ratio, 3.0);
}

}  // namespace
}  // namespace scd::core
