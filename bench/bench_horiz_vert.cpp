// Figure 4: horizontal (distributed) vs vertical (one fat node) scaling.
//
//  (a) com-DBLP at full paper size: per-iteration time of the
//      multithreaded sampler on the HPC Cloud machine with 40 and 16
//      cores vs one 16-core DAS5 node, over a K sweep.
//  (b) com-Friendster: the 64-node DAS5 distributed configuration vs the
//      40-core 1TB HPC Cloud machine. The paper's finding: distributed
//      wins decisively and the gap widens with K.
#include "bench/bench_util.h"
#include "core/vertical_cost.h"

using namespace scd;

namespace {

core::PhantomWorkload dblp_workload() {
  core::PhantomWorkload w;
  w.num_vertices = 317'080;  // paper-size com-DBLP
  w.avg_degree = 6.62;
  w.minibatch_vertices = 4096;
  w.minibatch_pairs = 2048;
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchIo io;
  if (!io.parse(argc, argv, "bench_horiz_vert",
                "Figure 4: horizontal vs vertical scaling")) {
    return 0;
  }

  constexpr std::uint32_t kNeighbors = 32;

  // --- Fig 4a: single-node configurations on com-DBLP -------------------
  {
    const core::PhantomWorkload w = dblp_workload();
    Table fig4a({"communities", "hpc_cloud_40c_ms", "hpc_cloud_16c_ms",
                 "das5_16c_ms"});
    for (std::uint32_t k : {2048u, 4096u, 8192u, 16384u, 32768u}) {
      const double cloud40 =
          core::vertical_iteration_cost(comm::hpc_cloud_node(40), w, k,
                                        kNeighbors)
              .total();
      const double cloud16 =
          core::vertical_iteration_cost(comm::hpc_cloud_node(16), w, k,
                                        kNeighbors)
              .total();
      const double das5 =
          core::vertical_iteration_cost(comm::das5_node(16), w, k,
                                        kNeighbors)
              .total();
      fig4a.add_row({std::int64_t(k), cloud40 * 1e3, cloud16 * 1e3,
                     das5 * 1e3});
    }
    io.emit(fig4a, "fig4a_vertical_dblp",
            "Fig 4a — per-iteration time (ms), com-DBLP, single-node");
  }

  // --- Fig 4b: 64-node cluster vs 40-core machine on com-Friendster -----
  {
    const core::PhantomWorkload w = bench::friendster_workload();
    Table fig4b({"communities", "das5_64nodes_ms", "hpc_cloud_40c_ms",
                 "ratio"});
    for (std::uint32_t k : {256u, 512u, 1024u, 2048u, 4096u}) {
      const double distributed =
          bench::run_cost_only(64, k, w, /*measured=*/16, 16)
              .avg_iteration_seconds;
      const double vertical =
          core::vertical_iteration_cost(comm::hpc_cloud_node(40), w, k,
                                        kNeighbors)
              .total();
      fig4b.add_row({std::int64_t(k), distributed * 1e3, vertical * 1e3,
                     vertical / distributed});
    }
    io.emit(fig4b, "fig4b_horiz_vert_friendster",
            "Fig 4b — per-iteration time (ms), com-Friendster");
  }
  return 0;
}
