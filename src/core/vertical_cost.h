// Modeled per-iteration cost of the single-node multithreaded sampler —
// the paper's "vertical scaling" configuration (Section IV-D), where all
// state lives in local RAM and the only parallelism is the node's cores.
//
// Uses the same kernel constants as the distributed simulator
// (comm::ComputeModel), so Fig. 4's horizontal-vs-vertical comparison pits
// two instances of one cost model against each other: the distributed
// side pays network latency/bandwidth for pi, the vertical side pays
// local memory bandwidth, and the distributed side brings C*16 cores to
// the kernels against the vertical side's 16..40.
#pragma once

#include "comm/compute_model.h"
#include "core/distributed_sampler.h"
#include "core/hyper.h"

namespace scd::core {

/// Per-stage seconds of one vertical iteration.
struct VerticalIterationCost {
  double draw_minibatch = 0.0;
  double sample_neighbors = 0.0;
  double load_pi = 0.0;
  double update_phi = 0.0;
  double update_pi = 0.0;
  double update_beta_theta = 0.0;

  double total() const {
    return draw_minibatch + sample_neighbors + load_pi + update_phi +
           update_pi + update_beta_theta;
  }
};

/// Cost of one iteration of the shared-memory sampler on `node` for the
/// workload sizes in `workload` with `num_communities` communities and
/// `num_neighbors` samples per minibatch vertex.
VerticalIterationCost vertical_iteration_cost(
    const comm::ComputeModel& node, const PhantomWorkload& workload,
    std::uint32_t num_communities, std::uint32_t num_neighbors);

}  // namespace scd::core
