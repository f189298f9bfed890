#include "core/vertical_cost.h"

namespace scd::core {

VerticalIterationCost vertical_iteration_cost(
    const comm::ComputeModel& node, const PhantomWorkload& workload,
    std::uint32_t num_communities, std::uint32_t num_neighbors) {
  VerticalIterationCost cost;
  const double m = workload.minibatch_vertices;
  const double n = num_neighbors;
  const double k = num_communities;
  const double pairs = static_cast<double>(workload.minibatch_pairs);
  const double row_bytes =
      static_cast<double>(pi_row_width(num_communities)) * sizeof(float);

  // Minibatch drawing is the serial master section of the loop.
  cost.draw_minibatch = m * node.draw_cost_per_vertex_s;
  cost.sample_neighbors =
      node.kernel_time(m * n, node.neighbor_unit_cycles);
  // pi rows stream from local RAM instead of the network: the minibatch
  // vertices plus their neighbor sets, and the pair endpoints for beta.
  cost.load_pi = node.local_bytes_time(
      static_cast<std::uint64_t>((m * (n + 1) + 2.0 * pairs) * row_bytes));
  cost.update_phi = node.kernel_time(m * n * k, node.phi_unit_cycles);
  cost.update_pi =
      node.kernel_time(m * k, node.pi_unit_cycles) +
      node.local_bytes_time(static_cast<std::uint64_t>(m * row_bytes));
  cost.update_beta_theta =
      node.kernel_time(pairs * k, node.beta_unit_cycles) +
      node.serial_time(2.0 * k, node.theta_unit_cycles);
  return cost;
}

}  // namespace scd::core
