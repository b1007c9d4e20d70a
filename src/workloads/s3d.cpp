#include "workloads/s3d.hpp"

#include <cassert>

namespace corec::workloads {

S3dConfig s3d_4480() {
  S3dConfig c;
  c.sim_cores_x = 16;
  c.sim_cores_y = 16;
  c.sim_cores_z = 16;  // 4096 simulation cores, 1024^3 grid
  c.staging_cores = 256;
  c.analysis_cores = 128;
  return c;
}

S3dConfig s3d_8960() {
  S3dConfig c;
  c.sim_cores_x = 32;
  c.sim_cores_y = 16;
  c.sim_cores_z = 16;  // 8192-rank grid block, 2048x1024x1024
  c.staging_cores = 512;
  c.analysis_cores = 256;
  return c;
}

S3dConfig s3d_17920() {
  S3dConfig c;
  c.sim_cores_x = 32;
  c.sim_cores_y = 32;
  c.sim_cores_z = 16;  // 2048x2048x1024
  c.staging_cores = 1024;
  c.analysis_cores = 512;
  return c;
}

S3dConfig scaled(S3dConfig config, geom::Coord factor) {
  assert(factor >= 1 && config.block_extent % factor == 0);
  config.block_extent /= factor;
  return config;
}

WorkloadPlan make_s3d_plan(const S3dConfig& c) {
  WorkloadPlan plan;
  plan.name = "s3d-" + std::to_string(c.sim_cores()) + "ranks";
  plan.domain = geom::BoundingBox::cube(0, 0, 0, c.domain_x() - 1,
                                        c.domain_y() - 1,
                                        c.domain_z() - 1);
  plan.element_size = c.element_size;

  auto blocks = geom::regular_decomposition(
      plan.domain, {c.sim_cores_x, c.sim_cores_y, c.sim_cores_z});

  // Analysis ranks tile the domain in 3-D (power-of-two rank counts):
  // double the dimension with the fewest cuts, bounded by its extent.
  std::vector<std::size_t> reader_counts{1, 1, 1};
  geom::Coord extents[3] = {c.domain_x(), c.domain_y(), c.domain_z()};
  std::size_t remaining = c.analysis_cores;
  while (remaining > 1) {
    std::size_t best = 3;
    for (std::size_t d = 0; d < 3; ++d) {
      if (static_cast<geom::Coord>(reader_counts[d] * 2) > extents[d]) {
        continue;
      }
      if (best == 3 || reader_counts[d] < reader_counts[best]) best = d;
    }
    if (best == 3) break;  // cannot refine further
    reader_counts[best] *= 2;
    remaining /= 2;
  }
  auto slabs = geom::regular_decomposition(plan.domain, reader_counts);

  // Every time step writes and reads the same regions.
  StepPlan step;
  step.writes.reserve(blocks.size());
  step.reads.reserve(slabs.size());
  for (const auto& b : blocks) step.writes.push_back({c.var, b});
  for (const auto& s : slabs) step.reads.push_back({c.var, s});
  plan.steps.assign(c.time_steps, step);
  return plan;
}

}  // namespace corec::workloads
