#include "workloads/synthetic.hpp"

#include <algorithm>
#include <cassert>

#include "common/rng.hpp"

namespace corec::workloads {
namespace {

/// Fraction of writer blocks updated per step in case 4.
constexpr double kRandomFraction = 0.25;

geom::BoundingBox domain_of(const SyntheticOptions& o) {
  return geom::BoundingBox::cube(0, 0, 0, o.domain_extent - 1,
                                 o.domain_extent - 1, o.domain_extent - 1);
}

/// 4x4x4 writer blocks in row-major order.
std::vector<geom::BoundingBox> writer_blocks(const SyntheticOptions& o) {
  return geom::regular_decomposition(
      domain_of(o), {o.writer_grid, o.writer_grid, o.writer_grid});
}

/// Reader slabs: the domain split along x among the reader cores.
std::vector<geom::BoundingBox> reader_slabs(const SyntheticOptions& o) {
  return geom::regular_decomposition(domain_of(o), {o.readers, 1, 1});
}

void add_reads(StepPlan* step, const SyntheticOptions& o,
               const std::vector<geom::BoundingBox>& slabs) {
  for (const auto& slab : slabs) {
    step->reads.push_back({o.var, slab});
  }
}

}  // namespace

WorkloadPlan make_synthetic_case(int case_number,
                                 const SyntheticOptions& o) {
  assert(case_number >= 1 && case_number <= 5);
  WorkloadPlan plan;
  plan.name = "synthetic-case-" + std::to_string(case_number);
  plan.domain = domain_of(o);
  plan.element_size = o.element_size;

  auto blocks = writer_blocks(o);
  auto slabs = reader_slabs(o);
  Rng rng(o.seed, 0x5851f42d4c957f2dULL);

  // Subdomain split used by cases 2 and 3: 2x2x1 octant-style quarters.
  auto subdomains =
      geom::regular_decomposition(plan.domain, {2, 2, 1});
  auto blocks_in = [&](const geom::BoundingBox& region) {
    std::vector<geom::BoundingBox> out;
    for (const auto& b : blocks) {
      if (region.contains(b)) out.push_back(b);
    }
    return out;
  };

  for (Version ts = 0; ts < o.time_steps; ++ts) {
    StepPlan step;
    switch (case_number) {
      case 1:
        // Entire domain written every step.
        for (const auto& b : blocks) step.writes.push_back({o.var, b});
        break;
      case 2: {
        // Rotating subdomain: the whole domain is covered every 4
        // steps.
        const auto& sub = subdomains[ts % subdomains.size()];
        for (const auto& b : blocks_in(sub)) {
          step.writes.push_back({o.var, b});
        }
        break;
      }
      case 3: {
        // Hot spot: subdomain 0 written every step; everything else
        // written only at step 0.
        if (ts == 0) {
          for (const auto& b : blocks) step.writes.push_back({o.var, b});
        } else {
          for (const auto& b : blocks_in(subdomains[0])) {
            step.writes.push_back({o.var, b});
          }
        }
        break;
      }
      case 4: {
        // Random subset of writer blocks each step.
        std::size_t count = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   static_cast<double>(blocks.size()) *
                   kRandomFraction));
        std::vector<std::size_t> idx(blocks.size());
        for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
        std::shuffle(idx.begin(), idx.end(), rng);
        for (std::size_t i = 0; i < count; ++i) {
          step.writes.push_back({o.var, blocks[idx[i]]});
        }
        break;
      }
      case 5:
        // Write once, then read-only.
        if (ts == 0) {
          for (const auto& b : blocks) step.writes.push_back({o.var, b});
        }
        break;
    }
    add_reads(&step, o, slabs);
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace corec::workloads
