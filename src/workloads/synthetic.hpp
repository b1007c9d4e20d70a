// The five synthetic test cases of Section IV-1 (Table I setup):
// 64 parallel writers on a 256^3 domain (4x4x4 blocks of 64^3), 32
// parallel readers, 20 time steps.
//   case 1 — write the entire domain every time step;
//   case 2 — write the domain across 4 rotating subdomains;
//   case 3 — write one hot subdomain every step (others written once);
//   case 4 — write random subsets of the domain;
//   case 5 — write once, read the entire domain every time step.
#pragma once

#include <cstdint>

#include "workloads/plan.hpp"

namespace corec::workloads {

/// Table I parameters (all overridable for scaled-down tests).
struct SyntheticOptions {
  geom::Coord domain_extent = 256;     // 256^3 global space
  std::size_t writer_grid = 4;         // 4x4x4 = 64 writers
  std::size_t readers = 32;            // parallel reader cores
  std::size_t element_size = 1;        // bytes per grid point
  Version time_steps = 20;
  std::uint64_t seed = 7;              // case 4 randomness
  VarId var = 1;
};

/// Builds the plan for synthetic case 1..5.
WorkloadPlan make_synthetic_case(int case_number,
                                 const SyntheticOptions& options = {});

}  // namespace corec::workloads
