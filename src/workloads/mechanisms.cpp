#include "workloads/mechanisms.hpp"

#include "resilience/primitives.hpp"
#include "resilience/schemes.hpp"

namespace corec::workloads {

const char* to_string(Mechanism m) {
  switch (m) {
    case Mechanism::kNone: return "dataspaces";
    case Mechanism::kReplication: return "replicate";
    case Mechanism::kErasure: return "erasure";
    case Mechanism::kHybrid: return "hybrid";
    case Mechanism::kCorec: return "corec";
    case Mechanism::kCorecAggressive: return "corec-aggressive";
  }
  return "?";
}

std::unique_ptr<staging::ResilienceScheme> make_scheme(
    Mechanism mechanism, const MechanismParams& p) {
  switch (mechanism) {
    case Mechanism::kNone:
      return std::make_unique<resilience::NoneScheme>();
    case Mechanism::kReplication:
      return std::make_unique<resilience::ReplicationScheme>(p.n_level);
    case Mechanism::kErasure:
      return std::make_unique<resilience::ErasureScheme>(p.k, p.m);
    case Mechanism::kHybrid: {
      double pr = resilience::replication_probability_for_constraint(
          p.storage_floor, p.n_level, p.k, p.m);
      return std::make_unique<resilience::RandomHybridScheme>(
          p.k, p.m, p.n_level, pr);
    }
    case Mechanism::kCorec:
    case Mechanism::kCorecAggressive: {
      core::CorecOptions opts;
      opts.k = p.k;
      opts.m = p.m;
      opts.n_level = p.n_level;
      opts.efficiency_floor = p.storage_floor;
      opts.classifier = p.classifier;
      opts.workflow = p.workflow;
      opts.recovery = p.recovery;
      if (mechanism == Mechanism::kCorecAggressive) {
        opts.recovery.mode = core::RecoveryOptions::Mode::kAggressive;
      }
      return core::make_corec(opts);
    }
  }
  return nullptr;
}

staging::ServiceOptions table1_service_options() {
  staging::ServiceOptions opts;
  // 8 staging servers spread over 4 cabinets (2 nodes each): a
  // replication group (size 2) always spans two cabinets, a coding
  // group (size 4) spans all four.
  opts.topology = net::Topology(4, 2, 1);
  opts.domain = geom::BoundingBox::cube(0, 0, 0, 255, 255, 255);
  opts.fit.element_size = 1;
  // One staged object per 64^3 writer block (256 KiB). Each object
  // stripes into Table I's "3 data objects + 1 parity object" when
  // erasure coded.
  opts.fit.target_bytes = 256u << 10;
  return opts;
}

staging::ServiceOptions s3d_service_options(const S3dConfig& c) {
  staging::ServiceOptions opts;
  // Titan-like: staging cores spread over 8 cabinets.
  std::size_t cabinets = 8;
  std::size_t per_cabinet = c.staging_cores / cabinets;
  opts.topology = net::Topology(cabinets, per_cabinet, 1);
  opts.domain = geom::BoundingBox::cube(0, 0, 0, c.domain_x() - 1,
                                        c.domain_y() - 1,
                                        c.domain_z() - 1);
  opts.fit.element_size = c.element_size;
  // One staged object per simulation-rank block (no further split):
  // block volume * element size.
  opts.fit.target_bytes =
      static_cast<std::size_t>(c.block_extent) *
      static_cast<std::size_t>(c.block_extent) *
      static_cast<std::size_t>(c.block_extent) * c.element_size;
  return opts;
}

}  // namespace corec::workloads
