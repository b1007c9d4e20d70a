// Mechanism factory: builds each of the fault-tolerance schemes the
// paper compares (Fig. 8 legend) with consistent parameters, plus the
// Table I / Table II service configurations.
#pragma once

#include <memory>
#include <string>

#include "core/corec_scheme.hpp"
#include "staging/service.hpp"
#include "workloads/s3d.hpp"

namespace corec::workloads {

/// The resilience mechanisms compared in the evaluation.
enum class Mechanism {
  kNone,         // "DataSpaces": staging without fault tolerance
  kReplication,  // "Replicate"
  kErasure,      // "Erasure" (aggressive recovery)
  kHybrid,       // "Hybrid": random selection, no classification
  kCorec,        // "CoREC" (lazy recovery)
  kCorecAggressive,  // CoREC with aggressive recovery (ablation)
};

const char* to_string(Mechanism m);

/// Shared resilience parameters (Table I defaults: RS(k=3, m=1),
/// one replica, S = 67%).
struct MechanismParams {
  std::size_t k = 3;
  std::size_t m = 1;
  std::size_t n_level = 1;
  double storage_floor = 0.67;
  core::ClassifierOptions classifier;
  core::WorkflowOptions workflow;
  core::RecoveryOptions recovery;
};

/// Instantiates the scheme for a mechanism.
std::unique_ptr<staging::ResilienceScheme> make_scheme(
    Mechanism mechanism, const MechanismParams& params = {});

/// Service options matching the Table I synthetic setup: 8 staging
/// servers in 4 failure domains on a 256^3 domain (1 byte/point).
staging::ServiceOptions table1_service_options();

/// Service options for a Table II S3D scenario. `servers` staging
/// cores across 8 cabinets; fitting target sized for the block volume.
staging::ServiceOptions s3d_service_options(const S3dConfig& config);

}  // namespace corec::workloads
