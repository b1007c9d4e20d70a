// Executes a WorkloadPlan against a StagingService in virtual time and
// collects the metrics the paper reports: per-operation response times
// (pooled and per time step), cost breakdowns (Fig. 9 categories),
// storage efficiency, and failure outcomes. In real-payload mode the
// driver keeps a mirror of the domain and verifies every byte read —
// including bytes served through degraded-mode reconstruction.
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "common/stats.hpp"
#include "staging/service.hpp"
#include "workloads/plan.hpp"

namespace corec::workloads {

/// Driver behaviour knobs.
struct DriverOptions {
  /// Generate and stage real payload bytes (tests); phantom otherwise.
  bool real_payloads = false;
  /// Verify every successful read against the mirror (implies
  /// real_payloads).
  bool verify_reads = false;
  /// Idle virtual time between time steps — the simulation's compute
  /// phase. Background staging work (encode transitions, lazy
  /// recovery) overlaps it, exactly as on a real system.
  SimTime step_gap = from_seconds(0.02);
};

/// Per-time-step observations.
struct StepMetrics {
  RunningStat write_response;  // seconds per put
  RunningStat read_response;   // seconds per get
  staging::Breakdown write_bd;
  staging::Breakdown read_bd;
  std::size_t write_failures = 0;
  std::size_t read_failures = 0;
  std::size_t data_loss_reads = 0;
  std::size_t not_found_reads = 0;  // region not staged yet (not a fault)
  std::size_t verified_reads = 0;
  std::size_t corrupt_reads = 0;
};

/// Whole-run aggregation.
struct RunMetrics {
  std::vector<StepMetrics> steps;
  staging::Breakdown write_bd;
  staging::Breakdown read_bd;
  SimTime makespan = 0;          // virtual span of the whole run
  double storage_efficiency = 1.0;
  std::size_t total_writes = 0;
  std::size_t total_reads = 0;

  double avg_write_response() const;  // seconds, pooled over all puts
  double avg_read_response() const;
  std::size_t data_loss_reads() const;
  std::size_t corrupt_reads() const;
};

/// Plan executor.
class WorkloadDriver {
 public:
  WorkloadDriver(staging::StagingService* service,
                 DriverOptions options = {});

  /// Registers a hook invoked at the *start* of time step `step`
  /// (failure injection, replacements, assertions).
  void add_hook(Version step, std::function<void()> hook);

  /// Runs the plan to completion; returns the collected metrics.
  RunMetrics run(const WorkloadPlan& plan);

  /// Domain-shaped mirror of `var`'s latest written contents (kept when
  /// verify_reads is on; survives run() so audits can compare staged or
  /// decoded bytes after the fact). nullptr when never written.
  const Bytes* mirror(VarId var) const {
    auto it = mirrors_.find(var);
    return it == mirrors_.end() ? nullptr : &it->second;
  }

 private:
  void fill_payload(VarId var, const geom::BoundingBox& box, Version step,
                    const geom::BoundingBox& domain, Bytes* payload,
                    Bytes* mirror, std::size_t element_size);

  staging::StagingService* service_;
  DriverOptions options_;
  std::multimap<Version, std::function<void()>> hooks_;
  // Per-variable mirrors: variables may write overlapping regions with
  // distinct contents, so one shared domain buffer would cross-clobber.
  std::map<VarId, Bytes> mirrors_;
};

}  // namespace corec::workloads
