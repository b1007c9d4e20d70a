// CoREC — the paper's primary contribution. A hybrid resilience scheme
// that keeps write-hot region entities replicated (fast updates) and
// write-cold entities erasure coded (low storage overhead), under a
// storage-efficiency floor S. Components:
//   * AccessClassifier        — online hot/cold classification;
//   * replicated "pool"       — the set of currently replicated
//                               entities, bounded by S;
//   * EncodingWorkflow        — conflict-avoiding encoder selection and
//                               per-group token serialization: each
//                               replica->stripe transition encodes one
//                               object on its least-loaded holder
//                               under the group's token;
//   * RecoveryManager         — lazy (or aggressive) repair.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/classifier.hpp"
#include "core/encoding_workflow.hpp"
#include "core/recovery.hpp"
#include "staging/scheme.hpp"

namespace corec::core {

/// Full CoREC configuration.
struct CorecOptions {
  /// Stripe geometry for cold data (k data + m parity chunks).
  std::size_t k = 3;
  std::size_t m = 1;
  /// Replica count for hot data (the fault-tolerance level N_level).
  std::size_t n_level = 1;
  /// Storage-efficiency floor S: the scheme keeps
  /// logical/stored >= S by limiting the replicated pool.
  double efficiency_floor = 0.67;
  ClassifierOptions classifier;
  WorkflowOptions workflow;
  RecoveryOptions recovery;
};

/// Counters exposed for the breakdown/ablation benches.
struct CorecStats {
  std::uint64_t writes_replicated = 0;  // writes served on the fast path
  std::uint64_t writes_encoded = 0;     // writes that paid the encode path
  std::uint64_t demotions = 0;          // pool -> stripe transitions
  std::uint64_t promotions = 0;         // stripe -> pool transitions
  staging::Breakdown background;        // sweep + transition work
};

/// The CoREC resilience scheme.
class CorecScheme final : public staging::ResilienceScheme {
 public:
  explicit CorecScheme(const CorecOptions& options);

  std::string name() const override { return "corec"; }
  void bind(staging::StagingService* service) override;

  SimTime protect(const staging::DataObject& obj, ServerId primary,
                  const staging::ObjectDescriptor* previous,
                  SimTime arrived, staging::Breakdown* bd) override;

  void on_access(const staging::ObjectDescriptor& desc,
                 SimTime now) override;
  void on_server_failed(ServerId s, SimTime now) override;
  void on_server_replaced(ServerId s, SimTime now) override;
  void end_of_step(Version step, SimTime now) override;
  std::size_t repair_backlog() const override;

  const CorecStats& stats() const { return stats_; }
  const AccessClassifier& classifier() const { return classifier_; }
  const EncodingWorkflow& workflow() const { return *workflow_; }
  const CorecOptions& corec_options() const { return options_; }

  /// Current storage efficiency as the scheme tracks it.
  double efficiency() const;

 private:
  /// Would efficiency stay >= S after adding `extra_stored` bytes (and
  /// `extra_logical` new payload bytes)?
  bool fits_floor(std::ptrdiff_t extra_stored,
                  std::ptrdiff_t extra_logical) const;

  /// Background demotion of a replicated entity to a stripe: the
  /// token workflow picks the least-loaded live holder as encoder and
  /// serializes the encode under its group's token.
  void demote(const staging::ObjectDescriptor& desc, SimTime now);
  /// Background promotion of an encoded entity into the pool.
  void promote(const staging::ObjectDescriptor& desc, SimTime now);

  /// Reassembles the payload of an entity from its current
  /// representation (copy or chunks), as its directory record `loc`
  /// lists it; returns false when unavailable.
  bool materialize(const staging::ObjectDescriptor& desc,
                   const staging::ObjectLocation& loc,
                   staging::DataObject* out) const;

  CorecOptions options_;
  AccessClassifier classifier_;
  std::unique_ptr<EncodingWorkflow> workflow_;
  std::unique_ptr<RecoveryManager> recovery_;
  CorecStats stats_;
  std::size_t logical_total_ = 0;
  Version current_step_ = 0;  // advanced by end_of_step (read stamping)
  /// Transitions decided on the write path but executed at the next
  /// sweep, so encode work overlaps the application's compute phase
  /// instead of its I/O burst.
  std::vector<staging::ObjectDescriptor> pending_demotions_;
  /// Current replicated pool (descriptors with Protection::kReplicated)
  /// — avoids directory scans on the write path's victim search. Each
  /// entry carries its entity's access record (stable, see
  /// AccessClassifier), so sampling a victim costs no classifier lookup.
  /// Keys are inserted and erased exactly as a set of descriptors would
  /// be, so iteration order — and thus the victim sample, its first 64
  /// entries — is too. That order is why this stays a std::unordered_map.
  std::unordered_map<staging::ObjectDescriptor, const AccessRecord*,
                     staging::DescriptorHash>
      pool_;
};

/// Convenience factory used by benches and examples.
std::unique_ptr<CorecScheme> make_corec(const CorecOptions& options = {});

}  // namespace corec::core
