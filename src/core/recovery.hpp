// Data recovery (Section III-D). Two modes:
//  * degraded   — no replacement server yet; reads reconstruct on the
//                 fly (handled by the staging service read path).
//  * lazy       — once a replacement joins, objects are recovered on
//                 first access, and a background sweep spreads the
//                 remaining repairs over a deadline of MTBF/4.
// The aggressive baseline (rebuild everything at replacement time) is
// selectable for the ablation benches and the Erasure+f baselines.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "staging/object.hpp"
#include "staging/service.hpp"

namespace corec::core {

/// Recovery policy knobs.
struct RecoveryOptions {
  enum class Mode { kLazy, kAggressive };
  Mode mode = Mode::kLazy;
  /// System MTBF; the lazy sweep must finish within mtbf/4.
  double mtbf_seconds = 600.0;
  /// The lazy sweep is split into this many evenly spaced batches.
  std::size_t sweep_batches = 8;
};

/// Tracks objects awaiting repair per replaced server and drives the
/// on-access and background recovery paths.
class RecoveryManager {
 public:
  RecoveryManager(staging::StagingService* service,
                  const RecoveryOptions& options)
      : service_(service), options_(options) {}

  /// A replacement server joined: collect the objects whose shards or
  /// copies belong on it and start recovery per the configured mode.
  void on_server_replaced(ServerId s, SimTime now);

  /// Access hook: if `desc` is awaiting repair, repair it now (the
  /// "recovered immediately after it is queried or updated" rule).
  void on_access(const staging::ObjectDescriptor& desc, SimTime now);

  /// An object was retired (deleted/overwritten): drop pending repairs.
  void forget(const staging::ObjectDescriptor& desc);

  /// Objects still pending repair.
  std::size_t backlog() const;

 private:
  struct PendingSet {
    ServerId server = kInvalidServer;
    // Stays a std::unordered_set: run_batch repairs the first `quota`
    // entries in iteration order, so the order picks what is repaired
    // when.
    std::unordered_set<staging::ObjectDescriptor,
                       staging::DescriptorHash>
        descs;
  };

  void repair(const staging::ObjectDescriptor& desc, ServerId target,
              SimTime now);
  void run_batch(std::size_t set_index, std::size_t batch, SimTime now);

  staging::StagingService* service_;
  RecoveryOptions options_;
  std::vector<PendingSet> pending_;
};

}  // namespace corec::core
