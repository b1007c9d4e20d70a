// The load-balancing & conflict-avoiding encoding workflow (Section
// III-B). Each replication group shares one *encoding token*: a
// replica->EC transition runs only under the token, so exactly one
// stripe instance is produced per object and concurrent transitions
// within a group serialize. Each transition encodes one object: the
// workload-measurement component picks the replica holder with the
// smallest service backlog as the encoder (the "helper server" path),
// keeping encode CPU time away from servers busy with client traffic,
// and that holder encodes under its group's token.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "staging/service.hpp"

namespace corec::core {

/// Workflow tuning / ablation knobs.
struct WorkflowOptions {
  /// Pick the least-loaded group member as encoder (off = primary
  /// always encodes, the pure-erasure behaviour).
  bool load_balance = true;
  /// Serialize encodes through the per-group token (off = encodes can
  /// overlap freely, risking conflicting stripes; modelled as no
  /// token-wait).
  bool conflict_avoid = true;
};

/// Per-replication-group token state plus encoder selection.
class EncodingWorkflow {
 public:
  EncodingWorkflow(staging::StagingService* service,
                   std::size_t replication_group_size,
                   const WorkflowOptions& options);

  /// Chooses the encoding server among `holders` (servers that already
  /// hold the payload: the primary and its replica holders). Returns
  /// the least-backlogged live holder at `now`, or the first holder
  /// when load balancing is disabled.
  ServerId pick_encoder(const std::vector<ServerId>& holders,
                        SimTime now) const;

  /// Acquires the encoding token of `encoder`'s group: returns the time
  /// the encode may start (>= ready). Call release() with the encode's
  /// completion time afterwards.
  SimTime acquire(ServerId encoder, SimTime ready);

  /// Releases the token, recording that the group is busy until `until`.
  void release(ServerId encoder, SimTime until);

  /// Number of encode offloads to a helper server so far.
  std::uint64_t offloads() const { return offloads_; }
  /// Total virtual time spent waiting on tokens.
  SimTime token_wait() const { return token_wait_; }

 private:
  std::size_t group_of(ServerId s) const;

  staging::StagingService* service_;
  std::size_t group_size_;
  WorkflowOptions options_;
  std::vector<SimTime> token_free_;  // per group
  mutable std::uint64_t offloads_ = 0;
  SimTime token_wait_ = 0;
};

}  // namespace corec::core
