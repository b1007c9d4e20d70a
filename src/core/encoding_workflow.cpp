#include "core/encoding_workflow.hpp"

#include <algorithm>
#include <cassert>

#include "common/failpoint.hpp"

namespace corec::core {

EncodingWorkflow::EncodingWorkflow(staging::StagingService* service,
                                   std::size_t replication_group_size,
                                   const WorkflowOptions& options)
    : service_(service),
      group_size_(std::max<std::size_t>(1, replication_group_size)),
      options_(options) {
  std::size_t groups =
      std::max<std::size_t>(1, service->num_servers() / group_size_);
  token_free_.assign(groups, 0);
}

std::size_t EncodingWorkflow::group_of(ServerId s) const {
  std::size_t pos = service_->ring_position(s);
  return std::min(pos / group_size_, token_free_.size() - 1);
}

ServerId EncodingWorkflow::pick_encoder(
    const std::vector<ServerId>& holders, SimTime now) const {
  assert(!holders.empty());
  if (!options_.load_balance) return holders.front();
  ServerId best = kInvalidServer;
  SimTime best_backlog = 0;
  for (ServerId h : holders) {
    if (!service_->alive(h)) continue;
    SimTime backlog = service_->server(h).queue.backlog(now);
    if (best == kInvalidServer || backlog < best_backlog) {
      best = h;
      best_backlog = backlog;
    }
  }
  if (best == kInvalidServer) return holders.front();
  // Stay on the primary unless the helper is strictly less loaded.
  ServerId primary = holders.front();
  if (best != primary && service_->alive(primary)) {
    if (service_->server(primary).queue.backlog(now) <= best_backlog) {
      return primary;
    }
    ++offloads_;
  }
  return best;
}

SimTime EncodingWorkflow::acquire(ServerId encoder, SimTime ready) {
  if (auto fp = COREC_FAILPOINT("workflow.token.stall")) {
    // Token handoff hiccup: the group token reaches this encoder late
    // (lost message + retry in a real token-passing implementation).
    ready += static_cast<SimTime>(fp.arg != 0 ? fp.arg : 500'000);
  }
  if (!options_.conflict_avoid) return ready;
  std::size_t g = group_of(encoder);
  SimTime start = std::max(ready, token_free_[g]);
  token_wait_ += start - ready;
  return start;
}

void EncodingWorkflow::release(ServerId encoder, SimTime until) {
  if (!options_.conflict_avoid) return;
  std::size_t g = group_of(encoder);
  token_free_[g] = std::max(token_free_[g], until);
}

}  // namespace corec::core
