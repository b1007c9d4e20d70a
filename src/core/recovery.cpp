#include "core/recovery.hpp"

#include <algorithm>

#include "common/failpoint.hpp"
#include "resilience/primitives.hpp"

namespace corec::core {

using staging::ObjectDescriptor;
using staging::ObjectLocation;

void RecoveryManager::on_server_replaced(ServerId s, SimTime now) {
  PendingSet set;
  set.server = s;
  service_->directory().for_each(
      [&](const ObjectDescriptor& desc, const ObjectLocation& loc) {
        if (loc.places_on(s)) set.descs.insert(desc);
      });
  if (set.descs.empty()) return;

  if (options_.mode == RecoveryOptions::Mode::kAggressive) {
    // Everything, immediately: the decode/gather burst hits the
    // survivor queues all at once.
    auto descs = std::vector<ObjectDescriptor>(set.descs.begin(),
                                               set.descs.end());
    for (const auto& desc : descs) repair(desc, s, now);
    return;
  }

  // Lazy: repairs happen on access plus in `sweep_batches` background
  // batches spread across a deadline of MTBF/4.
  pending_.push_back(std::move(set));
  std::size_t set_index = pending_.size() - 1;
  SimTime deadline = from_seconds(options_.mtbf_seconds / 4.0);
  SimTime step = deadline / static_cast<SimTime>(
                                std::max<std::size_t>(
                                    options_.sweep_batches, 1));
  for (std::size_t b = 1; b <= options_.sweep_batches; ++b) {
    service_->sim().after(step * static_cast<SimTime>(b),
                          [this, set_index, b] {
                            run_batch(set_index, b,
                                      service_->sim().now());
                          });
  }
}

void RecoveryManager::run_batch(std::size_t set_index, std::size_t batch,
                                SimTime now) {
  if (set_index >= pending_.size()) return;
  PendingSet& set = pending_[set_index];
  if (set.descs.empty()) return;
  // Repair enough objects to stay on the schedule: after batch b of B,
  // at most (B - b)/B of the original work may remain. Since on-access
  // repairs shrink the set too, just take an even slice of what's left.
  std::size_t remaining_batches =
      options_.sweep_batches >= batch ? options_.sweep_batches - batch + 1
                                      : 1;
  std::size_t quota =
      (set.descs.size() + remaining_batches - 1) / remaining_batches;
  std::vector<ObjectDescriptor> todo;
  todo.reserve(quota);
  for (const auto& desc : set.descs) {
    if (todo.size() >= quota) break;
    todo.push_back(desc);
  }
  for (const auto& desc : todo) repair(desc, set.server, now);
}

void RecoveryManager::on_access(const ObjectDescriptor& desc,
                                SimTime now) {
  for (auto& set : pending_) {
    auto it = set.descs.find(desc);
    if (it != set.descs.end()) {
      ObjectDescriptor d = *it;
      repair(d, set.server, now);
    }
  }
}

void RecoveryManager::forget(const ObjectDescriptor& desc) {
  for (auto& set : pending_) set.descs.erase(desc);
}

void RecoveryManager::repair(const ObjectDescriptor& desc, ServerId target,
                             SimTime now) {
  if (auto fp = COREC_FAILPOINT("recovery.repair.drop")) {
    // The repair RPC is lost: the object stays in the pending set and a
    // later sweep batch (or an on-access hit) retries it.
    return;
  }
  staging::Breakdown work;
  resilience::rebuild_on(*service_, desc, target, now, &work);
  for (auto& set : pending_) {
    if (set.server == target) set.descs.erase(desc);
  }
}

std::size_t RecoveryManager::backlog() const {
  std::size_t n = 0;
  for (const auto& set : pending_) n += set.descs.size();
  return n;
}

}  // namespace corec::core
