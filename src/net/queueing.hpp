// Per-server service queues. Each staging server serves requests
// one-at-a-time in arrival order (a single staging core, matching the
// DataSpaces server model); concurrent requests queue and the measured
// response time includes the queueing delay. The backlog doubles as the
// "workload measurement" signal the CoREC encoding workflow uses to pick
// the helper server.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"

namespace corec::net {

/// Virtual-time M/G/1-style service line for one server.
class ServiceQueue {
 public:
  /// Serves a request arriving at `arrival` needing `service` ns of
  /// exclusive server time. Returns the completion time. Advances the
  /// server's busy horizon.
  SimTime serve(SimTime arrival, SimTime service) {
    SimTime begin = std::max(arrival, busy_until_);
    busy_until_ = begin + service;
    busy_accum_ += service;
    ++served_;
    return busy_until_;
  }

  /// Outstanding work at time `now` (0 when idle). This is the workload
  /// level the conflict-avoid encoding workflow compares.
  SimTime backlog(SimTime now) const {
    return std::max<SimTime>(0, busy_until_ - now);
  }

  /// Total busy time accumulated (utilization numerator).
  SimTime busy_time() const { return busy_accum_; }

  /// Number of requests served.
  std::uint64_t served() const { return served_; }

  /// Clears the horizon (server replaced after a failure).
  void reset(SimTime now) { busy_until_ = now; }

 private:
  SimTime busy_until_ = 0;
  SimTime busy_accum_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace corec::net
