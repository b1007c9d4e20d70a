// Deterministic discrete-event simulation engine. The cluster timeline
// (time steps, failure injections, replacement joins, lazy-recovery
// deadlines) is driven by events scheduled here; fine-grained network and
// service latencies inside an event are computed analytically against
// per-server service queues (see net/queueing.hpp). Determinism: events
// at equal times fire in scheduling order.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace corec::sim {

/// Event-driven virtual-time executor.
class Simulation {
 public:
  /// Current virtual time (ns).
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now).
  void at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` `delay` ns after the current time.
  void after(SimTime delay, std::function<void()> fn) {
    at(now_ + delay, std::move(fn));
  }

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with time <= `t`, then sets now to `t`.
  void run_until(SimTime t);

  /// Drops all pending events (used to terminate open-ended benches).
  void clear();

  /// Number of events still pending.
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace corec::sim
