#include "sim/simulation.hpp"

#include <cassert>
#include <utility>

namespace corec::sim {

void Simulation::at(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.push(Event{t, seq_++, std::move(fn)});
}

void Simulation::run() {
  while (!queue_.empty()) {
    // priority_queue::top is const; moving the closure out requires the
    // const_cast idiom or a copy — copy is fine (std::function).
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.fn();
  }
}

void Simulation::run_until(SimTime t) {
  while (!queue_.empty() && queue_.top().time <= t) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    ev.fn();
  }
  if (now_ < t) now_ = t;
}

void Simulation::clear() {
  while (!queue_.empty()) queue_.pop();
}

}  // namespace corec::sim
