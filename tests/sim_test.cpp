// Discrete-event engine: ordering, determinism, run_until semantics.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace corec::sim {
namespace {

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(300, [&] { order.push_back(3); });
  sim.at(100, [&] { order.push_back(1); });
  sim.at(200, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulation, EqualTimesFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(50, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  SimTime observed = -1;
  sim.at(100, [&] {
    sim.after(50, [&] { observed = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(observed, 150);
}

TEST(Simulation, RunUntilStopsAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(20, [&] { ++fired; });
  sim.at(30, [&] { ++fired; });
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(25);
  EXPECT_EQ(sim.now(), 25);  // clock advances even with no events
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.after(1, chain);
  };
  sim.at(0, chain);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 4);
}

TEST(Simulation, ClearDropsPending) {
  Simulation sim;
  int fired = 0;
  sim.at(5, [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      sim.at((i * 37) % 50, [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace corec::sim
