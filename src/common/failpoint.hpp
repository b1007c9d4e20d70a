// Failpoint fault-injection registry. Code sprinkles named evaluation
// sites (`COREC_FAILPOINT("meta.append.drop_ack")`) through the paths a
// production staging service must harden — writes, reads, replication,
// encoding handoff, recovery — and tests or `corec-sim --failpoints`
// arm those names with an action (error-return, delay, partial-write,
// bit-flip, crash-server). Unarmed, every site costs one relaxed load
// of a cold global atomic, so the hooks stay compiled into release
// builds at negligible overhead.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace corec::failpoint {

/// What a fired failpoint asks its site to do. Sites honour the actions
/// that make sense for them (a pure drop-the-message site only checks
/// whether the point fired at all).
enum class Action : std::uint8_t {
  kOff = 0,       // not firing
  kError,         // fail the operation with a Status error / drop it
  kDelay,         // add `arg` ns of virtual latency (0 = site default)
  kPartialWrite,  // truncate the write, keeping `arg` bytes (0 = half)
  kBitFlip,       // corrupt bytes; `rng` picks the offset (rpc.client.send:
                  // a nonzero `arg` pins it at arg - 1)
  kCrashServer,   // kill the server the site is operating on
};

const char* to_string(Action a);

/// Arming configuration for one named point.
struct Spec {
  Action action = Action::kError;
  double probability = 1.0;   // chance of firing per evaluation
  std::int64_t max_hits = -1; // auto-disarm after this many hits (-1 = never)
  std::int64_t skip = 0;      // evaluations to let pass before eligible
  std::uint64_t arg = 0;      // action-specific parameter
  std::uint64_t seed = 0x5eedfa17u;  // per-point deterministic rng stream
};

/// Result of evaluating a site: falsy when the point is unarmed or chose
/// not to fire this time.
struct Hit {
  Action action = Action::kOff;
  std::uint64_t arg = 0;
  std::uint64_t rng = 0;  // deterministic per-hit random draw
  explicit operator bool() const { return action != Action::kOff; }
};

namespace detail {
// Count of currently armed points; the fast-path gate.
extern std::atomic<int> g_armed_points;
Hit evaluate_slow(const char* name);
}  // namespace detail

/// Site-side evaluation. Release-mode cost when nothing is armed: one
/// relaxed atomic load and a predictable branch.
inline Hit evaluate(const char* name) {
  if (detail::g_armed_points.load(std::memory_order_relaxed) == 0) {
    return {};
  }
  return detail::evaluate_slow(name);
}

#define COREC_FAILPOINT(name) (::corec::failpoint::evaluate(name))

/// Process-wide registry of named points. Thread-safe; evaluation order
/// per point is deterministic given the arming sequence (per-point PCG
/// stream, no global entropy).
class Registry {
 public:
  /// Arms (or re-arms, resetting counters) a point.
  void arm(const std::string& name, Spec spec);

  /// Disarms a point; counters remain readable. Returns false if the
  /// name was never armed.
  bool disarm(const std::string& name);

  /// Arms points from a config string:
  ///   name=action[:p=P][:hits=N][:skip=N][:arg=N][:seed=N][;name=...]
  /// with action one of off|error|delay|partial|bitflip|crash.
  Status arm_from_string(const std::string& config);

  /// Arms from the COREC_FAILPOINTS environment variable, if set.
  /// Called once automatically on first registry access.
  Status arm_from_env();

  /// Lifetime counters for a point (0 if never armed).
  std::uint64_t evaluations(const std::string& name) const;
  std::uint64_t hits(const std::string& name) const;

  /// Names currently armed.
  std::vector<std::string> armed() const;

 private:
  friend Hit detail::evaluate_slow(const char* name);

  struct Point {
    Spec spec;
    Rng rng;
    std::int64_t skip_left = 0;
    std::uint64_t evals = 0;
    std::uint64_t hit_count = 0;
    // hit_count at arming time: max_hits counts hits of *this* arming,
    // while hit_count/evals survive re-arms as lifetime counters.
    std::uint64_t armed_base_hits = 0;
    bool armed = false;
  };

  Hit evaluate_locked(const char* name);

  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> points_;
};

/// The process-wide registry (arms from COREC_FAILPOINTS on first use).
Registry& registry();

/// RAII arming for tests: arms in the constructor, disarms on scope
/// exit even if the test fails mid-way.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string name, Spec spec) : name_(std::move(name)) {
    registry().arm(name_, spec);
  }
  ~ScopedFailpoint() { registry().disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

  std::uint64_t hits() const { return registry().hits(name_); }

 private:
  std::string name_;
};

}  // namespace corec::failpoint
