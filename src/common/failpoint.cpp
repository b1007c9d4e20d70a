#include "common/failpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace corec::failpoint {

namespace detail {
std::atomic<int> g_armed_points{0};

Hit evaluate_slow(const char* name) {
  return registry().evaluate_locked(name);
}
}  // namespace detail

const char* to_string(Action a) {
  switch (a) {
    case Action::kOff: return "off";
    case Action::kError: return "error";
    case Action::kDelay: return "delay";
    case Action::kPartialWrite: return "partial";
    case Action::kBitFlip: return "bitflip";
    case Action::kCrashServer: return "crash";
  }
  return "?";
}

namespace {

bool parse_action(std::string_view s, Action* out) {
  if (s == "off") *out = Action::kOff;
  else if (s == "error") *out = Action::kError;
  else if (s == "delay") *out = Action::kDelay;
  else if (s == "partial") *out = Action::kPartialWrite;
  else if (s == "bitflip") *out = Action::kBitFlip;
  else if (s == "crash") *out = Action::kCrashServer;
  else return false;
  return true;
}

}  // namespace

void Registry::arm(const std::string& name, Spec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  Point& p = points_[name];
  const bool was_armed = p.armed;
  const std::uint64_t evals = p.evals;
  const std::uint64_t hit_count = p.hit_count;
  p = Point();
  p.spec = spec;
  p.rng = Rng(spec.seed, 0x0fa11u);
  p.skip_left = spec.skip;
  p.evals = evals;
  p.hit_count = hit_count;
  p.armed_base_hits = hit_count;
  p.armed = spec.action != Action::kOff;
  if (p.armed && !was_armed) {
    detail::g_armed_points.fetch_add(1, std::memory_order_relaxed);
  } else if (!p.armed && was_armed) {
    detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
  }
}

bool Registry::disarm(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return false;
  if (it->second.armed) {
    it->second.armed = false;
    detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
  }
  return true;
}

Hit Registry::evaluate_locked(const char* name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return {};
  Point& p = it->second;
  ++p.evals;
  if (p.skip_left > 0) {
    --p.skip_left;
    return {};
  }
  if (p.spec.probability < 1.0 && !p.rng.bernoulli(p.spec.probability)) {
    return {};
  }
  ++p.hit_count;
  Hit hit{p.spec.action, p.spec.arg, p.rng.next_u64()};
  if (p.spec.max_hits >= 0 &&
      p.hit_count - p.armed_base_hits >=
          static_cast<std::uint64_t>(p.spec.max_hits)) {
    p.armed = false;
    detail::g_armed_points.fetch_sub(1, std::memory_order_relaxed);
  }
  return hit;
}

Status Registry::arm_from_string(const std::string& config) {
  std::string_view rest = config;
  while (!rest.empty()) {
    std::size_t sep = rest.find(';');
    std::string_view entry = rest.substr(0, sep);
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (entry.empty()) continue;

    std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("failpoint config entry needs name=action: " +
                                     std::string(entry));
    }
    std::string name(entry.substr(0, eq));
    std::string_view opts = entry.substr(eq + 1);

    std::size_t colon = opts.find(':');
    std::string_view action_str = opts.substr(0, colon);
    Spec spec;
    if (!parse_action(action_str, &spec.action)) {
      return Status::InvalidArgument("unknown failpoint action: " +
                                     std::string(action_str));
    }
    opts = colon == std::string_view::npos ? std::string_view{}
                                           : opts.substr(colon + 1);
    while (!opts.empty()) {
      std::size_t next = opts.find(':');
      std::string_view kv = opts.substr(0, next);
      opts = next == std::string_view::npos ? std::string_view{}
                                            : opts.substr(next + 1);
      std::size_t kveq = kv.find('=');
      if (kveq == std::string_view::npos) {
        return Status::InvalidArgument("failpoint option needs key=value: " +
                                       std::string(kv));
      }
      std::string_view key = kv.substr(0, kveq);
      std::string val(kv.substr(kveq + 1));
      char* end = nullptr;
      if (key == "p") {
        spec.probability = std::strtod(val.c_str(), &end);
      } else if (key == "hits") {
        spec.max_hits = std::strtoll(val.c_str(), &end, 10);
      } else if (key == "skip") {
        spec.skip = std::strtoll(val.c_str(), &end, 10);
      } else if (key == "arg") {
        spec.arg = std::strtoull(val.c_str(), &end, 10);
      } else if (key == "seed") {
        spec.seed = std::strtoull(val.c_str(), &end, 10);
      } else {
        return Status::InvalidArgument("unknown failpoint option: " +
                                       std::string(key));
      }
      if (end == val.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad failpoint option value: " +
                                       std::string(kv));
      }
    }
    arm(name, spec);
  }
  return Status::Ok();
}

Status Registry::arm_from_env() {
  const char* env = std::getenv("COREC_FAILPOINTS");
  if (env == nullptr || *env == '\0') return Status::Ok();
  Status s = arm_from_string(env);
  if (!s.ok()) {
    std::fprintf(stderr, "[WARN ] ignoring bad COREC_FAILPOINTS: %s\n",
                 s.message().c_str());
  }
  return s;
}

std::uint64_t Registry::evaluations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.evals;
}

std::uint64_t Registry::hits(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hit_count;
}

std::vector<std::string> Registry::armed() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [name, p] : points_) {
    if (p.armed) out.push_back(name);
  }
  return out;
}

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry();
    // Bad env configs are logged inside arm_from_env; boot continues.
    (void)r->arm_from_env();
    return r;
  }();
  return *instance;
}

}  // namespace corec::failpoint
