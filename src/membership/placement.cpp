#include "membership/placement.hpp"

#include <algorithm>

namespace corec::membership {

std::vector<ServerId> place(const PoolMap& map, std::uint64_t object_key,
                            std::size_t count) {
  struct Scored {
    std::uint64_t score;
    ServerId id;
  };
  std::vector<Scored> scored;
  scored.reserve(map.size());
  for (const PoolTarget& t : map.targets()) {
    if (t.state != TargetState::kUp && t.state != TargetState::kJoining) {
      continue;
    }
    scored.push_back({placement_score(object_key, t.id), t.id});
  }
  if (count > scored.size()) count = scored.size();
  // Highest score first; ties (vanishingly rare with 64-bit scores)
  // break toward the lower id so the ranking stays total.
  auto better = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(count),
                    scored.end(), better);
  std::vector<ServerId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(scored[i].id);
  return out;
}

ServerId place_one(const PoolMap& map, std::uint64_t object_key) {
  ServerId best = kInvalidServer;
  std::uint64_t best_score = 0;
  for (const PoolTarget& t : map.targets()) {
    if (t.state != TargetState::kUp && t.state != TargetState::kJoining) {
      continue;
    }
    const std::uint64_t score = placement_score(object_key, t.id);
    // Same total order as place(): higher score wins, ties to lower id.
    if (best == kInvalidServer || score > best_score ||
        (score == best_score && t.id < best)) {
      best = t.id;
      best_score = score;
    }
  }
  return best;
}

}  // namespace corec::membership
