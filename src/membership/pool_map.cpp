#include "membership/pool_map.hpp"

#include <algorithm>
#include <sstream>

#include "common/buffer.hpp"

namespace corec::membership {
namespace {

/// Format byte guarding decode against stale/foreign blobs.
constexpr std::uint8_t kPoolMapFormat = 1;

}  // namespace

const char* to_string(TargetState s) {
  switch (s) {
    case TargetState::kUp: return "UP";
    case TargetState::kJoining: return "JOINING";
    case TargetState::kDrain: return "DRAIN";
    case TargetState::kDown: return "DOWN";
  }
  return "UNKNOWN";
}

PoolMap PoolMap::initial(std::size_t count, std::size_t nodes_per_cabinet,
                         std::size_t servers_per_node) {
  PoolMap map;
  if (nodes_per_cabinet == 0) nodes_per_cabinet = 1;
  if (servers_per_node == 0) servers_per_node = 1;
  map.version_ = 1;
  map.targets_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    PoolTarget t;
    t.id = static_cast<ServerId>(s);
    t.node = static_cast<std::uint16_t>((s / servers_per_node) %
                                        nodes_per_cabinet);
    t.cabinet = static_cast<std::uint16_t>(
        s / (servers_per_node * nodes_per_cabinet));
    t.state = TargetState::kUp;
    t.state_version = 1;
    map.targets_.push_back(t);
  }
  return map;
}

std::size_t PoolMap::placement_count() const {
  std::size_t n = 0;
  for (const PoolTarget& t : targets_) {
    if (t.state == TargetState::kUp || t.state == TargetState::kJoining) ++n;
  }
  return n;
}

TargetState PoolMap::state_of(ServerId id) const {
  if (id >= targets_.size()) return TargetState::kDown;
  return targets_[id].state;
}

bool PoolMap::readable(ServerId id) const {
  return state_of(id) != TargetState::kDown;
}

ServerId PoolMap::add_target(std::uint16_t cabinet, std::uint16_t node) {
  PoolTarget t;
  t.id = static_cast<ServerId>(targets_.size());
  t.cabinet = cabinet;
  t.node = node;
  t.state = TargetState::kJoining;
  t.state_version = ++version_;
  targets_.push_back(t);
  return t.id;
}

Status PoolMap::set_state(ServerId id, TargetState state) {
  if (id >= targets_.size()) {
    return Status::FailedPrecondition("unknown pool target");
  }
  if (targets_[id].state == state) {
    return Status::FailedPrecondition("target already in requested state");
  }
  targets_[id].state = state;
  targets_[id].state_version = ++version_;
  return Status::Ok();
}

void PoolMap::encode(std::vector<std::uint8_t>* out) const {
  BufferWriter w(out);
  w.reserve(1 + 8 + 4 + targets_.size() * 17);
  w.put<std::uint8_t>(kPoolMapFormat);
  w.put<std::uint64_t>(version_);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(targets_.size()));
  for (const PoolTarget& t : targets_) {
    w.put<std::uint32_t>(t.id);
    w.put<std::uint16_t>(t.cabinet);
    w.put<std::uint16_t>(t.node);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(t.state));
    w.put<std::uint64_t>(t.state_version);
  }
}

StatusOr<PoolMap> PoolMap::decode(const std::uint8_t* data,
                                  std::size_t size) {
  BufferReader r(ByteSpan(data, size));
  std::uint8_t format = 0;
  COREC_RETURN_IF_ERROR(r.get(&format));
  if (format != kPoolMapFormat) {
    return Status::InvalidArgument("bad pool map format byte");
  }
  PoolMap map;
  std::uint32_t count = 0;
  COREC_RETURN_IF_ERROR(r.get(&map.version_));
  COREC_RETURN_IF_ERROR(r.get(&count));
  if (static_cast<std::size_t>(count) * 17 > r.remaining()) {
    return Status::InvalidArgument("pool map truncated");
  }
  map.targets_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    PoolTarget t;
    std::uint8_t state = 0;
    COREC_RETURN_IF_ERROR(r.get(&t.id));
    COREC_RETURN_IF_ERROR(r.get(&t.cabinet));
    COREC_RETURN_IF_ERROR(r.get(&t.node));
    COREC_RETURN_IF_ERROR(r.get(&state));
    COREC_RETURN_IF_ERROR(r.get(&t.state_version));
    if (t.id != i) {
      return Status::InvalidArgument("pool map target ids not dense");
    }
    if (state > static_cast<std::uint8_t>(TargetState::kDown)) {
      return Status::InvalidArgument("bad pool target state");
    }
    t.state = static_cast<TargetState>(state);
    map.targets_.push_back(t);
  }
  return map;
}

bool PoolMap::adopt(const PoolMap& other) {
  if (other.version_ <= version_) return false;
  version_ = other.version_;
  targets_ = other.targets_;
  return true;
}

std::uint64_t PoolMap::digest() const {
  std::vector<std::uint8_t> bytes;
  encode(&bytes);
  return fnv1a(ByteSpan(bytes.data(), bytes.size()));
}

std::string PoolMap::summary() const {
  std::size_t up = 0, joining = 0, drain = 0, down = 0;
  for (const PoolTarget& t : targets_) {
    switch (t.state) {
      case TargetState::kUp: ++up; break;
      case TargetState::kJoining: ++joining; break;
      case TargetState::kDrain: ++drain; break;
      case TargetState::kDown: ++down; break;
    }
  }
  std::ostringstream os;
  os << "v" << version_ << ": " << up << " up / " << joining
     << " joining / " << drain << " drain / " << down << " down";
  return os.str();
}

}  // namespace corec::membership
