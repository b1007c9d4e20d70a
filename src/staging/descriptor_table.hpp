// Open-addressing hash table keyed by ObjectDescriptor, for the
// descriptor maps whose iteration order feeds no decision (object
// stores, the directory's entity index, the classifier's records).
//
// Slots are a power-of-two array of {mixed 64-bit hash, node pointer},
// probed linearly; a probe compares the stored hash before it touches
// the 168-byte descriptor. Erase shifts the rest of the probe chain
// back instead of leaving tombstones, and the table doubles before
// its load passes 7/8. Each entry is its own heap node, so a pointer
// returned by find() or try_emplace() stays valid until that entry is
// erased (or the table cleared), whatever is inserted meanwhile.
//
// Iteration order (for_each) is unspecified and changes with growth:
// a map whose iteration order matters must not use this table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "staging/object.hpp"

namespace corec::staging {

/// DescriptorHash spread for a power-of-two mask: DescriptorHash is
/// FNV-style, whose low bits are weak, so a murmur3 finalizer mixes it.
struct MixedDescriptorHash {
  std::uint64_t operator()(const ObjectDescriptor& key) const {
    std::uint64_t h = DescriptorHash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }
};

/// `Hash` maps a descriptor to 64 bits whose low bits pick the home
/// slot; tests pass a degenerate one to force long probe chains.
template <typename V, typename Hash = MixedDescriptorHash>
class DescriptorTable {
 public:
  DescriptorTable() = default;
  ~DescriptorTable() { clear(); }
  DescriptorTable(const DescriptorTable&) = delete;
  DescriptorTable& operator=(const DescriptorTable&) = delete;
  DescriptorTable(DescriptorTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(std::exchange(other.mask_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  DescriptorTable& operator=(DescriptorTable&& other) noexcept {
    if (this != &other) {
      clear();
      slots_ = std::move(other.slots_);
      mask_ = std::exchange(other.mask_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(const ObjectDescriptor& key) {
    const std::size_t i = locate(key, hash_of(key));
    return i == kAbsent ? nullptr : &slots_[i].node->value;
  }
  const V* find(const ObjectDescriptor& key) const {
    return const_cast<DescriptorTable*>(this)->find(key);
  }

  /// The value of `key`, default-constructing it first when absent;
  /// `second` is true when it was inserted.
  std::pair<V*, bool> try_emplace(const ObjectDescriptor& key) {
    const std::uint64_t h = hash_of(key);
    const std::size_t found = locate(key, h);
    if (found != kAbsent) return {&slots_[found].node->value, false};
    if ((size_ + 1) * 8 > capacity() * 7) grow();
    std::size_t i = h & mask_;
    while (slots_[i].node != nullptr) i = (i + 1) & mask_;
    slots_[i] = {h, new Node{key, V{}}};
    ++size_;
    return {&slots_[i].node->value, true};
  }

  /// Removes `key`, moving its value to `*removed` when non-null;
  /// returns true if it was present.
  bool erase(const ObjectDescriptor& key, V* removed = nullptr) {
    std::size_t hole = locate(key, hash_of(key));
    if (hole == kAbsent) return false;
    if (removed != nullptr) *removed = std::move(slots_[hole].node->value);
    delete slots_[hole].node;
    --size_;
    // Backward shift: pull each later chain member whose home is not
    // inside (hole, j] into the hole, so no probe chain is broken.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].node != nullptr;
         j = (j + 1) & mask_) {
      const std::size_t home = slots_[j].hash & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    return true;
  }

  /// Drops every entry; the slot array keeps its size.
  void clear() {
    for (std::size_t i = 0; i < capacity(); ++i) {
      delete slots_[i].node;
      slots_[i] = Slot{};
    }
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in unspecified order. `fn`
  /// must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (Node* n = slots_[i].node) fn(std::as_const(n->key), n->value);
    }
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (const Node* n = slots_[i].node) fn(n->key, n->value);
    }
  }

 private:
  struct Node {
    ObjectDescriptor key;
    V value;
  };
  struct Slot {
    std::uint64_t hash = 0;
    Node* node = nullptr;  // nullptr = empty
  };
  static constexpr std::size_t kAbsent = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

  static std::uint64_t hash_of(const ObjectDescriptor& key) {
    return Hash{}(key);
  }

  std::size_t locate(const ObjectDescriptor& key, std::uint64_t h) const {
    if (size_ == 0) return kAbsent;
    for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.node == nullptr) return kAbsent;
      if (s.hash == h && s.node->key == key) return i;
    }
  }

  void grow() {
    const std::size_t old_capacity = capacity();
    const std::size_t new_capacity =
        old_capacity == 0 ? kMinCapacity : 2 * old_capacity;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i].node == nullptr) continue;
      std::size_t j = old[i].hash & mask_;
      while (slots_[j].node != nullptr) j = (j + 1) & mask_;
      slots_[j] = old[i];
    }
  }

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace corec::staging
