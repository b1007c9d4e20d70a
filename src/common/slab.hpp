// Size-class slab pool for payload-sized allocations.
//
// The RPC serving path allocates in a narrow set of shapes: 256 KiB
// connection read buffers, frame bodies up to the inline cutover, and
// stripe-prep scratch. Steady state, those shapes recur millions of
// times per second, and general-purpose malloc turns each one into
// lock traffic and page churn. This pool serves them from recycled
// blocks instead:
//
//   - power-of-two size classes from 64 B to 256 KiB;
//   - a thread-local magazine per class (lock-free fast path);
//   - a bounded global free list per class that magazines spill to and
//     refill from (one mutex per class, touched only on magazine
//     miss/overflow);
//   - requests above the largest class fall through to the heap and
//     are counted separately.
//
// Counters land in payload_metrics() (pool_hits / pool_misses /
// pool_oversize / pool_outstanding_bytes) so benches can assert
// ~0 pool-miss allocations per op once the magazines are warm.
//
// Recycled blocks are ASan-poisoned while idle (when built with
// address sanitizer), and COREC_SLAB_POISON=1 additionally memsets
// freed blocks with 0xDB so stale views over recycled memory read
// garbage instead of plausible data.
#pragma once

#include <cstddef>
#include <cstdint>

namespace corec::slab {

/// Smallest size class. Sub-64 B requests round up to it.
inline constexpr std::size_t kMinClassBytes = 64;

/// Largest pooled size class; anything bigger goes straight to the
/// heap (multi-MiB put bodies are too big to cache per thread).
inline constexpr std::size_t kMaxClassBytes = 256u << 10;

/// Number of power-of-two classes in [kMinClassBytes, kMaxClassBytes].
inline constexpr std::size_t kNumClasses = 13;

/// Rounded capacity a request of `n` bytes is served with (== n for
/// oversize requests, which are exact heap allocations).
std::size_t class_capacity(std::size_t n);

/// Move-only owner of one pooled (or oversize heap) block. Destroying
/// the block returns it to the pool.
class Block {
 public:
  Block() = default;
  Block(Block&& other) noexcept { move_from(other); }
  Block& operator=(Block&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() { release(); }

  std::uint8_t* data() const { return ptr_; }
  /// Requested size (what the caller asked for).
  std::size_t size() const { return size_; }
  /// Usable capacity (the size class; >= size()).
  std::size_t capacity() const { return cap_; }
  bool empty() const { return ptr_ == nullptr; }
  explicit operator bool() const { return ptr_ != nullptr; }

 private:
  friend Block allocate(std::size_t n);

  void move_from(Block& other) noexcept {
    ptr_ = other.ptr_;
    size_ = other.size_;
    cap_ = other.cap_;
    cls_ = other.cls_;
    other.ptr_ = nullptr;
    other.size_ = 0;
    other.cap_ = 0;
    other.cls_ = -1;
  }
  void release();

  std::uint8_t* ptr_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  int cls_ = -1;  // class index, or -1 for an oversize heap block
};

/// Allocates `n` bytes (uninitialized). n == 0 yields an empty Block.
Block allocate(std::size_t n);

}  // namespace corec::slab
