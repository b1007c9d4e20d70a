#include "common/slab.hpp"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <vector>

#include "common/buffer.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COREC_SLAB_ASAN 1
#endif
#endif
#if !defined(COREC_SLAB_ASAN) && defined(__SANITIZE_ADDRESS__)
#define COREC_SLAB_ASAN 1
#endif
#if defined(COREC_SLAB_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace corec::slab {
namespace {

constexpr std::size_t kClassCapacity(std::size_t cls) {
  return kMinClassBytes << cls;
}
static_assert(kClassCapacity(kNumClasses - 1) == kMaxClassBytes);

// Smallest class whose capacity covers n. Precondition: n <= kMaxClassBytes.
int class_of(std::size_t n) {
  int cls = 0;
  while (kClassCapacity(static_cast<std::size_t>(cls)) < n) ++cls;
  return cls;
}

// How many idle blocks a thread magazine holds per class: enough that
// the steady-state serving loop never touches the global lock, capped
// so big classes don't strand megabytes per idle thread.
std::size_t magazine_capacity(int cls) {
  const std::size_t cap = kClassCapacity(static_cast<std::size_t>(cls));
  const std::size_t by_bytes = (512u << 10) / cap;
  return by_bytes < 4 ? 4 : (by_bytes > 32 ? 32 : by_bytes);
}

// Global free-list bound per class (~4 MiB of idle capacity each);
// overflow beyond this is returned to the heap.
std::size_t global_capacity(int cls) {
  const std::size_t cap = kClassCapacity(static_cast<std::size_t>(cls));
  const std::size_t by_bytes = (4u << 20) / cap;
  return by_bytes < 8 ? 8 : by_bytes;
}

bool poison_env_enabled() {
  static const bool enabled = [] {
    const char* v = std::getenv("COREC_SLAB_POISON");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

void poison_idle(std::uint8_t* p, std::size_t cap) {
  if (poison_env_enabled()) std::memset(p, 0xDB, cap);
#if defined(COREC_SLAB_ASAN)
  ASAN_POISON_MEMORY_REGION(p, cap);
#else
  (void)p;
  (void)cap;
#endif
}

void unpoison(std::uint8_t* p, std::size_t cap) {
#if defined(COREC_SLAB_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(p, cap);
#else
  (void)p;
  (void)cap;
#endif
}

// Global free lists. Leaked singleton: thread magazines flush here
// from thread_local destructors, which may run after function-local
// statics are torn down, so the pool must never be destroyed.
struct GlobalPool {
  struct PerClass {
    std::mutex mu;
    std::vector<std::uint8_t*> free;
  };
  PerClass classes[kNumClasses];
};

GlobalPool& global_pool() {
  static GlobalPool* pool = new GlobalPool();
  return *pool;
}

struct Magazine {
  std::vector<std::uint8_t*> blocks[kNumClasses];

  ~Magazine() {
    for (int cls = 0; cls < static_cast<int>(kNumClasses); ++cls) {
      flush_class(cls);
    }
  }

  // Moves all but `keep` blocks of one class to the global list
  // (overflow spills to the heap once the global bound is hit).
  void flush_class(int cls, std::size_t keep = 0) {
    auto& mine = blocks[cls];
    if (mine.size() <= keep) return;
    auto& g = global_pool().classes[cls];
    const std::size_t bound = global_capacity(cls);
    std::vector<std::uint8_t*> spill;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      while (mine.size() > keep) {
        std::uint8_t* p = mine.back();
        mine.pop_back();
        if (g.free.size() < bound) {
          g.free.push_back(p);
        } else {
          spill.push_back(p);
        }
      }
    }
    const std::size_t cap = kClassCapacity(static_cast<std::size_t>(cls));
    for (std::uint8_t* p : spill) {
      unpoison(p, cap);
      ::operator delete(p);
    }
  }
};

Magazine& magazine() {
  thread_local Magazine mag;
  return mag;
}

}  // namespace

std::size_t class_capacity(std::size_t n) {
  if (n == 0) return 0;
  if (n > kMaxClassBytes) return n;
  return kClassCapacity(static_cast<std::size_t>(class_of(n)));
}

Block allocate(std::size_t n) {
  Block b;
  if (n == 0) return b;
  auto& metrics = payload_metrics();
  if (n > kMaxClassBytes) {
    b.ptr_ = static_cast<std::uint8_t*>(::operator new(n));
    b.size_ = n;
    b.cap_ = n;
    b.cls_ = -1;
    metrics.pool_oversize.fetch_add(1, std::memory_order_relaxed);
    metrics.pool_outstanding_bytes.fetch_add(
        static_cast<std::int64_t>(n), std::memory_order_relaxed);
    return b;
  }
  const int cls = class_of(n);
  const std::size_t cap = kClassCapacity(static_cast<std::size_t>(cls));
  auto& mine = magazine().blocks[cls];
  std::uint8_t* p = nullptr;
  if (!mine.empty()) {
    p = mine.back();
    mine.pop_back();
    metrics.pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Refill half a magazine from the global list in one lock hold.
    auto& g = global_pool().classes[cls];
    const std::size_t want = magazine_capacity(cls) / 2;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      while (!g.free.empty() && mine.size() < want) {
        mine.push_back(g.free.back());
        g.free.pop_back();
      }
      if (!mine.empty()) {
        p = mine.back();
        mine.pop_back();
      }
    }
    if (p != nullptr) {
      metrics.pool_hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      p = static_cast<std::uint8_t*>(::operator new(cap));
      metrics.pool_misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  unpoison(p, cap);
  metrics.pool_outstanding_bytes.fetch_add(static_cast<std::int64_t>(cap),
                                           std::memory_order_relaxed);
  b.ptr_ = p;
  b.size_ = n;
  b.cap_ = cap;
  b.cls_ = cls;
  return b;
}

void Block::release() {
  if (ptr_ == nullptr) return;
  payload_metrics().pool_outstanding_bytes.fetch_sub(
      static_cast<std::int64_t>(cap_), std::memory_order_relaxed);
  if (cls_ < 0) {
    ::operator delete(ptr_);
  } else {
    poison_idle(ptr_, cap_);
    auto& mine = magazine().blocks[cls_];
    const std::size_t mag_cap = magazine_capacity(cls_);
    mine.push_back(ptr_);
    if (mine.size() > mag_cap) {
      magazine().flush_class(cls_, mag_cap / 2);
    }
  }
  ptr_ = nullptr;
  size_ = 0;
  cap_ = 0;
  cls_ = -1;
}

}  // namespace corec::slab
