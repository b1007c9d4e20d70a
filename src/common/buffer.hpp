// Byte buffers and a small binary serialization layer used by the staging
// transport for message payloads and metadata records.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "common/status.hpp"

namespace corec {

/// Owned byte payload of a staged object or wire message.
using Bytes = std::vector<std::uint8_t>;

/// Read-only view over bytes (non-owning).
using ByteSpan = std::span<const std::uint8_t>;

/// Mutable view over bytes (non-owning).
using MutableByteSpan = std::span<std::uint8_t>;

/// Process-wide counters for payload-buffer traffic. The benches read
/// these to prove replication is O(1) allocations per object and that
/// unmutated reads skip CRC recompute; tests reset() them per case.
struct PayloadMetrics {
  std::atomic<std::uint64_t> allocations{0};    // backing stores created
  std::atomic<std::uint64_t> bytes_copied{0};   // bytes memcpy'd into them
  std::atomic<std::uint64_t> cow_detaches{0};   // private copies on mutate
  std::atomic<std::uint64_t> crc_computed{0};   // full CRC32C passes
  std::atomic<std::uint64_t> crc_cache_hits{0}; // recomputes avoided

  // Slab-pool traffic (maintained by corec::slab). outstanding_bytes is
  // a gauge (live block capacity), so reset() leaves it alone —
  // zeroing it while blocks are live would corrupt the accounting.
  std::atomic<std::uint64_t> pool_hits{0};      // served from a free list
  std::atomic<std::uint64_t> pool_misses{0};    // fresh heap carve
  std::atomic<std::uint64_t> pool_oversize{0};  // above largest class
  std::atomic<std::int64_t> pool_outstanding_bytes{0};

  void reset() {
    allocations.store(0, std::memory_order_relaxed);
    bytes_copied.store(0, std::memory_order_relaxed);
    cow_detaches.store(0, std::memory_order_relaxed);
    crc_computed.store(0, std::memory_order_relaxed);
    crc_cache_hits.store(0, std::memory_order_relaxed);
    pool_hits.store(0, std::memory_order_relaxed);
    pool_misses.store(0, std::memory_order_relaxed);
    pool_oversize.store(0, std::memory_order_relaxed);
  }
};

PayloadMetrics& payload_metrics();

/// Refcounted, logically-immutable byte buffer with cheap slicing.
///
/// Copying a PayloadBuffer bumps a refcount on the shared backing store;
/// N-way replica placement therefore costs N pointer copies, not N
/// payload copies. `slice()` produces views into the same store, so
/// erasure transitions can feed chunk views straight into encode_view
/// with zero concatenation. Mutation goes through `mutable_span()`,
/// which takes a private copy first when the store is shared
/// (copy-on-write) — fault injection on one replica can never alias
/// into its siblings.
///
/// Each mutation bumps the store's generation counter; `crc32c()`
/// caches the last computed tag against that generation, so unmutated
/// reads skip recompute while a corrupted buffer always re-checksums.
/// The cache only ever holds values computed from this view's own
/// bytes — by crc32c(), or by copy_with_crc() over the bytes it copies
/// into the store, in the same pass — and claimed tags from the wire
/// never seed it.
///
/// Thread-safety: the refcount and generation are atomic, so distinct
/// views may be copied/read concurrently (an RPC response slice is read
/// and dropped on another thread than the one reusing its read
/// buffer). Mutating a view, or calling crc32c() on the *same*
/// view from two threads, requires external synchronization — the
/// simulator is single-threaded, and ShardedObjectStore holds its
/// per-shard writer lock across mutations, which satisfies this.
class PayloadBuffer {
 public:
  PayloadBuffer() = default;

  /// Takes ownership of `bytes` as a new backing store (one allocation,
  /// zero copies).
  static PayloadBuffer wrap(Bytes bytes);

  /// Takes ownership of a slab block as a new backing store; the view
  /// covers the block's requested size. Zero copies; the block returns
  /// to the pool when the last view drops.
  static PayloadBuffer adopt(slab::Block block);

  /// A fresh pool-backed store of `size` uninitialized bytes.
  static PayloadBuffer from_pool(std::size_t size);

  /// Copies `data` into a fresh pool-backed store.
  static PayloadBuffer copy_of(ByteSpan data);

  /// copy_of that checksums the bytes in the same pass (crc32c_copy)
  /// and caches the tag, so the following crc32c() is free. Counts one
  /// crc_computed and, as an ingest copy like copy_region into
  /// from_pool(), no bytes_copied.
  static PayloadBuffer copy_with_crc(ByteSpan data);

  /// A fresh zero-filled pool-backed store of `size` bytes.
  static PayloadBuffer zeros(std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const {
    return rep_ == nullptr ? nullptr : rep_->base + offset_;
  }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }
  ByteSpan span() const { return {data(), size_}; }
  ByteSpan subspan(std::size_t offset, std::size_t length) const {
    return span().subspan(offset, length);
  }

  /// View of `[offset, offset+length)` sharing this backing store.
  PayloadBuffer slice(std::size_t offset, std::size_t length) const;

  /// View of the first `length` bytes sharing this backing store.
  PayloadBuffer prefix(std::size_t length) const { return slice(0, length); }

  /// True when both views share one backing store.
  bool shares_with(const PayloadBuffer& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  /// Number of views over this backing store (0 for the empty buffer).
  /// A relaxed read: it does not order other views' accesses before the
  /// caller's next ones.
  long use_count() const { return rep_ == nullptr ? 0 : rep_.use_count(); }

  /// True when this is the only view of its backing store. Unlike
  /// use_count() == 1, a true answer also orders every access other
  /// views made before they dropped before whatever the caller does
  /// next, so the caller may rewrite the store in place.
  bool exclusive() const;

  /// Bytes of backing store this view keeps alive (>= size() for a
  /// slice). The serving path uses this to decide when a small view is
  /// parking a large read buffer and should be compacted instead.
  std::size_t store_size() const { return rep_ == nullptr ? 0 : rep_->len; }

  /// Returns *this when the view wastes at most `max_waste_bytes` of
  /// backing store, otherwise a compact pool-backed copy — releasing
  /// the large store once all other views drop.
  PayloadBuffer compacted(std::size_t max_waste_bytes) const;

  /// Mutation epoch of the backing store; bumps on every mutable_span().
  std::uint64_t generation() const {
    return rep_ == nullptr
               ? 0
               : rep_->generation.load(std::memory_order_relaxed);
  }

  /// Writable access. Detaches to a private copy first when the store
  /// is shared or this view covers only part of it; always bumps the
  /// generation so cached CRC tags are invalidated.
  MutableByteSpan mutable_span();

  /// CRC32C of this view, cached per (view, generation).
  std::uint32_t crc32c() const;

  /// Materializes an owned copy of this view's bytes.
  Bytes to_bytes() const;

  friend bool operator==(const PayloadBuffer& a, const PayloadBuffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const PayloadBuffer& a, const Bytes& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  // Backing store: either an owned Bytes vector (wrap()) or a slab
  // block (from_pool()/adopt()). base/len describe the store
  // uniformly; neither backing ever reallocates, so raw pointers into
  // the store stay valid for the Rep's lifetime.
  struct Rep {
    Bytes bytes;
    slab::Block block;
    std::uint8_t* base = nullptr;
    std::size_t len = 0;
    std::atomic<std::uint64_t> generation{0};
  };

  static std::shared_ptr<Rep> make_rep(Bytes bytes);
  static std::shared_ptr<Rep> make_rep(slab::Block block);

  std::shared_ptr<Rep> rep_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
  // Last CRC this view computed, valid while the store's generation
  // still matches crc_gen_. Mutable: crc32c() is logically const.
  mutable std::uint32_t crc_ = 0;
  mutable std::uint64_t crc_gen_ = 0;
  mutable bool crc_valid_ = false;
};

/// Appends POD values and length-prefixed blobs to a growing byte vector.
/// Little-endian fixed-width encoding: deterministic across platforms we
/// target and trivially fast.
class BufferWriter {
 public:
  explicit BufferWriter(Bytes* out) : out_(out) {}

  /// Pre-sizes for `extra` more bytes. Encoders that know their output
  /// length call this once up front instead of growing per-field.
  void reserve(std::size_t extra) { out_->reserve(out_->size() + extra); }

  // Grows explicitly, then resizes within capacity and copies: a range
  // insert() inlined into the encoders makes GCC 12 warn of a stringop
  // overflow in Release builds (and a bare resize + memcpy of an array
  // bounds one), since it cannot prove the grown storage is big enough.
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out_->size();
    if (out_->capacity() - at < sizeof(T)) {
      out_->reserve(std::max<std::size_t>(2 * out_->capacity(), at + 64));
    }
    out_->resize(at + sizeof(T));
    std::memcpy(out_->data() + at, &v, sizeof(T));
  }

  void put_bytes(ByteSpan data) {
    put<std::uint64_t>(data.size());
    out_->insert(out_->end(), data.begin(), data.end());
  }

 private:
  Bytes* out_;
};

/// Default ceiling on a single length-prefixed blob/string a
/// BufferReader will accept. Network-facing decoders pass a tighter
/// limit; the default guards even trusted-file paths against a corrupt
/// length field turning into a giant allocation.
inline constexpr std::size_t kDefaultMaxBlobBytes = 256u << 20;

/// Sequentially decodes values previously written by BufferWriter.
///
/// Hardened against hostile input (frames come off the network): every
/// read is bounds-checked in overflow-safe form (`n > remaining()`
/// rather than `pos_ + n > size()`, which wraps for huge declared
/// lengths), and length-prefixed fields are rejected before allocation
/// when the declared length exceeds either the bytes actually present
/// or the configured `max_blob` ceiling.
class BufferReader {
 public:
  explicit BufferReader(ByteSpan data,
                        std::size_t max_blob = kDefaultMaxBlobBytes)
      : data_(data), max_blob_(max_blob) {}

  template <typename T>
  Status get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (sizeof(T) > remaining()) {
      return Status::InvalidArgument("buffer underrun");
    }
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  Status get_bytes(Bytes* out) {
    std::uint64_t n = 0;
    COREC_RETURN_IF_ERROR(check_blob_length(&n, "blob"));
    out->assign(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return Status::Ok();
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t max_blob() const { return max_blob_; }

 private:
  /// Reads a length prefix and validates it against both the bytes
  /// remaining and the blob ceiling, without ever computing pos_ + n.
  Status check_blob_length(std::uint64_t* n, const char* what) {
    COREC_RETURN_IF_ERROR(get(n));
    if (*n > max_blob_) {
      return Status::InvalidArgument(
          std::string("declared ") + what + " length exceeds max");
    }
    if (*n > remaining()) {
      return Status::InvalidArgument(std::string("buffer underrun (") +
                                     what + ")");
    }
    return Status::Ok();
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
  std::size_t max_blob_;
};

/// FNV-1a 64-bit content hash; used for integrity checks in tests and for
/// deterministic payload generation fingerprints.
inline std::uint64_t fnv1a(ByteSpan data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace corec
