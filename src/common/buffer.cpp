#include "common/buffer.hpp"

#include <utility>

#include "common/checksum.hpp"

namespace corec {

PayloadMetrics& payload_metrics() {
  static PayloadMetrics metrics;
  return metrics;
}

std::shared_ptr<PayloadBuffer::Rep> PayloadBuffer::make_rep(Bytes bytes) {
  auto rep = std::make_shared<Rep>();
  rep->bytes = std::move(bytes);
  rep->base = rep->bytes.data();
  rep->len = rep->bytes.size();
  payload_metrics().allocations.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

std::shared_ptr<PayloadBuffer::Rep> PayloadBuffer::make_rep(
    slab::Block block) {
  auto rep = std::make_shared<Rep>();
  rep->block = std::move(block);
  rep->base = rep->block.data();
  rep->len = rep->block.size();
  payload_metrics().allocations.fetch_add(1, std::memory_order_relaxed);
  return rep;
}

PayloadBuffer PayloadBuffer::wrap(Bytes bytes) {
  PayloadBuffer buf;
  if (bytes.empty()) return buf;
  buf.size_ = bytes.size();
  buf.rep_ = make_rep(std::move(bytes));
  return buf;
}

PayloadBuffer PayloadBuffer::adopt(slab::Block block) {
  PayloadBuffer buf;
  if (block.empty()) return buf;
  buf.size_ = block.size();
  buf.rep_ = make_rep(std::move(block));
  return buf;
}

PayloadBuffer PayloadBuffer::from_pool(std::size_t size) {
  return adopt(slab::allocate(size));
}

PayloadBuffer PayloadBuffer::copy_of(ByteSpan data) {
  PayloadBuffer buf = from_pool(data.size());
  if (!data.empty()) {
    std::memcpy(buf.rep_->base, data.data(), data.size());
    payload_metrics().bytes_copied.fetch_add(data.size(),
                                             std::memory_order_relaxed);
  }
  return buf;
}

PayloadBuffer PayloadBuffer::copy_with_crc(ByteSpan data) {
  PayloadBuffer buf = from_pool(data.size());
  if (data.empty()) return buf;
  buf.crc_ = corec::crc32c_copy(buf.rep_->base, data.data(), data.size());
  buf.crc_gen_ = buf.generation();
  buf.crc_valid_ = true;
  payload_metrics().crc_computed.fetch_add(1, std::memory_order_relaxed);
  return buf;
}

PayloadBuffer PayloadBuffer::zeros(std::size_t size) {
  PayloadBuffer buf = from_pool(size);
  if (size > 0) std::memset(buf.rep_->base, 0, size);
  return buf;
}

PayloadBuffer PayloadBuffer::slice(std::size_t offset,
                                   std::size_t length) const {
  PayloadBuffer view;
  if (length == 0 || rep_ == nullptr || offset >= size_) return view;
  if (length > size_ - offset) length = size_ - offset;
  view.rep_ = rep_;
  view.offset_ = offset_ + offset;
  view.size_ = length;
  // An identical view inherits the cached tag; a proper sub-range
  // covers different bytes and must recompute.
  if (offset == 0 && length == size_ && crc_valid_) {
    view.crc_ = crc_;
    view.crc_gen_ = crc_gen_;
    view.crc_valid_ = true;
  }
  return view;
}

bool PayloadBuffer::exclusive() const {
  if (rep_ == nullptr) return false;
  // Copying and dropping a shared_ptr are acq_rel read-modify-writes of
  // its count, so the drop acquires the release each earlier view made
  // when it dropped; a bare use_count() load would not.
  std::shared_ptr<Rep> probe = rep_;
  const bool sole = probe.use_count() == 2;
  probe.reset();
  return sole;
}

MutableByteSpan PayloadBuffer::mutable_span() {
  if (rep_ == nullptr || size_ == 0) return {};
  auto& metrics = payload_metrics();
  // exclusive() acquires: an in-place write must be ordered after the
  // reads of views dropped on other threads.
  const bool shared = !exclusive();
  const bool partial = offset_ != 0 || size_ != rep_->len;
  if (shared || partial) {
    auto priv = make_rep(slab::allocate(size_));
    std::memcpy(priv->base, rep_->base + offset_, size_);
    metrics.bytes_copied.fetch_add(size_, std::memory_order_relaxed);
    metrics.cow_detaches.fetch_add(1, std::memory_order_relaxed);
    rep_ = std::move(priv);
    offset_ = 0;
  }
  rep_->generation.fetch_add(1, std::memory_order_relaxed);
  crc_valid_ = false;
  return {rep_->base, size_};
}

PayloadBuffer PayloadBuffer::compacted(std::size_t max_waste_bytes) const {
  if (rep_ == nullptr || rep_->len - size_ <= max_waste_bytes) return *this;
  PayloadBuffer compact = copy_of(span());
  // Compacting preserves content, so an already-computed tag carries over.
  if (crc_valid_) {
    compact.crc_ = crc_;
    compact.crc_gen_ = compact.generation();
    compact.crc_valid_ = true;
  }
  return compact;
}

std::uint32_t PayloadBuffer::crc32c() const {
  if (rep_ == nullptr || size_ == 0) return 0;
  auto& metrics = payload_metrics();
  const std::uint64_t gen = rep_->generation.load(std::memory_order_relaxed);
  if (crc_valid_ && crc_gen_ == gen) {
    metrics.crc_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return crc_;
  }
  crc_ = corec::crc32c(data(), size_);
  crc_gen_ = gen;
  crc_valid_ = true;
  metrics.crc_computed.fetch_add(1, std::memory_order_relaxed);
  return crc_;
}

Bytes PayloadBuffer::to_bytes() const {
  if (rep_ == nullptr || size_ == 0) return {};
  payload_metrics().bytes_copied.fetch_add(size_, std::memory_order_relaxed);
  const std::uint8_t* p = rep_->base + offset_;
  return Bytes(p, p + size_);
}

}  // namespace corec
