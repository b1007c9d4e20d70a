#include "rpc/frame.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/checksum.hpp"

namespace corec::rpc {

void encode_frame_header(const FrameHeader& header, Bytes* out) {
  BufferWriter w(out);
  w.reserve(kFrameHeaderBytes);
  w.put<std::uint32_t>(kFrameMagic);
  w.put<std::uint8_t>(header.version);
  w.put<std::uint8_t>(header.opcode);
  w.put<std::uint16_t>(header.code);
  w.put<std::uint64_t>(header.request_id);
  w.put<std::uint32_t>(header.body_len);
}

StatusOr<FrameHeader> decode_frame_header(ByteSpan bytes,
                                          std::size_t max_body) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header must be 20 bytes");
  }
  BufferReader r(bytes);
  std::uint32_t magic = 0;
  COREC_RETURN_IF_ERROR(r.get(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  FrameHeader h;
  COREC_RETURN_IF_ERROR(r.get(&h.version));
  COREC_RETURN_IF_ERROR(r.get(&h.opcode));
  COREC_RETURN_IF_ERROR(r.get(&h.code));
  COREC_RETURN_IF_ERROR(r.get(&h.request_id));
  COREC_RETURN_IF_ERROR(r.get(&h.body_len));
  if (h.version != kProtocolVersion) {
    return Status::InvalidArgument("protocol version mismatch");
  }
  if (h.body_len > max_body) {
    return Status::InvalidArgument("frame body exceeds max frame size");
  }
  return h;
}

FrameAssembler::FrameAssembler(FrameAssemblerOptions opts)
    : opts_(opts),
      chunk_(opts.read_chunk_bytes),
      cutover_(std::min(opts.inline_body_cutover, opts.max_body)) {
  // Rotation carries over at most a partial header plus a partial
  // inline body (< kFrameHeaderBytes + cutover_). Keep the chunk
  // comfortably bigger so every rotation frees real tail space and
  // tests may pick tiny chunks without wedging.
  chunk_ = std::max(chunk_, 2 * kFrameHeaderBytes + cutover_ + 64);
}

void FrameAssembler::ensure_buffer() {
  if (base_ == nullptr) {
    buf_ = PayloadBuffer::adopt(slab::allocate(chunk_));
    base_ = const_cast<std::uint8_t*>(buf_.data());
    filled_ = 0;
    parsed_ = 0;
    return;
  }
  if (parsed_ == filled_ && buf_.exclusive()) {
    // Fully parsed and no body slice parks the store: recycle in place.
    // exclusive() also orders the last reads of slices dropped on other
    // threads before the next recv() rewrites the store.
    filled_ = 0;
    parsed_ = 0;
    return;
  }
  if (filled_ == chunk_) {
    // Buffer exhausted (or parked by outstanding slices): rotate to a
    // fresh pooled buffer, carrying the unparsed remnant. The old
    // store returns to the pool when its last body slice drops.
    const std::size_t leftover = filled_ - parsed_;
    PayloadBuffer next = PayloadBuffer::adopt(slab::allocate(chunk_));
    auto* next_base = const_cast<std::uint8_t*>(next.data());
    if (leftover > 0) {
      std::memcpy(next_base, base_ + parsed_, leftover);
      payload_metrics().bytes_copied.fetch_add(leftover,
                                               std::memory_order_relaxed);
    }
    buf_ = std::move(next);
    base_ = next_base;
    filled_ = leftover;
    parsed_ = 0;
  }
}

MutableByteSpan FrameAssembler::next_span() {
  if (poisoned_) return {};
  if (in_direct_) {
    // Read straight into the body's own block. Under crc_large_bodies
    // each read is capped at the read buffer's size, so advance() takes
    // the CRC of bytes the kernel has only just written.
    std::size_t want = direct_header_.body_len - direct_have_;
    if (opts_.crc_large_bodies) want = std::min(want, chunk_);
    return {direct_block_.data() + direct_have_, want};
  }
  ensure_buffer();
  return {base_ + filled_, chunk_ - filled_};
}

Status FrameAssembler::parse() {
  while (true) {
    const std::size_t avail = filled_ - parsed_;
    if (avail < kFrameHeaderBytes) return Status::Ok();
    auto header =
        decode_frame_header({base_ + parsed_, kFrameHeaderBytes},
                            opts_.max_body);
    if (!header.ok()) {
      // A byte stream with a corrupt header cannot be resynchronized;
      // refuse all further input so the caller drops the connection.
      poisoned_ = true;
      return header.status();
    }
    const std::size_t body_len = header->body_len;
    const std::size_t body_avail = avail - kFrameHeaderBytes;
    if (body_avail >= body_len) {
      // Complete frame in the buffer: the body is a zero-copy slice
      // sharing the read buffer's store (empty for body_len == 0).
      Frame f;
      f.header = *header;
      if (body_len > 0) {
        f.body = buf_.slice(parsed_ + kFrameHeaderBytes, body_len);
      }
      ready_frames_.push_back(std::move(f));
      parsed_ += kFrameHeaderBytes + body_len;
      continue;
    }
    if (body_len <= cutover_) {
      // Small body still mid-flight: wait for more buffered bytes
      // (rotation carries this remnant if the buffer fills first).
      return Status::Ok();
    }
    if (body_len <= chunk_ - parsed_ - kFrameHeaderBytes) {
      // Large body that fits in the buffer's free tail: keep reading
      // into it, so it becomes the same zero-copy slice it would have
      // been had the whole frame arrived in one recv. The frame
      // completes before the buffer fills, so no rotation carries it.
      return Status::Ok();
    }
    // Large body that would overflow the read buffer: assemble it
    // directly in its own pooled allocation.
    direct_block_ = slab::allocate(body_len);
    std::uint8_t* dst = direct_block_.data();
    const std::uint8_t* src = base_ + parsed_ + kFrameHeaderBytes;
    if (opts_.crc_large_bodies) {
      direct_crc_ = crc32c_copy(dst, src, body_avail);
    } else {
      std::memcpy(dst, src, body_avail);
    }
    payload_metrics().bytes_copied.fetch_add(body_avail,
                                             std::memory_order_relaxed);
    direct_have_ = body_avail;
    direct_header_ = *header;
    in_direct_ = true;
    parsed_ += kFrameHeaderBytes + body_avail;
    return Status::Ok();
  }
}

Status FrameAssembler::advance(std::size_t n) {
  if (poisoned_) {
    return Status::FailedPrecondition("assembler poisoned");
  }
  if (in_direct_) {
    const std::size_t want = direct_header_.body_len - direct_have_;
    if (n > want) {
      return Status::InvalidArgument("advance past frame boundary");
    }
    if (opts_.crc_large_bodies) {
      direct_crc_ = crc32c(direct_block_.data() + direct_have_, n, direct_crc_);
    }
    direct_have_ += n;
    if (direct_have_ == direct_header_.body_len) {
      Frame f;
      f.header = direct_header_;
      f.body = PayloadBuffer::adopt(std::move(direct_block_));
      if (opts_.crc_large_bodies) {
        f.body_crc = direct_crc_;
        payload_metrics().crc_computed.fetch_add(1,
                                                 std::memory_order_relaxed);
      }
      ready_frames_.push_back(std::move(f));
      in_direct_ = false;
      direct_have_ = 0;
      // Bytes after the large body may already sit in the read buffer.
      return parse();
    }
    return Status::Ok();
  }
  // Geometry was fixed by next_span() (which the caller recv'd into);
  // recycling or rotating here would invalidate the bytes just written.
  if (base_ == nullptr || n > chunk_ - filled_) {
    if (n == 0) return Status::Ok();
    return Status::InvalidArgument("advance past buffer capacity");
  }
  filled_ += n;
  return parse();
}

Frame FrameAssembler::take_frame() {
  Frame f = std::move(ready_frames_.front());
  ready_frames_.pop_front();
  return f;
}

}  // namespace corec::rpc
