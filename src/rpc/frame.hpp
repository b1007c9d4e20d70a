// Length-prefixed binary RPC framing. Every message on a CoREC RPC
// connection is one frame: a fixed 20-byte header (magic, protocol
// version, opcode, status code, request id, body length) followed by
// `body_len` body bytes. The body payload format is the existing
// staging/wire encoding, so the RPC layer adds framing and routing but
// no second serialization scheme.
//
// FrameAssembler rebuilds frames incrementally from whatever chunk
// sizes the socket delivers (partial headers, partial bodies, many
// frames per read — all shapes). It recv()s into a pooled read buffer
// (read_chunk_bytes at a time) and slices every complete frame out of
// it per advance(), so a pipelined burst costs one syscall for many
// frames. Bodies are zero-copy refcounted sub-views of the read
// buffer — the buffer is parked until the last sliced body releases
// it — as long as their frame fits in the buffer's free tail; a body
// above inline_body_cutover that is still mid-flight and would
// overflow the buffer switches to a direct pool allocation, so a
// multi-MiB body never pins (or overflows) the read buffer: the body
// bytes already buffered are copied into it and the socket then reads
// straight into it. With crc_large_bodies (the server's put path) that
// copy is a crc32c_copy, each later read is capped at the read
// buffer's size and checksummed as soon as it lands, while the bytes
// are cache-hot, so the frame arrives with its body CRC already taken.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/buffer.hpp"
#include "common/slab.hpp"
#include "common/status.hpp"

namespace corec::rpc {

/// First four bytes of every frame ("CREC" little-endian).
inline constexpr std::uint32_t kFrameMagic = 0x43455243u;

/// Protocol version byte. Bump on any incompatible frame or body
/// layout change; peers reject frames from a different version.
/// v3: the v2 trailing u64 pool-map version is gone (the server places
/// every op itself, so clients carry no map).
inline constexpr std::uint8_t kProtocolVersion = 3;

/// Fixed encoded size of a FrameHeader.
inline constexpr std::size_t kFrameHeaderBytes = 20;

/// Default ceiling on declared body length. Frames claiming more are
/// rejected before any allocation, so a corrupt or hostile length
/// field can neither over-allocate nor stall the connection.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64ull << 20;

/// Default pooled read-buffer size for buffered assembly.
inline constexpr std::size_t kDefaultReadChunkBytes = 256u << 10;

/// Default cutover: a body at most this large assembles inside the
/// read buffer (zero-copy slice), carried across a buffer rotation if
/// need be; a larger body still mid-flight stays in the buffer only
/// while its frame fits in the free tail, else it switches to its own
/// direct allocation.
inline constexpr std::size_t kDefaultInlineBodyCutover = 64u << 10;

/// Fixed per-frame metadata.
struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t opcode = 0;
  // 0 on requests and successful responses; the wire rendering of the
  // failing StatusCode on error responses (see protocol.hpp).
  std::uint16_t code = 0;
  std::uint64_t request_id = 0;
  std::uint32_t body_len = 0;
};

/// Appends the 20-byte wire rendering of `header` to `out`.
void encode_frame_header(const FrameHeader& header, Bytes* out);

/// Decodes a header from exactly kFrameHeaderBytes. Rejects bad magic,
/// version mismatches, and body lengths above `max_body`.
StatusOr<FrameHeader> decode_frame_header(ByteSpan bytes,
                                          std::size_t max_body);

/// One fully reassembled frame. A small body is a refcounted slice of
/// the connection's read buffer (several frames from one recv share
/// that store); a large body owns its own pooled allocation.
struct Frame {
  FrameHeader header;
  PayloadBuffer body;
  /// crc32c(body), taken as the reads of a directly assembled body
  /// landed (crc_large_bodies only); empty for every other frame.
  std::optional<std::uint32_t> body_crc;
};

/// Tuning for FrameAssembler.
struct FrameAssemblerOptions {
  /// Ceiling on declared body length.
  std::size_t max_body = kDefaultMaxFrameBytes;
  /// Pooled read-buffer size; raised to a floor that always leaves
  /// room for a header plus an inline body.
  std::size_t read_chunk_bytes = kDefaultReadChunkBytes;
  /// Largest body assembled in place whatever its offset in the read
  /// buffer; larger ones stay in place only if their frame fits.
  std::size_t inline_body_cutover = kDefaultInlineBodyCutover;
  /// Checksum each directly assembled body as its reads land, setting
  /// Frame::body_crc; reads into it are capped at the read buffer's
  /// size so every one is still cache-hot when checksummed.
  bool crc_large_bodies = false;
};

/// Incremental frame reassembly for one connection.
///
/// Usage per readable event:
///   auto span = asm.next_span();
///   n = recv(fd, span.data(), span.size(), 0);
///   COREC_RETURN_IF_ERROR(asm.advance(n));
///   while (asm.frame_ready()) handle(asm.take_frame());
///
/// next_span() is the free tail of the pooled read buffer (or, while a
/// large body assembles directly, the rest of that body's block), so
/// one recv() can deliver many frames; advance() parses them all and
/// queues them for take_frame(). next_span() is empty only after a
/// protocol error has poisoned the assembler.
class FrameAssembler {
 public:
  FrameAssembler() : FrameAssembler(FrameAssemblerOptions{}) {}
  explicit FrameAssembler(FrameAssemblerOptions opts);

  /// Destination for the next socket read.
  MutableByteSpan next_span();

  /// Records that `n` bytes were read into next_span(). Fails (and
  /// poisons the assembler) on malformed headers; the connection must
  /// be dropped — resynchronizing inside a byte stream is impossible.
  Status advance(std::size_t n);

  /// True while at least one completed frame is queued.
  bool frame_ready() const { return !ready_frames_.empty(); }

  /// Pops the oldest completed frame. Precondition: frame_ready().
  Frame take_frame();

  /// True when a frame is partially assembled (a peer dying now dies
  /// mid-frame). Completed-but-untaken frames do not count.
  bool mid_frame() const { return in_direct_ || filled_ > parsed_; }

 private:
  // Ensures the read buffer exists and has free tail space, recycling
  // in place when fully parsed and unshared, or rotating to a fresh
  // pooled buffer (carrying the unparsed remnant) when full or parked
  // by outstanding body slices.
  void ensure_buffer();
  // Slices every complete frame out of [parsed_, filled_), switching
  // to direct assembly for large mid-flight bodies that would overflow
  // the read buffer. Poisons on malformed headers.
  Status parse();

  FrameAssemblerOptions opts_;
  std::size_t chunk_ = 0;    // normalized read buffer size
  std::size_t cutover_ = 0;  // normalized inline cutover
  bool poisoned_ = false;

  // The current read buffer, held as a full-store view so body slices
  // can share its Rep. base_ is captured at adoption (before any
  // slices exist) because writing the free tail must not trigger the
  // copy-on-write path that mutable_span() would take once shared.
  PayloadBuffer buf_;
  std::uint8_t* base_ = nullptr;
  std::size_t filled_ = 0;  // bytes received into the buffer
  std::size_t parsed_ = 0;  // bytes consumed by completed frames
  std::deque<Frame> ready_frames_;
  // Direct assembly of one large body (> cutover_, arrived partially).
  bool in_direct_ = false;
  FrameHeader direct_header_;
  slab::Block direct_block_;
  std::size_t direct_have_ = 0;
  std::uint32_t direct_crc_ = 0;  // running CRC (crc_large_bodies)
};

}  // namespace corec::rpc
