// Buffered multi-frame receive path + slab pool: slab size-class and
// recycling behavior, multi-frame slicing out of one chunk, frame
// splits at every byte offset across buffer refills, tiny-frame
// floods, refcount parking of the read buffer, the direct large-body
// path, frame-level parity with a plain reference splitter at every
// chunk size, and loopback byte-parity across payload sizes. Runs under
// the asan leg with COREC_SLAB_POISON=1 so stale views over recycled
// slabs fault.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/buffer.hpp"
#include "common/checksum.hpp"
#include "common/slab.hpp"
#include "rpc/client.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"

namespace corec::rpc {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

// Appends one frame (header + body) to `stream`.
void append_frame(Bytes* stream, FrameHeader h, const Bytes& body) {
  h.body_len = static_cast<std::uint32_t>(body.size());
  encode_frame_header(h, stream);
  stream->insert(stream->end(), body.begin(), body.end());
}

void append_frame(Bytes* stream, std::uint64_t request_id,
                  const Bytes& body) {
  FrameHeader h;
  h.opcode = static_cast<std::uint8_t>(OpCode::kPing);
  h.request_id = request_id;
  append_frame(stream, h, body);
}

// The parity reference: splits a complete stream by decoding each
// header and slicing the body that follows it, with no buffering.
struct RefFrame {
  FrameHeader header;
  Bytes body;
};

std::vector<RefFrame> reference_split(const Bytes& stream) {
  std::vector<RefFrame> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    auto h = decode_frame_header({stream.data() + pos, kFrameHeaderBytes},
                                 kDefaultMaxFrameBytes);
    EXPECT_TRUE(h.ok()) << h.status().to_string();
    if (!h.ok()) break;
    pos += kFrameHeaderBytes;
    frames.push_back({*h, Bytes(stream.begin() + pos,
                                stream.begin() + pos + h->body_len)});
    pos += h->body_len;
  }
  return frames;
}

// Feeds `stream` into `assembler` in chunks of at most `chunk` bytes,
// collecting every completed frame.
std::vector<Frame> feed(FrameAssembler& assembler, const Bytes& stream,
                        std::size_t chunk) {
  std::vector<Frame> frames;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    MutableByteSpan span = assembler.next_span();
    EXPECT_FALSE(span.empty());
    if (span.empty()) break;
    const std::size_t n =
        std::min({chunk, span.size(), stream.size() - pos});
    std::memcpy(span.data(), stream.data() + pos, n);
    pos += n;
    Status st = assembler.advance(n);
    EXPECT_TRUE(st.ok()) << st.to_string();
    if (!st.ok()) break;
    while (assembler.frame_ready()) {
      frames.push_back(assembler.take_frame());
    }
  }
  return frames;
}

// ---- slab pool -----------------------------------------------------------

TEST(Slab, ClassCapacityRounding) {
  EXPECT_EQ(slab::class_capacity(0), 0u);
  EXPECT_EQ(slab::class_capacity(1), slab::kMinClassBytes);
  EXPECT_EQ(slab::class_capacity(64), 64u);
  EXPECT_EQ(slab::class_capacity(65), 128u);
  EXPECT_EQ(slab::class_capacity(4096), 4096u);
  EXPECT_EQ(slab::class_capacity(4097), 8192u);
  EXPECT_EQ(slab::class_capacity(slab::kMaxClassBytes),
            slab::kMaxClassBytes);
  // Oversize requests are exact heap allocations, not rounded.
  EXPECT_EQ(slab::class_capacity(slab::kMaxClassBytes + 1),
            slab::kMaxClassBytes + 1);
}

TEST(Slab, RecycledBlocksServeFromPoolWithoutMalloc) {
  auto& pm = payload_metrics();
  // Warm one block of the class into this thread's magazine.
  { slab::Block warm = slab::allocate(1000); }
  const std::uint64_t misses0 = pm.pool_misses.load();
  const std::uint64_t hits0 = pm.pool_hits.load();
  for (int i = 0; i < 10; ++i) {
    slab::Block b = slab::allocate(1000);
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(b.size(), 1000u);
    EXPECT_EQ(b.capacity(), 1024u);
    b.data()[0] = 0x5A;  // must be writable
  }
  EXPECT_EQ(pm.pool_misses.load(), misses0) << "steady state must not malloc";
  EXPECT_EQ(pm.pool_hits.load(), hits0 + 10);
}

TEST(Slab, OutstandingBytesTracksLiveCapacity) {
  auto& pm = payload_metrics();
  const std::int64_t base = pm.pool_outstanding_bytes.load();
  {
    slab::Block b = slab::allocate(5000);
    EXPECT_EQ(pm.pool_outstanding_bytes.load(),
              base + static_cast<std::int64_t>(b.capacity()));
  }
  EXPECT_EQ(pm.pool_outstanding_bytes.load(), base);
}

TEST(Slab, OversizeFallsThroughToHeap) {
  auto& pm = payload_metrics();
  const std::uint64_t misses0 = pm.pool_misses.load();
  const std::uint64_t oversize0 = pm.pool_oversize.load();
  slab::Block b = slab::allocate(slab::kMaxClassBytes + 1);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.capacity(), slab::kMaxClassBytes + 1);
  EXPECT_EQ(pm.pool_oversize.load(), oversize0 + 1);
  EXPECT_EQ(pm.pool_misses.load(), misses0);
}

// ---- buffered assembler: slicing -----------------------------------------

TEST(BufferedAssembler, ManyFramesFromOneAdvanceShareOneStore) {
  Bytes stream;
  std::vector<Bytes> bodies;
  for (int i = 0; i < 5; ++i) {
    bodies.push_back(pattern_bytes(100 + i * 33, static_cast<std::uint8_t>(i)));
    append_frame(&stream, 100 + i, bodies.back());
  }
  FrameAssembler assembler;
  // The whole stream arrives as one "recv".
  std::vector<Frame> frames = feed(assembler, stream, stream.size());
  ASSERT_EQ(frames.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].header.request_id, 100u + i);
    EXPECT_TRUE(frames[i].body == bodies[i]);
    // Zero-copy: every small body is a slice of the same read buffer.
    EXPECT_TRUE(frames[i].body.shares_with(frames[0].body));
  }
}

TEST(BufferedAssembler, EmptyBodiesAndBackToBackHeaders) {
  Bytes stream;
  for (int i = 0; i < 40; ++i) append_frame(&stream, i, {});
  FrameAssembler assembler;
  std::vector<Frame> frames = feed(assembler, stream, stream.size());
  ASSERT_EQ(frames.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(frames[i].header.request_id, static_cast<std::uint64_t>(i));
    EXPECT_TRUE(frames[i].body.empty());
  }
}

TEST(BufferedAssembler, FramesSplitAtEveryByteOffsetAcrossRefills) {
  // Tiny read buffer (normalized to ~184 B with a 64 B cutover) so the
  // stream crosses many buffer rotations; bodies straddle the cutover
  // in both directions, including two direct-mode large bodies.
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 1;  // normalized up to the floor
  opts.inline_body_cutover = 64;

  Bytes stream;
  std::vector<Bytes> bodies = {
      {},                       // empty
      pattern_bytes(1, 11),     // 1 B
      pattern_bytes(37, 12),    // small
      pattern_bytes(64, 13),    // exactly the cutover
      pattern_bytes(150, 14),   // > cutover: direct unless it fits
      pattern_bytes(500, 15),   // > chunk: direct mode across refills
      pattern_bytes(3, 16),     // small after a direct body
  };
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    append_frame(&stream, i + 1, bodies[i]);
  }

  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler assembler(opts);
    std::vector<Frame> frames = feed(assembler, stream, chunk);
    ASSERT_EQ(frames.size(), bodies.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      EXPECT_EQ(frames[i].header.request_id, i + 1) << "chunk " << chunk;
      ASSERT_TRUE(frames[i].body == bodies[i])
          << "chunk " << chunk << " frame " << i;
    }
    EXPECT_FALSE(assembler.mid_frame());
  }
}

TEST(BufferedAssembler, TinyFrameFloodRecyclesWithoutFreshAllocations) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 4096;
  opts.inline_body_cutover = 64;
  FrameAssembler assembler(opts);

  // Warm-up round so the buffer and slab magazines exist.
  Bytes warm;
  append_frame(&warm, 0, pattern_bytes(3, 9));
  (void)feed(assembler, warm, warm.size());

  auto& pm = payload_metrics();
  const std::uint64_t misses0 = pm.pool_misses.load();
  for (int round = 0; round < 2000; ++round) {
    Bytes stream;
    for (int i = 0; i < 5; ++i) {
      append_frame(&stream, round * 5 + i,
                   pattern_bytes(static_cast<std::size_t>(i % 4), 21));
    }
    std::vector<Frame> frames = feed(assembler, stream, stream.size());
    ASSERT_EQ(frames.size(), 5u);
    // Frames (and their body slices) drop here, un-parking the buffer.
  }
  // 10k frames served from the recycled read buffer: no pool misses.
  EXPECT_EQ(pm.pool_misses.load(), misses0);
}

// ---- refcount parking ----------------------------------------------------

TEST(BufferedAssembler, ParkedBodySurvivesBufferRotations) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 1;  // tiny buffer: rotations every few frames
  opts.inline_body_cutover = 64;
  FrameAssembler assembler(opts);

  const Bytes held_body = pattern_bytes(48, 77);
  Bytes first;
  append_frame(&first, 1, held_body);
  std::vector<Frame> frames = feed(assembler, first, first.size());
  ASSERT_EQ(frames.size(), 1u);
  PayloadBuffer held = frames[0].body;  // parks the read buffer
  frames.clear();
  EXPECT_GT(held.store_size(), held.size());

  // Pump many more frames through: the parked buffer must rotate away
  // rather than be recycled underneath `held`.
  for (int round = 0; round < 200; ++round) {
    Bytes stream;
    append_frame(&stream, 100 + round, pattern_bytes(48, 78));
    std::vector<Frame> more = feed(assembler, stream, stream.size());
    ASSERT_EQ(more.size(), 1u);
  }
  EXPECT_TRUE(held == held_body) << "parked body was overwritten";
}

TEST(BufferedAssembler, UnparkedBufferIsReusedInPlace) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 4096;
  FrameAssembler assembler(opts);
  Bytes warm;
  append_frame(&warm, 0, pattern_bytes(32, 5));
  (void)feed(assembler, warm, warm.size());

  // Dropping every body before the next read lets the assembler reuse
  // the same backing store: no new Reps are created.
  auto& pm = payload_metrics();
  const std::uint64_t allocs0 = pm.allocations.load();
  for (int i = 1; i <= 100; ++i) {
    Bytes stream;
    append_frame(&stream, i, pattern_bytes(32, 6));
    (void)feed(assembler, stream, stream.size());
  }
  EXPECT_EQ(pm.allocations.load(), allocs0);
}

// ---- direct large-body path ----------------------------------------------

TEST(BufferedAssembler, LargeBodyAssemblesDirectlyWithoutPinning) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 8192;
  opts.inline_body_cutover = 1024;
  FrameAssembler assembler(opts);

  const Bytes big = pattern_bytes(50000, 42);
  Bytes stream;
  append_frame(&stream, 9, big);
  append_frame(&stream, 10, pattern_bytes(10, 43));

  // Feed in 1500-byte chunks: the big body switches to direct mode.
  std::vector<Frame> frames = feed(assembler, stream, 1500);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_TRUE(frames[0].body == big);
  // The direct body owns an exact-size store — it is not a slice of
  // the (much smaller) read buffer and pins nothing else.
  EXPECT_EQ(frames[0].body.store_size(), big.size());
  EXPECT_FALSE(frames[0].body.shares_with(frames[1].body));
  EXPECT_TRUE(frames[1].body == pattern_bytes(10, 43));
}

// A body above the cutover whose frame fits in the read buffer must not
// depend on TCP segmentation: delivered in many pieces it still ends up
// the same zero-copy slice as when the frame arrives in one recv.
TEST(BufferedAssembler, SplitLargeBodyThatFitsStaysInReadBuffer) {
  FrameAssemblerOptions opts;
  opts.read_chunk_bytes = 8192;
  opts.inline_body_cutover = 1024;
  FrameAssembler assembler(opts);

  const Bytes big = pattern_bytes(5000, 44);
  Bytes stream;
  append_frame(&stream, 11, big);
  append_frame(&stream, 12, pattern_bytes(10, 45));

  const auto& pm = payload_metrics();
  const std::uint64_t copied0 = pm.bytes_copied.load();
  std::vector<Frame> frames = feed(assembler, stream, 700);
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_TRUE(frames[0].body == big);
  EXPECT_EQ(pm.bytes_copied.load(), copied0)
      << "a split body that fits was copied out of the read buffer";
  EXPECT_EQ(frames[0].body.store_size(), 8192u);
  EXPECT_TRUE(frames[0].body.shares_with(frames[1].body));
}

// ---- poisoning -----------------------------------------------------------

TEST(BufferedAssembler, PoisonsOnCorruptHeader) {
  FrameAssembler assembler;
  Bytes garbage(kFrameHeaderBytes, 0xEE);
  MutableByteSpan span = assembler.next_span();
  ASSERT_GE(span.size(), garbage.size());
  std::memcpy(span.data(), garbage.data(), garbage.size());
  EXPECT_FALSE(assembler.advance(garbage.size()).ok());
  EXPECT_TRUE(assembler.next_span().empty());
  EXPECT_FALSE(assembler.advance(1).ok());
}

TEST(BufferedAssembler, PoisonsOnCorruptHeaderAfterGoodFrames) {
  FrameAssembler assembler;
  Bytes stream;
  append_frame(&stream, 1, pattern_bytes(10, 1));
  stream.insert(stream.end(), kFrameHeaderBytes, 0xEE);

  MutableByteSpan span = assembler.next_span();
  ASSERT_GE(span.size(), stream.size());
  std::memcpy(span.data(), stream.data(), stream.size());
  // The good frame parses; the garbage header poisons the stream.
  EXPECT_FALSE(assembler.advance(stream.size()).ok());
  ASSERT_TRUE(assembler.frame_ready());
  Frame f = assembler.take_frame();
  EXPECT_EQ(f.header.request_id, 1u);
  EXPECT_EQ(f.body.size(), 10u);
  EXPECT_TRUE(assembler.next_span().empty());
}

// ---- compaction ----------------------------------------------------------

TEST(PayloadCompaction, CopiesOnlyWastefulViews) {
  PayloadBuffer big = PayloadBuffer::zeros(100000);
  PayloadBuffer small = big.slice(0, 100);
  EXPECT_EQ(small.store_size(), 100000u);

  // Within the waste budget: same store, no copy.
  PayloadBuffer kept = small.compacted(100000);
  EXPECT_TRUE(kept.shares_with(big));

  // Over budget: compact copy, large store released once `big` drops.
  PayloadBuffer compact = small.compacted(4096);
  EXPECT_FALSE(compact.shares_with(big));
  EXPECT_TRUE(compact == small);
  EXPECT_LE(compact.store_size(), slab::class_capacity(100));
}

// ---- socketpair: one send, many frames -----------------------------------

TEST(BufferedSocket, BurstOfFramesArrivesInFewReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  OwnedFd writer(fds[0]);
  OwnedFd reader(fds[1]);

  constexpr int kFrames = 16;
  Bytes burst;
  std::vector<Bytes> bodies;
  for (int i = 0; i < kFrames; ++i) {
    bodies.push_back(pattern_bytes(200 + i, static_cast<std::uint8_t>(i)));
    append_frame(&burst, i + 1, bodies.back());
  }
  ASSERT_TRUE(send_all(writer.get(), burst, 2000).ok());

  FrameAssembler assembler;
  std::vector<Frame> frames;
  int data_reads = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (frames.size() < kFrames) {
    MutableByteSpan span = assembler.next_span();
    ASSERT_FALSE(span.empty());
    auto n = recv_some(reader.get(), span, deadline);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    ++data_reads;
    ASSERT_TRUE(assembler.advance(*n).ok());
    while (assembler.frame_ready()) {
      frames.push_back(assembler.take_frame());
    }
  }
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(frames[i].header.request_id,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_TRUE(frames[i].body == bodies[i]);
  }
  // The point of buffered reads: far fewer data-bearing reads than
  // frames (a unix socketpair delivers the burst in one or two).
  EXPECT_LT(data_reads, kFrames / 2);
}

// ---- parity with the reference splitter -----------------------------------

// Every header field and body byte the assembler yields must match the
// reference splitter, whatever the recv chunking: every chunk size from
// 1 byte to the whole stream, through both a tiny read buffer (constant
// rotations and direct-mode bodies) and the default geometry.
TEST(BufferedAssembler, MatchesReferenceSplitterAtEveryChunkSize) {
  Bytes stream;
  const std::vector<std::size_t> sizes = {0, 1, 37, 64, 65, 150, 500, 3, 0};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    FrameHeader h;
    h.opcode = static_cast<std::uint8_t>(1 + i % 5);
    h.code = static_cast<std::uint16_t>(i * 3);
    h.request_id = 1000 + i;
    append_frame(&stream, h,
                 pattern_bytes(sizes[i], static_cast<std::uint8_t>(50 + i)));
  }
  const std::vector<RefFrame> want = reference_split(stream);
  ASSERT_EQ(want.size(), sizes.size());

  FrameAssemblerOptions tiny;
  tiny.read_chunk_bytes = 1;  // normalized up to the floor
  tiny.inline_body_cutover = 64;
  FrameAssemblerOptions tiny_crc = tiny;
  tiny_crc.crc_large_bodies = true;
  FrameAssemblerOptions crc;
  crc.crc_large_bodies = true;
  for (const FrameAssemblerOptions& opts :
       {tiny, FrameAssemblerOptions{}, tiny_crc, crc}) {
    for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
      FrameAssembler assembler(opts);
      const std::vector<Frame> got = feed(assembler, stream, chunk);
      ASSERT_EQ(got.size(), want.size()) << "chunk " << chunk;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const FrameHeader& g = got[i].header;
        const FrameHeader& w = want[i].header;
        EXPECT_EQ(g.version, w.version);
        EXPECT_EQ(g.opcode, w.opcode);
        EXPECT_EQ(g.code, w.code);
        EXPECT_EQ(g.request_id, w.request_id);
        EXPECT_EQ(g.body_len, w.body_len);
        ASSERT_TRUE(got[i].body == want[i].body)
            << "chunk " << chunk << " frame " << i;
        // The CRC is taken of exactly the directly assembled bodies,
        // which are the ones owning their own store.
        const bool own_store = !got[i].body.empty() &&
                               got[i].body.store_size() == w.body_len;
        EXPECT_EQ(got[i].body_crc.has_value(),
                  opts.crc_large_bodies && own_store)
            << "chunk " << chunk << " frame " << i;
        if (got[i].body_crc.has_value()) {
          EXPECT_EQ(*got[i].body_crc, crc32c(want[i].body))
              << "chunk " << chunk << " frame " << i;
        }
      }
      EXPECT_FALSE(assembler.mid_frame());
    }
  }
}

// The server's geometry: a 2 MiB body between two small frames is
// read straight into its own block, no read into it larger than the
// read buffer, and arrives byte-exact with its CRC. It leaves the read
// buffer recycled in place: no rotation (no allocation beyond the read
// buffer and the body's block, and nothing copied but the body bytes
// that shared the first read with its header), so the trailing frame
// lands in the same store as the leading one. Every frame is dropped
// as soon as it is taken, as the server does.
TEST(BufferedAssembler, LargeBodyCrcLeavesReadBufferRecycledInPlace) {
  const Bytes big = pattern_bytes(2u << 20, 61);
  const Bytes small = pattern_bytes(100, 62);
  Bytes stream;
  append_frame(&stream, 1, small);
  append_frame(&stream, 2, big);
  append_frame(&stream, 3, small);
  FrameAssemblerOptions opts;
  opts.crc_large_bodies = true;
  auto& pm = payload_metrics();
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{1000}, std::size_t{65543},
        kDefaultReadChunkBytes, std::size_t{300000}, stream.size()}) {
    const std::uint64_t allocs0 = pm.allocations.load();
    const std::uint64_t copied0 = pm.bytes_copied.load();
    FrameAssembler assembler(opts);
    std::vector<std::uint64_t> ids;
    const std::uint8_t* store = nullptr;  // read buffer of frame 1
    std::size_t pos = 0;
    while (pos < stream.size()) {
      MutableByteSpan span = assembler.next_span();
      ASSERT_FALSE(span.empty());
      ASSERT_LE(span.size(), kDefaultReadChunkBytes);
      const std::size_t n =
          std::min({chunk, span.size(), stream.size() - pos});
      std::memcpy(span.data(), stream.data() + pos, n);
      pos += n;
      ASSERT_TRUE(assembler.advance(n).ok());
      while (assembler.frame_ready()) {
        const Frame f = assembler.take_frame();
        ids.push_back(f.header.request_id);
        if (f.header.request_id == 2) {
          ASSERT_TRUE(f.body == big) << "chunk " << chunk;
          ASSERT_TRUE(f.body_crc.has_value());
          EXPECT_EQ(*f.body_crc, crc32c(big));
          EXPECT_EQ(f.body.store_size(), big.size());
          continue;
        }
        ASSERT_TRUE(f.body == small);
        EXPECT_FALSE(f.body_crc.has_value());
        const std::uint8_t* start = f.body.data() - kFrameHeaderBytes;
        if (f.header.request_id == 1) {
          store = start;
        } else {
          EXPECT_GE(start, store) << "chunk " << chunk;
          EXPECT_LT(start, store + kDefaultReadChunkBytes)
              << "chunk " << chunk << ": the read buffer was rotated";
        }
      }
    }
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_FALSE(assembler.mid_frame());
    EXPECT_EQ(pm.allocations.load() - allocs0, 2u) << "chunk " << chunk;
    EXPECT_LT(pm.bytes_copied.load() - copied0, kDefaultReadChunkBytes)
        << "chunk " << chunk;
  }
}

// ---- loopback ------------------------------------------------------------

struct ServerFixture {
  explicit ServerFixture(ServerOptions options) : server([&] {
    options.host = "127.0.0.1";
    options.port = 0;
    // CI's TSan leg re-runs this suite against a sharded server
    // (COREC_RPC_TEST_LOOPS=4) so the buffered per-connection read
    // state is exercised across event-loop threads.
    if (const char* loops = std::getenv("COREC_RPC_TEST_LOOPS")) {
      options.num_loops = static_cast<std::size_t>(std::atol(loops));
    }
    return options;
  }()) {
    Status st = server.start();
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  ClientOptions client_options() const {
    ClientOptions o;
    o.host = "127.0.0.1";
    o.port = server.port();
    return o;
  }
  Server server;
};

staging::ObjectDescriptor desc_of(VarId var, int i) {
  return {var, 1, geom::BoundingBox::line(i * 8, i * 8 + 7),
          staging::kWholeObject};
}

// Client and server must move identical bytes across small,
// cutover-straddling, and multi-MiB payloads.
TEST(BufferedLoopback, ByteParityAcrossPayloadSizes) {
  const std::vector<std::size_t> sizes = {1, 64, 4096, 70000, 3u << 20};
  ServerFixture fx(ServerOptions{});
  Client client(fx.client_options());
  const VarId var = 500;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Bytes payload =
        pattern_bytes(sizes[i], static_cast<std::uint8_t>(37 + i));
    Status st = client.put(desc_of(var, static_cast<int>(i)),
                           PayloadBuffer::copy_of(payload));
    ASSERT_TRUE(st.ok()) << st.to_string();
    auto got = client.get(desc_of(var, static_cast<int>(i)));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_TRUE(got->payload == payload) << "size=" << sizes[i];
    EXPECT_EQ(got->payload.crc32c(),
              PayloadBuffer::copy_of(payload).crc32c());
  }
}

// A stored small put must not pin the connection's read buffer, and a
// held get result must not pin the client channel's read buffer.
TEST(BufferedLoopback, SmallObjectsDoNotPinReadBuffers) {
  ServerFixture fx(ServerOptions{});
  Client client(fx.client_options());
  const VarId var = 600;
  const Bytes payload = pattern_bytes(256, 9);
  ASSERT_TRUE(client.put(desc_of(var, 0),
                         PayloadBuffer::copy_of(payload)).ok());

  auto direct = fx.server.fabric().get(desc_of(var, 0));
  ASSERT_TRUE(direct.ok());
  EXPECT_LT(direct->object.data.store_size(), kDefaultReadChunkBytes / 4)
      << "stored put payload still references the read buffer";

  auto got = client.get(desc_of(var, 0));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->payload == payload);
  EXPECT_LT(got->payload.store_size(), kDefaultReadChunkBytes / 4)
      << "small get result still references the channel read buffer";
}

// Pipelined burst over a raw socket: the server must complete many
// frames per data-bearing recv, visible in the split recv stats.
TEST(BufferedLoopback, ServerRecvStatsShowMultiFrameBatches) {
  ServerFixture fx(ServerOptions{});
  auto fd = connect_tcp("127.0.0.1", fx.server.port(), 2000);
  ASSERT_TRUE(fd.ok());

  constexpr int kPings = 64;
  Bytes burst;
  for (int i = 0; i < kPings; ++i) append_frame(&burst, i + 1, {});
  ASSERT_TRUE(send_all(fd->get(), burst, 2000).ok());

  FrameAssembler assembler;
  int got = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got < kPings) {
    MutableByteSpan span = assembler.next_span();
    ASSERT_FALSE(span.empty());
    auto n = recv_some(fd->get(), span, deadline);
    ASSERT_TRUE(n.ok()) << n.status().to_string();
    ASSERT_TRUE(assembler.advance(*n).ok());
    while (assembler.frame_ready()) {
      (void)assembler.take_frame();
      ++got;
    }
  }

  const ServerStatsSnapshot stats = fx.server.stats();
  EXPECT_EQ(stats.frames_in, static_cast<std::uint64_t>(kPings));
  EXPECT_GT(stats.recv_data_calls, 0u);
  // The burst was written in one send: far fewer data recvs than
  // frames, i.e. recv-syscalls-per-frame well under 1.
  EXPECT_LT(stats.recv_data_calls, static_cast<std::uint64_t>(kPings) / 2);
  // Every data-bearing recv lands in exactly one histogram bucket.
  std::uint64_t hist_total = 0;
  bool multi_frame_bucket = false;
  for (std::size_t b = 0; b < kRecvBatchBuckets; ++b) {
    hist_total += stats.recv_batch_hist[b];
    if (b >= 2 && stats.recv_batch_hist[b] > 0) multi_frame_bucket = true;
  }
  EXPECT_EQ(hist_total, stats.recv_data_calls);
  EXPECT_TRUE(multi_frame_bucket)
      << "no recv completed more than one frame";
}

}  // namespace
}  // namespace corec::rpc
