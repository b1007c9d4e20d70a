// RPC serving path: framing round trips, loopback integration against
// a live epoll server (byte-for-byte parity with direct ThreadFabric
// calls), concurrent clients, zero-copy payload accounting, timeout /
// retry behavior, mid-frame connection kills via failpoints, CRC32C
// verification of every put on ingest, and read backpressure.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "rpc/client.hpp"
#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"

namespace corec::rpc {
namespace {

using staging::DataObject;
using staging::ObjectDescriptor;
using staging::StoredKind;

ObjectDescriptor desc_of(VarId var, int i, Version v = 1) {
  return {var, v, geom::BoundingBox::line(i * 8, i * 8 + 7),
          staging::kWholeObject};
}

Bytes pattern_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

// Spins up a server on an ephemeral loopback port for one test.
struct ServerFixture {
  explicit ServerFixture(ServerOptions options = {}) : server([&] {
    options.host = "127.0.0.1";
    options.port = 0;
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

// ---- framing -------------------------------------------------------------

TEST(RpcFrame, HeaderRoundTrip) {
  FrameHeader h;
  h.opcode = static_cast<std::uint8_t>(OpCode::kGet);
  h.code = 3;
  h.request_id = 0x1122334455667788ull;
  h.body_len = 4096;
  Bytes wire;
  encode_frame_header(h, &wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  auto back = decode_frame_header(wire, kDefaultMaxFrameBytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->opcode, h.opcode);
  EXPECT_EQ(back->code, h.code);
  EXPECT_EQ(back->request_id, h.request_id);
  EXPECT_EQ(back->body_len, h.body_len);
}

TEST(RpcFrame, RejectsBadMagicVersionAndOversizedBody) {
  FrameHeader h;
  h.body_len = 100;
  Bytes wire;
  encode_frame_header(h, &wire);

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_frame_header(bad_magic, kDefaultMaxFrameBytes).ok());

  Bytes bad_version = wire;
  bad_version[4] += 1;
  EXPECT_FALSE(
      decode_frame_header(bad_version, kDefaultMaxFrameBytes).ok());

  // body_len above the configured ceiling is rejected pre-allocation.
  EXPECT_FALSE(decode_frame_header(wire, /*max_body=*/50).ok());
  EXPECT_TRUE(decode_frame_header(wire, /*max_body=*/100).ok());

  // A v2 peer's 28-byte header (trailing u64 pool-map version): its
  // first 20 bytes fail the version check, and an assembler fed the
  // whole header poisons instead of misreading the tail as a frame.
  EXPECT_EQ(kFrameHeaderBytes, 20u);
  Bytes v2;
  BufferWriter w(&v2);
  w.put<std::uint32_t>(kFrameMagic);
  w.put<std::uint8_t>(2);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(OpCode::kPing));
  w.put<std::uint16_t>(0);
  w.put<std::uint64_t>(1);
  w.put<std::uint32_t>(0);
  w.put<std::uint64_t>(7);
  ASSERT_EQ(v2.size(), 28u);
  EXPECT_FALSE(decode_frame_header(ByteSpan(v2.data(), kFrameHeaderBytes),
                                   kDefaultMaxFrameBytes)
                   .ok());
  FrameAssembler fa;
  MutableByteSpan span = fa.next_span();
  std::memcpy(span.data(), v2.data(), v2.size());
  EXPECT_FALSE(fa.advance(v2.size()).ok());
  EXPECT_FALSE(fa.frame_ready());
}

TEST(RpcFrame, AssemblerHandlesArbitraryChunking) {
  // One ping frame + one 1000-byte put-shaped frame, delivered in every
  // chunk size from 1 to 64: the assembler must produce identical
  // frames regardless of how the stream is sliced.
  Bytes stream;
  FrameHeader ping;
  ping.opcode = static_cast<std::uint8_t>(OpCode::kPing);
  ping.request_id = 7;
  encode_frame_header(ping, &stream);
  FrameHeader data;
  data.opcode = static_cast<std::uint8_t>(OpCode::kPut);
  data.request_id = 8;
  Bytes body = pattern_bytes(1000, 3);
  data.body_len = static_cast<std::uint32_t>(body.size());
  encode_frame_header(data, &stream);
  stream.insert(stream.end(), body.begin(), body.end());

  for (std::size_t chunk = 1; chunk <= 64; ++chunk) {
    FrameAssembler assembler;
    std::vector<Frame> frames;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      MutableByteSpan span = assembler.next_span();
      ASSERT_FALSE(span.empty());
      const std::size_t n =
          std::min({chunk, span.size(), stream.size() - pos});
      std::memcpy(span.data(), stream.data() + pos, n);
      pos += n;
      ASSERT_TRUE(assembler.advance(n).ok());
      while (assembler.frame_ready()) {
        frames.push_back(assembler.take_frame());
      }
    }
    ASSERT_EQ(frames.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(frames[0].header.request_id, 7u);
    EXPECT_EQ(frames[0].body.size(), 0u);
    EXPECT_EQ(frames[1].header.request_id, 8u);
    EXPECT_TRUE(frames[1].body == body);
  }
}

TEST(RpcFrame, AssemblerPoisonsOnCorruptHeader) {
  FrameAssembler assembler;
  Bytes garbage(kFrameHeaderBytes, 0xEE);
  MutableByteSpan span = assembler.next_span();
  std::memcpy(span.data(), garbage.data(), garbage.size());
  EXPECT_FALSE(assembler.advance(garbage.size()).ok());
  EXPECT_TRUE(assembler.next_span().empty());
  EXPECT_FALSE(assembler.advance(1).ok());
}

TEST(RpcFrame, AssemblerTracksMidFrameState) {
  FrameAssembler assembler;
  FrameHeader h;
  h.body_len = 10;
  Bytes wire;
  encode_frame_header(h, &wire);
  EXPECT_FALSE(assembler.mid_frame());
  std::memcpy(assembler.next_span().data(), wire.data(), 5);
  ASSERT_TRUE(assembler.advance(5).ok());
  EXPECT_TRUE(assembler.mid_frame());
}

// ---- loopback integration ------------------------------------------------

TEST(RpcLoopback, PutGetQueryEraseParityWithDirectFabric) {
  ServerFixture fx;
  Client client(fx.client_options());
  const VarId var = 11;
  constexpr int kObjects = 32;

  std::vector<Bytes> payloads;
  for (int i = 0; i < kObjects; ++i) {
    payloads.push_back(pattern_bytes(1024 + i * 17,
                                     static_cast<std::uint8_t>(i)));
    Status st = client.put(desc_of(var, i),
                           PayloadBuffer::copy_of(payloads.back()));
    ASSERT_TRUE(st.ok()) << st.to_string();
  }

  // Byte-for-byte parity: what the RPC path returns must equal what a
  // direct in-process ThreadFabric read of the same store returns.
  for (int i = 0; i < kObjects; ++i) {
    auto over_rpc = client.get(desc_of(var, i));
    ASSERT_TRUE(over_rpc.ok()) << over_rpc.status().to_string();
    auto direct = fx.server.fabric().get(desc_of(var, i));
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(over_rpc->payload == direct->object.data.to_bytes());
    EXPECT_TRUE(over_rpc->payload == payloads[i]);
    EXPECT_EQ(over_rpc->checksum, direct->object.checksum);
    EXPECT_EQ(over_rpc->kind, direct->kind);
  }

  // Query parity against the fabric's directory.
  auto region = geom::BoundingBox::line(0, kObjects * 8 - 1);
  auto over_rpc = client.query(var, 1, region);
  ASSERT_TRUE(over_rpc.ok());
  auto direct = fx.server.fabric().directory().query_latest(var, 1, region);
  EXPECT_EQ(over_rpc->size(), direct.size());

  // Erase through RPC is visible to direct reads and vice versa.
  auto removed = client.erase(desc_of(var, 0));
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  EXPECT_FALSE(fx.server.fabric().get(desc_of(var, 0)).ok());
  auto twice = client.erase(desc_of(var, 0));
  ASSERT_TRUE(twice.ok());
  EXPECT_FALSE(*twice);

  auto missing = client.get(desc_of(var, 0));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  auto stats = client.stat();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_servers, fx.server.fabric().num_servers());
  EXPECT_EQ(stats->total_objects, kObjects - 1u);
}

TEST(RpcLoopback, ConcurrentClientsByteExact) {
  ServerFixture fx;
  constexpr std::size_t kClients = 6;
  constexpr int kOpsPerClient = 120;
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client client(fx.client_options());
      const auto var = static_cast<VarId>(100 + t);
      for (int op = 0; op < kOpsPerClient; ++op) {
        const int entity = op % 8;
        Bytes payload = pattern_bytes(
            512 + entity * 64, static_cast<std::uint8_t>(t * 37 + op));
        if (!client.put(desc_of(var, entity),
                        PayloadBuffer::copy_of(payload))
                 .ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto got = client.get(desc_of(var, entity));
        if (!got.ok() || !(got->payload == payload)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = fx.server.stats();
  EXPECT_GE(stats.accepted, kClients);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// More threads than channels share one Client, so each channel serves
// several threads in turn: one thread drops a GetResult that aliases a
// channel's read buffer while another thread's call on that channel
// recycles the buffer. TSan checks that hand-off; the byte checks catch
// a buffer rewritten under a live view.
TEST(RpcLoopback, ThreadsShareOneClientByteExact) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.pool_size = 2;
  Client client(options);
  constexpr std::size_t kThreads = 6;
  constexpr int kOpsPerThread = 40;
  // Large enough that Client::get keeps the result a zero-copy slice of
  // the 256 KiB read buffer instead of compacting it.
  constexpr std::size_t kPayloadBytes = 40u << 10;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> aliased{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto var = static_cast<VarId>(200 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        const ObjectDescriptor desc = desc_of(var, op % 4);
        Bytes payload = pattern_bytes(
            kPayloadBytes + static_cast<std::size_t>(op) * 64,
            static_cast<std::uint8_t>(t * 31 + op));
        if (!client.put(desc, PayloadBuffer::copy_of(payload)).ok()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        {
          auto got = client.get(desc);
          if (!got.ok() || !(got->payload == payload)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          } else if (got->payload.store_size() > got->payload.size()) {
            aliased.fetch_add(1, std::memory_order_relaxed);
          }
        }  // the GetResult drops here, on this thread
        auto removed = client.erase(desc);
        if (!removed.ok() || !*removed) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(aliased.load(), 0u);
  EXPECT_EQ(fx.server.fabric().total_objects(), 0u);
}

// ---- zero-copy accounting ------------------------------------------------

TEST(RpcLoopback, GetPathCopiesPayloadAtMostOnce) {
  ServerFixture fx;
  Client client(fx.client_options());
  const VarId var = 14;
  constexpr std::size_t kPayloadBytes = 64 * 1024;
  constexpr int kGets = 10;
  Bytes payload = pattern_bytes(kPayloadBytes, 9);
  ASSERT_TRUE(
      client.put(desc_of(var, 0), PayloadBuffer::copy_of(payload)).ok());

  payload_metrics().reset();
  for (int i = 0; i < kGets; ++i) {
    auto got = client.get(desc_of(var, 0));
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->payload == payload);
  }
  // The server hands the stored payload view to the socket write and
  // the client wraps the frame body it recv'd into — the kernel socket
  // copy is the only copy of the payload, and it is invisible to
  // payload_metrics(). One stray to_bytes()/copy_of anywhere on the
  // serve path would show up as kPayloadBytes per get, and a response
  // split across recvs must not copy its buffered prefix either.
  const auto& pm = payload_metrics();
  EXPECT_EQ(pm.bytes_copied.load(), 0u)
      << "RPC get path must not copy the payload in user space";
}

// ---- failure envelope ----------------------------------------------------

TEST(RpcClient, ConnectRefusedIsUnavailableAfterRetries) {
  ClientOptions options;
  options.host = "127.0.0.1";
  options.port = 1;  // nothing listens here
  options.max_retries = 2;
  options.retry_backoff_ms = 1;
  options.connect_timeout_ms = 200;
  Client client(options);
  Status st = client.ping();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().retries, 2u);
}

TEST(RpcClient, RetriesThroughInjectedSendFailures) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.max_retries = 3;
  options.retry_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.ping().ok());  // channel warm
  {
    // First two sends die, third succeeds: the call must transparently
    // recover and the retry counter must record the attempts.
    failpoint::ScopedFailpoint fp(
        "rpc.client.send", {failpoint::Action::kError, 1.0, /*max_hits=*/2});
    Status st = client.put(desc_of(20, 0),
                           PayloadBuffer::copy_of(pattern_bytes(128, 1)));
    EXPECT_TRUE(st.ok()) << st.to_string();
  }
  EXPECT_GE(client.stats().retries, 2u);
  auto got = client.get(desc_of(20, 0));
  ASSERT_TRUE(got.ok());
}

TEST(RpcClient, BoundedRetryGivesUp) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.max_retries = 1;
  options.retry_backoff_ms = 1;
  Client client(options);
  ASSERT_TRUE(client.ping().ok());
  failpoint::ScopedFailpoint fp("rpc.client.send",
                                {failpoint::Action::kError, 1.0});
  Status st = client.ping();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

TEST(RpcClient, RequestTimeoutFires) {
  // A stalled server (swallows every request byte, never responds):
  // the client's poll deadline must fire instead of hanging forever.
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.request_timeout_ms = 150;
  options.max_retries = 1;
  options.retry_backoff_ms = 1;
  Client client(options);
  failpoint::ScopedFailpoint fp("rpc.server.read",
                                {failpoint::Action::kDelay, 1.0});
  const auto start = std::chrono::steady_clock::now();
  Status st = client.ping();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_GE(elapsed_ms, 140) << "should have waited out the deadline";
  EXPECT_LT(elapsed_ms, 5000) << "deadline must bound the wait";
}

TEST(RpcClient, ApplicationErrorsAreNotRetried) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.max_retries = 3;
  Client client(options);
  auto got = client.get(desc_of(21, 0));  // never stored
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client.stats().retries, 0u) << "NotFound must not retry";
}

TEST(RpcChaos, MidFrameServerKillIsRecoverable) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.max_retries = 4;
  options.retry_backoff_ms = 1;
  Client client(options);
  const VarId var = 22;
  Bytes payload = pattern_bytes(8192, 5);
  ASSERT_TRUE(
      client.put(desc_of(var, 0), PayloadBuffer::copy_of(payload)).ok());
  {
    // The server writes half a response frame and kills the
    // connection. The client sees a short read, reconnects, retries,
    // and the second attempt (failpoint exhausted) succeeds.
    failpoint::ScopedFailpoint fp(
        "rpc.server.write",
        {failpoint::Action::kPartialWrite, 1.0, /*max_hits=*/1});
    auto got = client.get(desc_of(var, 0));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_TRUE(got->payload == payload);
    EXPECT_EQ(fp.hits(), 1u);
  }
  EXPECT_GE(client.stats().transport_errors, 1u);
}

TEST(RpcChaos, MidFrameClientKillLeavesServerServing) {
  ServerFixture fx;
  const VarId var = 23;
  {
    ClientOptions options = fx.client_options();
    options.max_retries = 0;
    Client dying(options);
    ASSERT_TRUE(dying.ping().ok());
    // The client ships half a request header then drops the channel:
    // the server is left holding a partial frame.
    failpoint::ScopedFailpoint fp(
        "rpc.client.send",
        {failpoint::Action::kPartialWrite, 1.0, /*max_hits=*/1});
    EXPECT_FALSE(
        dying.put(desc_of(var, 0),
                  PayloadBuffer::copy_of(pattern_bytes(1024, 6)))
            .ok());
  }
  // A fresh client on a fresh connection is completely unaffected.
  Client healthy(fx.client_options());
  Bytes payload = pattern_bytes(1024, 7);
  ASSERT_TRUE(
      healthy.put(desc_of(var, 1), PayloadBuffer::copy_of(payload)).ok());
  auto got = healthy.get(desc_of(var, 1));
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->payload == payload);
}

TEST(RpcIntegrity, BitFlippedPutPayloadIsRefusedAndNeverStored) {
  ServerFixture fx;
  ClientOptions options = fx.client_options();
  options.max_retries = 3;
  options.retry_backoff_ms = 1;
  Client client(options);
  const VarId var = 24;
  // A 2 MiB body is too large for the server's read buffer, so it is
  // read into its own block and checksummed read by read: flip its
  // first payload byte, the first byte past the first read buffer and
  // its last byte.
  constexpr std::size_t kBig = 2u << 20;
  PutRequest probe;
  probe.desc = desc_of(var, 0);
  const std::size_t first_read_payload = kDefaultReadChunkBytes -
                                         kFrameHeaderBytes -
                                         encode_put_prefix(probe).size();
  struct Case {
    std::size_t size;
    std::uint64_t arg;  // flipped byte + 1; 0 draws it at random
  };
  // One byte, an inline body, a body above the read cutover and the
  // three pinned 2 MiB flips.
  const std::vector<Case> cases = {{1, 0},
                                   {4096, 0},
                                   {1u << 20, 0},
                                   {kBig, 1},
                                   {kBig, first_read_payload + 1},
                                   {kBig, kBig}};
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ObjectDescriptor desc = desc_of(var, static_cast<int>(i));
    const Bytes payload =
        pattern_bytes(cases[i].size, static_cast<std::uint8_t>(i));
    {
      // The client takes the CRC, then one payload bit flips on the
      // wire. DATA_LOSS is an answer, not a transport fault: no retry.
      // (Hit counters are lifetime counters across armings.)
      const std::uint64_t hits_before =
          failpoint::registry().hits("rpc.client.send");
      failpoint::Spec spec{failpoint::Action::kBitFlip, 1.0,
                           /*max_hits=*/1};
      spec.arg = cases[i].arg;
      failpoint::ScopedFailpoint fp("rpc.client.send", spec);
      Status st = client.put(desc, PayloadBuffer::copy_of(payload));
      EXPECT_EQ(st.code(), StatusCode::kDataLoss)
          << st.to_string() << " case " << i;
      EXPECT_EQ(fp.hits(), hits_before + 1);
    }
    EXPECT_EQ(client.stats().retries, 0u);
    EXPECT_EQ(fx.server.stats().ingest_crc_failures, i + 1);
    auto got = client.get(desc);
    EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << "case " << i;
    auto listed = client.query(var, 1, desc.box, /*latest=*/false);
    ASSERT_TRUE(listed.ok());
    EXPECT_TRUE(listed->empty()) << "directory upserted a refused put";
    auto stat = client.stat();
    ASSERT_TRUE(stat.ok());
    EXPECT_EQ(stat->total_objects, 0u);
    EXPECT_EQ(stat->total_bytes, 0u);
  }
  // The same shapes, unflipped, are accepted, read back intact and
  // stored under the client's CRC.
  int slot = static_cast<int>(cases.size());
  for (const std::size_t size : {std::size_t{4096}, kBig}) {
    const ObjectDescriptor desc = desc_of(var, slot++);
    const Bytes payload = pattern_bytes(size, 9);
    ASSERT_TRUE(client.put(desc, PayloadBuffer::copy_of(payload)).ok());
    auto got = client.get(desc);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_TRUE(got->payload == payload) << "size " << size;
    const std::uint32_t client_crc = crc32c(payload);
    EXPECT_EQ(got->checksum, client_crc);
    auto stored = fx.server.fabric().get(desc);
    ASSERT_TRUE(stored.ok());
    EXPECT_EQ(stored->object.checksum, client_crc);
    EXPECT_EQ(stored->object.data.crc32c(), client_crc);
  }
  EXPECT_EQ(fx.server.stats().ingest_crc_failures, cases.size());
}

TEST(RpcServer, ReadPauseHysteresis) {
  constexpr std::size_t kLimit = 1000;
  EXPECT_FALSE(reads_paused_after(false, kLimit, kLimit));
  EXPECT_TRUE(reads_paused_after(false, kLimit + 1, kLimit));
  // Once paused, reads stay off until the queue drains to half.
  EXPECT_TRUE(reads_paused_after(true, kLimit + 1, kLimit));
  EXPECT_TRUE(reads_paused_after(true, kLimit, kLimit));
  EXPECT_TRUE(reads_paused_after(true, kLimit / 2 + 1, kLimit));
  EXPECT_FALSE(reads_paused_after(true, kLimit / 2, kLimit));
  EXPECT_FALSE(reads_paused_after(true, 0, kLimit));
}

TEST(RpcServer, BackpressurePausesReadsAndResumes) {
  // A client pipelines gets for a 256 KiB object and reads nothing back.
  // Once the kernel socket buffers are full the responses pile up in
  // the write queue past its 1 MiB bound and the server stops reading.
  // A second wave sent while paused is read only after the client
  // drains the queue, and every response arrives byte-exact and in
  // order.
  ServerOptions so;
  so.num_loops = 1;
  so.max_write_queue_bytes = 1u << 20;
  ServerFixture fx(so);
  const ObjectDescriptor desc = desc_of(42, 0);
  const Bytes big = pattern_bytes(256u << 10, 11);
  {
    Client client(fx.client_options());
    ASSERT_TRUE(client.put(desc, PayloadBuffer::copy_of(big)).ok());
  }
  const std::uint64_t frames_before = fx.server.stats().frames_in;

  auto fd = connect_tcp("127.0.0.1", fx.server.port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status().to_string();
  auto send_gets = [&](std::uint64_t first_id, std::uint64_t n) {
    const Bytes body = encode_get_request(desc);
    Bytes burst;
    for (std::uint64_t id = first_id; id < first_id + n; ++id) {
      FrameHeader h;
      h.opcode = static_cast<std::uint8_t>(OpCode::kGet);
      h.request_id = id;
      h.body_len = static_cast<std::uint32_t>(body.size());
      encode_frame_header(h, &burst);
      burst.insert(burst.end(), body.begin(), body.end());
    }
    return send_all(fd->get(), burst, 2000);
  };

  constexpr std::uint64_t kWave1 = 64;  // 16 MiB of responses
  constexpr std::uint64_t kWave2 = 8;
  ASSERT_TRUE(send_gets(1, kWave1).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fx.server.stats().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fx.server.stats().backpressure_pauses, 1u);

  ASSERT_TRUE(send_gets(kWave1 + 1, kWave2).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(fx.server.stats().frames_in, frames_before + kWave1)
      << "the server read a request while its reads were paused";

  FrameAssembler assembler{FrameAssemblerOptions{}};
  const auto read_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (std::uint64_t id = 1; id <= kWave1 + kWave2; ++id) {
    while (!assembler.frame_ready()) {
      auto n = recv_some(fd->get(), assembler.next_span(), read_deadline);
      ASSERT_TRUE(n.ok()) << "response " << id << ": "
                          << n.status().to_string();
      ASSERT_TRUE(assembler.advance(*n).ok());
    }
    Frame frame = assembler.take_frame();
    ASSERT_EQ(frame.header.request_id, id);
    ASSERT_EQ(frame.header.code, status_to_wire(Status::Ok()));
    auto resp = decode_get_response(frame.body);
    ASSERT_TRUE(resp.ok()) << resp.status().to_string();
    ASSERT_TRUE(resp->payload == big) << "response " << id;
  }
  EXPECT_GE(fx.server.stats().backpressure_pauses, 1u);
  EXPECT_EQ(fx.server.stats().frames_in,
            frames_before + kWave1 + kWave2);
}

TEST(RpcServer, StartRejectsZeroSegmentSize) {
  // A zero segment cap makes the flush budget zero too, so the server
  // would queue responses it never writes; start() refuses it unbound.
  ServerOptions options;
  options.port = 0;
  options.max_segment_bytes = 0;
  Server server(options);
  Status st = server.start();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0u);
}

TEST(RpcServer, RejectsOversizedFrameWithoutCrashing) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  ServerFixture fx(options);
  ClientOptions copts = fx.client_options();
  copts.max_retries = 0;
  Client client(copts);
  // Below the ceiling: fine.
  ASSERT_TRUE(client.put(desc_of(24, 0),
                         PayloadBuffer::copy_of(pattern_bytes(512, 1)))
                  .ok());
  // Above the ceiling: the server poisons the stream and drops the
  // connection; the client surfaces a transport error.
  Status st = client.put(desc_of(24, 1),
                         PayloadBuffer::copy_of(pattern_bytes(8192, 2)));
  EXPECT_FALSE(st.ok());
  // And the server keeps serving new connections.
  Client fresh(fx.client_options());
  EXPECT_TRUE(fresh.ping().ok());
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
}

TEST(RpcMultiLoop, ParityAcrossLoopCounts) {
  // The same workload against a single-loop and a four-loop server
  // must produce byte-identical results — sharding connections across
  // event loops is invisible to clients.
  constexpr int kObjects = 48;
  constexpr std::size_t kPayload = 3000;
  std::vector<Bytes> blobs;
  for (int i = 0; i < kObjects; ++i) {
    blobs.push_back(pattern_bytes(kPayload + i * 13,
                                  static_cast<std::uint8_t>(i)));
  }

  for (const std::size_t loops : {std::size_t{1}, std::size_t{4}}) {
    ServerOptions so;
    so.num_loops = loops;
    ServerFixture fx(so);
    ASSERT_EQ(fx.server.num_loops(), loops);

    ClientOptions copts = fx.client_options();
    copts.pool_size = 8;  // spread channels across the loops
    Client client(copts);
    ASSERT_TRUE(client.connect_pool().ok());

    std::vector<std::thread> writers;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        for (int i = t; i < kObjects; i += 4) {
          if (!client
                   .put(desc_of(31, i), PayloadBuffer::copy_of(blobs[i]))
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : writers) w.join();
    ASSERT_EQ(failures.load(), 0);

    for (int i = 0; i < kObjects; ++i) {
      auto got = client.get(desc_of(31, i));
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      ASSERT_EQ(got->payload.size(), blobs[i].size());
      EXPECT_EQ(0, std::memcmp(got->payload.span().data(),
                               blobs[i].data(), blobs[i].size()));
    }

    const auto stats = fx.server.stats();
    ASSERT_EQ(stats.per_loop.size(), loops);
    std::size_t loops_used = 0;
    for (const auto& shard : stats.per_loop) {
      if (shard.frames_out > 0) loops_used += 1;
    }
    if (loops > 1) {
      EXPECT_GE(loops_used, 2u)
          << "least-connections accept left all traffic on one loop";
    }
    EXPECT_EQ(stats.frames_out, stats.frames_in);
  }
}

TEST(RpcMultiLoop, ChunkedStreamingLargeGetKeepsServing) {
  // A multi-MiB get against a small segment cap must stream in many
  // payload chunks and bounded flush rounds, while pings on another
  // connection keep being served (no head-of-line blocking of the
  // loop).
  ServerOptions so;
  so.num_loops = 1;  // worst case: the big get shares its loop with all
  so.max_segment_bytes = 64u << 10;
  ServerFixture fx(so);

  const Bytes big = pattern_bytes(4u << 20, 5);
  Client client(fx.client_options());
  ASSERT_TRUE(client.put(desc_of(32, 0),
                         PayloadBuffer::copy_of(big)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> ping_failures{0};
  std::thread pinger([&] {
    Client side(fx.client_options());
    while (!stop.load()) {
      if (!side.ping().ok()) ping_failures.fetch_add(1);
    }
  });

  for (int round = 0; round < 4; ++round) {
    auto got = client.get(desc_of(32, 0));
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_EQ(got->payload.size(), big.size());
    EXPECT_EQ(0, std::memcmp(got->payload.span().data(), big.data(),
                             big.size()));
  }
  stop.store(true);
  pinger.join();
  // The server publishes a flush's stats after its last sendmsg, so the
  // client can hold the whole response first. A ping on the same loop
  // is only served once that flush has returned.
  ASSERT_TRUE(client.ping().ok());

  EXPECT_EQ(ping_failures.load(), 0);
  const auto stats = fx.server.stats();
  // Each 4 MiB response carves into >= 64 segments of 64 KiB.
  EXPECT_GE(stats.payload_chunks, 4u * 64u);
}

TEST(RpcServer, AcceptLimitParksAndResumes) {
  // Simulated fd exhaustion: the accept_limit failpoint drops one
  // accepted connection and parks the acceptor (as EMFILE would). A
  // connection closing must resume accepting and drain the backlog.
  ServerFixture fx;
  auto keeper = std::make_unique<Client>([&] {
    ClientOptions o = fx.client_options();
    o.max_retries = 0;
    return o;
  }());
  ASSERT_TRUE(keeper->ping().ok());  // open before the limit hits

  {
    failpoint::ScopedFailpoint fp(
        "rpc.server.accept_limit",
        {failpoint::Action::kError, 1.0, /*max_hits=*/1});
    ClientOptions copts = fx.client_options();
    copts.max_retries = 0;
    copts.request_timeout_ms = 500;
    Client dropped(copts);
    EXPECT_FALSE(dropped.ping().ok());
  }
  EXPECT_GE(fx.server.stats().accept_pauses, 1u);

  // Closing the keeper's connection frees an fd slot; the server must
  // resume accepting and serve fresh clients again.
  keeper.reset();
  ClientOptions copts = fx.client_options();
  copts.max_retries = 5;
  copts.retry_backoff_ms = 50;
  copts.request_timeout_ms = 1000;
  Client fresh(copts);
  EXPECT_TRUE(fresh.ping().ok());
  EXPECT_GE(fx.server.stats().injected_failures, 1u);
}

TEST(RpcServer, StopWhileClientsActiveIsClean) {
  auto fx = std::make_unique<ServerFixture>();
  ClientOptions options = fx->client_options();
  options.max_retries = 0;
  Client client(options);
  ASSERT_TRUE(client.ping().ok());
  fx->server.stop();
  // Requests after stop fail with a transport error, not a hang.
  EXPECT_FALSE(client.ping().ok());
}

}  // namespace
}  // namespace corec::rpc
