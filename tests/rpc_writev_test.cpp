// WriteQueue unit tests over real sockets: scatter-gather flushing
// with partial writes forced mid-iovec (tiny SO_SNDBUF on a
// socketpair), byte-exact stream reassembly, chunked segmenting of
// large payloads, and the per-flush byte budget. Also the client's
// gathered blocking send_all over the same short-write conditions.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rpc/socket.hpp"
#include "rpc/write_queue.hpp"

namespace corec::rpc {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed * 131 + i * 7 + (i >> 8));
  }
  return b;
}

OutFrame make_frame(std::size_t head_bytes, std::size_t payload_bytes,
                    std::uint64_t seed) {
  OutFrame f;
  f.head = pattern_bytes(head_bytes, seed);
  if (payload_bytes > 0) {
    f.payload = PayloadBuffer::wrap(pattern_bytes(payload_bytes, seed + 1));
  }
  return f;
}

Bytes expected_stream(const std::vector<OutFrame>& frames) {
  Bytes all;
  for (const OutFrame& f : frames) {
    all.insert(all.end(), f.head.begin(), f.head.end());
    const ByteSpan p = f.payload.span();
    all.insert(all.end(), p.data(), p.data() + p.size());
  }
  return all;
}

// A nonblocking writer end with the smallest send buffer the kernel
// will grant, so flushes hit EAGAIN partway through the iovec array.
struct TinyPipe {
  int write_fd = -1;
  int read_fd = -1;

  TinyPipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    write_fd = fds[0];
    read_fd = fds[1];
    const int tiny = 1;  // kernel clamps to its minimum (a few KiB)
    ::setsockopt(write_fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    const int flags = ::fcntl(write_fd, F_GETFL, 0);
    ::fcntl(write_fd, F_SETFL, flags | O_NONBLOCK);
  }
  ~TinyPipe() {
    if (write_fd >= 0) ::close(write_fd);
    if (read_fd >= 0) ::close(read_fd);
  }
};

// Reads everything until EOF on a background thread. A nonzero
// `throttle_us` sleeps between small odd-sized reads so the writer is
// guaranteed to outrun the drain and hit EAGAIN mid-iovec.
std::thread drain_thread(int fd, Bytes* out, int throttle_us = 0) {
  return std::thread([fd, out, throttle_us] {
    std::uint8_t buf[4096];
    const std::size_t chunk = throttle_us > 0 ? 1531 : sizeof(buf);
    for (;;) {
      const ssize_t n = ::read(fd, buf, chunk);
      if (n <= 0) return;
      out->insert(out->end(), buf, buf + n);
      if (throttle_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
    }
  });
}

TEST(WriteQueue, ShortWritesMidIovecReassembleByteExact) {
  TinyPipe pipe;
  Bytes received;
  std::thread reader = drain_thread(pipe.read_fd, &received, 50);

  // Many frames with odd sizes so partial writes land at arbitrary
  // offsets: mid-head, on a frame boundary, mid-payload.
  std::mt19937_64 rng(7);
  std::vector<OutFrame> frames;
  for (int i = 0; i < 64; ++i) {
    const std::size_t head = 17 + rng() % 64;
    const std::size_t payload = (i % 3 == 0) ? 0 : 100 + rng() % 9000;
    frames.push_back(make_frame(head, payload, i));
  }

  WriteQueueOptions opts;
  opts.max_iov = 8;  // small array: batches span several flush rounds
  WriteQueue q(opts);
  for (const OutFrame& f : frames) {
    OutFrame copy;
    copy.head = f.head;
    copy.payload = f.payload;
    q.push(std::move(copy));
  }

  FlushDelta total;
  std::size_t would_block = 0;
  while (!q.empty()) {
    FlushDelta delta;
    const FlushOutcome outcome = q.flush(pipe.write_fd, &delta);
    total.writev_calls += delta.writev_calls;
    total.bytes += delta.bytes;
    total.frames_completed += delta.frames_completed;
    ASSERT_NE(outcome, FlushOutcome::kError);
    if (outcome == FlushOutcome::kWouldBlock) {
      would_block += 1;
      // Give the reader a moment to free socket-buffer space.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ::close(pipe.write_fd);
  pipe.write_fd = -1;
  reader.join();

  const Bytes expected = expected_stream(frames);
  EXPECT_GT(would_block, 0u) << "SO_SNDBUF never filled; test is vacuous";
  EXPECT_EQ(total.bytes, expected.size());
  EXPECT_EQ(total.frames_completed, frames.size());
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(received.data(), expected.data(),
                           expected.size()));
}

TEST(WriteQueue, LargePayloadStreamsInSegments) {
  TinyPipe pipe;
  Bytes received;
  std::thread reader = drain_thread(pipe.read_fd, &received);

  // 1 MiB payload against a 64 KiB segment cap: the flush must carve
  // it into >= 16 iovec slices.
  WriteQueueOptions opts;
  opts.segment_bytes = 64u << 10;
  opts.flush_budget_bytes = 8u << 20;
  WriteQueue q(opts);
  std::vector<OutFrame> frames;
  frames.push_back(make_frame(28, 1u << 20, 99));
  OutFrame copy;
  copy.head = frames[0].head;
  copy.payload = frames[0].payload;
  q.push(std::move(copy));

  FlushDelta total;
  while (!q.empty()) {
    FlushDelta delta;
    ASSERT_NE(q.flush(pipe.write_fd, &delta), FlushOutcome::kError);
    total.bytes += delta.bytes;
    total.payload_chunks += delta.payload_chunks;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ::close(pipe.write_fd);
  pipe.write_fd = -1;
  reader.join();

  EXPECT_GE(total.payload_chunks, (1u << 20) / (64u << 10));
  const Bytes expected = expected_stream(frames);
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(received.data(), expected.data(),
                           expected.size()));
}

TEST(WriteQueue, FlushBudgetYieldsWithBytesLeft) {
  // A plain blocking socketpair with default buffers: the budget, not
  // EAGAIN, must stop the first flush.
  int fds[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  Bytes received;
  std::thread reader = drain_thread(fds[1], &received);

  WriteQueueOptions opts;
  opts.segment_bytes = 16u << 10;
  opts.flush_budget_bytes = 64u << 10;  // far below the queued bytes
  WriteQueue q(opts);
  std::vector<OutFrame> frames;
  for (int i = 0; i < 8; ++i) frames.push_back(make_frame(28, 96u << 10, i));
  for (const OutFrame& f : frames) {
    OutFrame copy;
    copy.head = f.head;
    copy.payload = f.payload;
    q.push(std::move(copy));
  }

  FlushDelta delta;
  const FlushOutcome first = q.flush(fds[0], &delta);
  EXPECT_EQ(first, FlushOutcome::kBudget);
  EXPECT_FALSE(q.empty());
  EXPECT_LE(delta.bytes, opts.flush_budget_bytes + opts.segment_bytes);

  while (!q.empty()) {
    FlushDelta d;
    ASSERT_NE(q.flush(fds[0], &d), FlushOutcome::kError);
  }
  ::close(fds[0]);
  reader.join();
  ::close(fds[1]);

  const Bytes expected = expected_stream(frames);
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(received.data(), expected.data(),
                           expected.size()));
}

TEST(WriteQueue, BatchHistogramCountsFramesPerCall) {
  // Large-buffer socketpair: 10 small frames queued then flushed once
  // should leave in a single sendmsg, recorded in the 9-16 bucket.
  int fds[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));

  WriteQueue q;
  for (int i = 0; i < 10; ++i) q.push(make_frame(28, 64, i));
  FlushDelta delta;
  EXPECT_EQ(q.flush(fds[0], &delta), FlushOutcome::kDrained);
  EXPECT_EQ(delta.writev_calls, 1u);
  EXPECT_EQ(delta.frames_completed, 10u);
  EXPECT_EQ(delta.batch_hist[4], 1u);  // buckets: 1,2,3-4,5-8,9-16,...

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WriteQueue, ErrorOnClosedPeer) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ::close(fds[1]);

  WriteQueue q;
  q.push(make_frame(28, 4096, 1));
  FlushDelta delta;
  EXPECT_EQ(q.flush(fds[0], &delta), FlushOutcome::kError);
  ::close(fds[0]);
}

TEST(SendAll, GatheredPartsResumeAfterShortWrites) {
  TinyPipe pipe;
  Bytes received;
  std::thread reader = drain_thread(pipe.read_fd, &received, 50);

  // A frame head, an empty part, a payload far larger than the send
  // buffer, and enough small parts that one sendmsg cannot gather them
  // all: short writes land mid-part and on part boundaries.
  const Bytes head = pattern_bytes(37, 1);
  const Bytes empty;
  const Bytes payload = pattern_bytes(256u << 10, 2);
  std::vector<Bytes> tail;
  for (int i = 0; i < 10; ++i) {
    tail.push_back(pattern_bytes(3 + 97 * i, 10 + i));
  }
  const Status st = send_all(
      pipe.write_fd,
      {head, empty, payload, tail[0], tail[1], tail[2], tail[3], tail[4],
       empty, tail[5], tail[6], tail[7], tail[8], tail[9]},
      10000);
  ASSERT_TRUE(st.ok()) << st.to_string();
  ::close(pipe.write_fd);
  pipe.write_fd = -1;
  reader.join();

  Bytes expected = head;
  expected.insert(expected.end(), payload.begin(), payload.end());
  for (const Bytes& t : tail) {
    expected.insert(expected.end(), t.begin(), t.end());
  }
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(received.data(), expected.data(),
                           expected.size()));
}

TEST(SendAll, DeadlineFiresWhenPeerNeverReads) {
  TinyPipe pipe;
  const Bytes head = pattern_bytes(28, 3);
  const Bytes payload = pattern_bytes(1u << 20, 4);
  const Status st = send_all(pipe.write_fd, {head, payload}, 100);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
}

TEST(SendAll, ErrorOnClosedPeer) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  ::close(fds[1]);
  const Bytes head = pattern_bytes(28, 5);
  EXPECT_EQ(send_all(fds[0], {head, head}, 1000).code(),
            StatusCode::kUnavailable);
  ::close(fds[0]);
}

}  // namespace
}  // namespace corec::rpc
