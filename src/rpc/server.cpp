#include "rpc/server.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <utility>

#include "common/checksum.hpp"
#include "common/failpoint.hpp"

namespace corec::rpc {

using staging::DataObject;
using staging::ObjectDescriptor;
using staging::ObjectLocation;
using staging::StoredKind;
using staging::StoredObject;

namespace {

std::size_t resolve_num_loops(std::size_t requested) {
  if (requested > 0) return requested;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  return cap < 4 ? cap : 4;
}

// Histogram bucket for `frames` completed by one data-bearing recv:
// 0, 1, 2, 3–4, 5–8, 9–16, 17–32, 33+.
std::size_t recv_batch_bucket(std::size_t frames) {
  if (frames <= 2) return frames;
  std::size_t bucket = 3;
  std::size_t upper = 4;
  while (frames > upper && bucket + 1 < kRecvBatchBuckets) {
    upper *= 2;
    ++bucket;
  }
  return bucket;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      fabric_(options_.num_servers, options_.fabric) {
  const std::size_t n = resolve_num_loops(options_.num_loops);
  loops_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<LoopShard>());
    loops_.back()->loop = std::make_unique<EventLoop>();
  }
}

Server::~Server() { stop(); }

Status Server::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  if (options_.max_segment_bytes == 0) {
    return Status::InvalidArgument("max_segment_bytes must be positive");
  }
  for (const auto& shard : loops_) {
    if (!shard->loop->valid()) {
      return Status::Internal("event loop initialization failed");
    }
  }
  COREC_ASSIGN_OR_RETURN(listen_fd_,
                         listen_tcp(options_.host, options_.port));
  COREC_ASSIGN_OR_RETURN(bound_port_, local_port(listen_fd_.get()));
  // Loop 0 doubles as the acceptor; connections fan out from there.
  COREC_RETURN_IF_ERROR(loops_[0]->loop->add(
      listen_fd_.get(), EPOLLIN, [this](std::uint32_t) { on_accept(); }));
  running_.store(true, std::memory_order_release);
  for (auto& shard : loops_) {
    shard->thread = std::thread([loop = shard->loop.get()] { loop->run(); });
  }
  return Status::Ok();
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Stop accepting first, then wind the loops down.
  loops_[0]->loop->post([this] {
    if (listen_fd_.valid()) {
      loops_[0]->loop->remove(listen_fd_.get());
      listen_fd_.reset();
    }
  });
  for (auto& shard : loops_) shard->loop->stop();
  for (auto& shard : loops_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  for (auto& shard : loops_) {
    for (auto& [fd, conn] : shard->connections) {
      conn->closed = true;
      ::close(fd);
    }
    shard->connections.clear();
    shard->active.store(0, std::memory_order_relaxed);
  }
}

ServerStatsSnapshot Server::stats() const {
  ServerStatsSnapshot s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.backpressure_pauses =
      backpressure_pauses_.load(std::memory_order_relaxed);
  s.accept_pauses = accept_pauses_.load(std::memory_order_relaxed);
  s.injected_failures = injected_failures_.load(std::memory_order_relaxed);
  s.ingest_crc_failures =
      ingest_crc_failures_.load(std::memory_order_relaxed);
  s.per_loop.reserve(loops_.size());
  for (const auto& shard : loops_) {
    LoopStatsSnapshot l;
    l.connections = shard->active.load(std::memory_order_relaxed);
    l.frames_in = shard->frames_in.load(std::memory_order_relaxed);
    l.frames_out = shard->frames_out.load(std::memory_order_relaxed);
    l.bytes_in = shard->bytes_in.load(std::memory_order_relaxed);
    l.bytes_out = shard->bytes_out.load(std::memory_order_relaxed);
    l.recv_calls = shard->recv_calls.load(std::memory_order_relaxed);
    l.recv_data_calls =
        shard->recv_data_calls.load(std::memory_order_relaxed);
    l.recv_eagain_calls =
        shard->recv_eagain_calls.load(std::memory_order_relaxed);
    l.writev_calls = shard->writev_calls.load(std::memory_order_relaxed);
    l.payload_chunks =
        shard->payload_chunks.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kWritevBatchBuckets; ++b) {
      l.writev_batch_hist[b] =
          shard->writev_batch_hist[b].load(std::memory_order_relaxed);
      s.writev_batch_hist[b] += l.writev_batch_hist[b];
    }
    for (std::size_t b = 0; b < kRecvBatchBuckets; ++b) {
      l.recv_batch_hist[b] =
          shard->recv_batch_hist[b].load(std::memory_order_relaxed);
      s.recv_batch_hist[b] += l.recv_batch_hist[b];
    }
    s.active += l.connections;
    s.frames_in += l.frames_in;
    s.frames_out += l.frames_out;
    s.bytes_in += l.bytes_in;
    s.bytes_out += l.bytes_out;
    s.recv_calls += l.recv_calls;
    s.recv_data_calls += l.recv_data_calls;
    s.recv_eagain_calls += l.recv_eagain_calls;
    s.writev_calls += l.writev_calls;
    s.payload_chunks += l.payload_chunks;
    s.per_loop.push_back(l);
  }
  return s;
}

void Server::on_accept() {
  for (;;) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        pause_accept();
        return;
      }
      return;
    }
    if (auto hit = COREC_FAILPOINT("rpc.server.accept")) {
      injected_failures_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (auto hit = COREC_FAILPOINT("rpc.server.accept_limit")) {
      // Simulated fd exhaustion: the descriptor table is "full", so
      // drop this fd and park the acceptor like a real EMFILE. Park
      // before closing, so a peer that sees the drop also sees the pause.
      injected_failures_.fetch_add(1, std::memory_order_relaxed);
      pause_accept();
      ::close(fd);
      return;
    }
    if (!set_nonblocking(fd).ok() || !set_nodelay(fd).ok()) {
      ::close(fd);
      continue;
    }
    // Least-connections loop assignment; `active` is bumped here (on
    // the acceptor) so back-to-back accepts see each other's load.
    std::size_t target = 0;
    std::uint64_t best = loops_[0]->active.load(std::memory_order_relaxed);
    for (std::size_t i = 1; i < loops_.size(); ++i) {
      const std::uint64_t load =
          loops_[i]->active.load(std::memory_order_relaxed);
      if (load < best) {
        best = load;
        target = i;
      }
    }
    loops_[target]->active.fetch_add(1, std::memory_order_relaxed);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (target == 0) {
      adopt_connection(0, fd);
    } else {
      loops_[target]->loop->post(
          [this, target, fd] { adopt_connection(target, fd); });
    }
  }
}

void Server::pause_accept() {
  if (accept_paused_.exchange(true, std::memory_order_acq_rel)) return;
  accept_pauses_.fetch_add(1, std::memory_order_relaxed);
  // Logged once per episode; resume is silent.
  std::fprintf(stderr,
               "corec-server: fd limit reached (EMFILE/ENFILE); "
               "pausing accept until a connection closes\n");
  if (listen_fd_.valid()) {
    (void)loops_[0]->loop->modify(listen_fd_.get(), 0);
  }
}

void Server::resume_accept() {
  if (!running_.load(std::memory_order_acquire)) return;
  if (!accept_paused_.exchange(false, std::memory_order_acq_rel)) return;
  if (!listen_fd_.valid()) return;
  (void)loops_[0]->loop->modify(listen_fd_.get(), EPOLLIN);
  // Drain whatever piled up in the backlog while parked.
  on_accept();
}

void Server::adopt_connection(std::size_t loop_index, int fd) {
  WriteQueueOptions wq;
  wq.segment_bytes = options_.max_segment_bytes;
  wq.flush_budget_bytes = options_.max_segment_bytes * 4;
  FrameAssemblerOptions fa;
  fa.max_body = options_.max_frame_bytes;
  fa.crc_large_bodies = true;
  auto conn = std::make_shared<Connection>(fd, loop_index, fa, wq);
  // EPOLLRDHUP is part of the permanent interest set: a client that
  // dies while its reads are paused is reaped on the event instead of
  // lingering until the next failed write.
  conn->interest = EPOLLIN | EPOLLRDHUP;
  Status st = loops_[loop_index]->loop->add(
      fd, conn->interest, [this, conn](std::uint32_t events) {
        on_connection_event(conn, events);
      });
  if (!st.ok()) {
    ::close(fd);
    loops_[loop_index]->active.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  loops_[loop_index]->connections[fd] = conn;
}

void Server::on_connection_event(const ConnPtr& conn,
                                 std::uint32_t events) {
  if (conn->closed) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    close_connection(conn);
    return;
  }
  if (events & EPOLLOUT) flush_writes(conn);
  if (conn->closed) return;
  if (events & EPOLLIN) on_readable(conn);
  if (conn->closed) return;
  if (events & EPOLLRDHUP) {
    // Orderly close from the peer. Any bytes that were still readable
    // were drained above (recv hits EOF and closes); reaching here
    // means the client is gone — paused reads included — so reap now.
    close_connection(conn);
  }
}

void Server::on_readable(const ConnPtr& conn) {
  LoopShard& shard = shard_of(conn);
  for (;;) {
    if (conn->reads_paused || conn->closed) break;
    MutableByteSpan span = conn->assembler.next_span();
    if (span.empty()) break;  // poisoned assembler; close is pending
    const ssize_t n = ::recv(conn->fd, span.data(), span.size(), 0);
    shard.recv_calls.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) {
      close_connection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Wakeup probe that found no bytes: tracked separately so the
        // recv-per-frame gate divides by *data-bearing* reads only.
        shard.recv_eagain_calls.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (errno == EINTR) continue;
      close_connection(conn);
      return;
    }
    shard.recv_data_calls.fetch_add(1, std::memory_order_relaxed);
    if (auto hit = COREC_FAILPOINT("rpc.server.read")) {
      injected_failures_.fetch_add(1, std::memory_order_relaxed);
      if (hit.action == failpoint::Action::kDelay) {
        // Stalled-server simulation: swallow the bytes so the request
        // never completes and the client's deadline fires.
        continue;
      }
      // Otherwise the bytes are lost and the connection dies, exactly
      // like a NIC-level reset mid-frame.
      close_connection(conn);
      return;
    }
    shard.bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                             std::memory_order_relaxed);
    Status st = conn->assembler.advance(static_cast<std::size_t>(n));
    if (!st.ok()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
      return;
    }
    std::uint64_t frames_this_recv = 0;
    while (conn->assembler.frame_ready()) {
      ++frames_this_recv;
      handle_frame(conn, conn->assembler.take_frame());
      if (conn->closed) return;
      if (conn->write_queue.queued_bytes() >=
          options_.max_write_queue_bytes) {
        flush_writes(conn);
        if (conn->closed) return;
      }
    }
    shard.recv_batch_hist[recv_batch_bucket(frames_this_recv)].fetch_add(
        1, std::memory_order_relaxed);
  }
  // One flush per readable event: a pipelined client's burst of
  // requests has all been consumed by the time recv hits EAGAIN, so
  // the queued responses leave in a single sendmsg
  // (syscalls-per-frame < 1).
  if (!conn->closed && !conn->write_queue.empty()) flush_writes(conn);
}

void Server::handle_frame(const ConnPtr& conn, Frame frame) {
  shard_of(conn).frames_in.fetch_add(1, std::memory_order_relaxed);
  if (!valid_opcode(frame.header.opcode)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(
        conn, error_response(frame.header,
                             Status::InvalidArgument("unknown opcode")));
    return;
  }
  if (auto hit = COREC_FAILPOINT("rpc.server.dispatch")) {
    injected_failures_.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(
        conn,
        error_response(frame.header,
                       Status::Unavailable("injected dispatch failure")));
    return;
  }
  enqueue_response(conn, execute(frame));
}

OutFrame Server::execute(const Frame& frame) {
  const FrameHeader& header = frame.header;
  const PayloadBuffer& body = frame.body;
  switch (static_cast<OpCode>(header.opcode)) {
    case OpCode::kPing: {
      OutFrame out;
      out.head = make_head(header, Status::Ok(), {}, 0);
      return out;
    }
    case OpCode::kPut: {
      auto req = decode_put_request(body);
      if (!req.ok()) return error_response(header, req.status());
      // Every payload is checksummed while cache-hot, and the stored
      // payload never shares a read buffer. A body too large for that
      // buffer was assembled in its own allocation, which took the
      // body's CRC as each read landed; its payload is the tail of that
      // allocation (wasting only the encoded metadata prefix), and the
      // prefix's share is stripped from the body CRC. A body that fit
      // is a slice of the read buffer, copied out here by one
      // crc32c_copy pass.
      PayloadBuffer payload;
      std::uint32_t payload_crc = 0;
      if (frame.body_crc.has_value()) {
        payload = req->payload;
        const std::size_t prefix_len = body.size() - payload.size();
        payload_crc =
            crc32c_combine(corec::crc32c(body.data(), prefix_len),
                           *frame.body_crc, payload.size());
      } else {
        payload = PayloadBuffer::copy_with_crc(req->payload.span());
        payload_crc = payload.crc32c();
      }
      // Ingest verification: the CRC of the received bytes must match
      // the client's claim, or the payload was corrupted on the way in
      // and nothing is stored.
      if (payload_crc != req->checksum) {
        ingest_crc_failures_.fetch_add(1, std::memory_order_relaxed);
        return error_response(
            header, Status::DataLoss("put payload fails its CRC32C"));
      }
      DataObject obj = DataObject::with_checksum(
          req->desc, payload, req->checksum);
      ServerId primary = kInvalidServer;
      Status st = fabric_.put(std::move(obj), req->kind, &primary);
      if (st.ok()) {
        ObjectLocation loc;
        loc.primary = primary;
        loc.logical_size = req->payload.size();
        loc.object_checksum = req->checksum;
        fabric_.directory().upsert(req->desc, std::move(loc));
      }
      OutFrame out;
      out.head = make_head(header, st, {}, 0);
      return out;
    }
    case OpCode::kGet: {
      auto desc = decode_get_request(body);
      if (!desc.ok()) return error_response(header, desc.status());
      auto found = fabric_.get(*desc);
      if (!found.ok()) return error_response(header, found.status());
      OutFrame out;
      Bytes prefix = encode_get_response_prefix(*found);
      // The payload rides as its own write segments: a refcounted view
      // of the stored buffer, sliced at the segment cap and copied
      // only by the kernel socket write.
      out.payload = found->object.data;
      out.head = make_head(header, Status::Ok(), prefix,
                           out.payload.size());
      return out;
    }
    case OpCode::kQuery: {
      auto req = decode_query_request(body);
      if (!req.ok()) return error_response(header, req.status());
      std::vector<ObjectDescriptor> descs =
          req->latest ? fabric_.directory().query_latest(
                            req->var, req->version, req->region)
                      : fabric_.directory().query(req->var, req->version,
                                                  req->region);
      OutFrame out;
      out.head = make_head(header, Status::Ok(),
                           encode_query_response(descs), 0);
      return out;
    }
    case OpCode::kErase: {
      auto desc = decode_erase_request(body);
      if (!desc.ok()) return error_response(header, desc.status());
      const bool removed = fabric_.erase(*desc);
      fabric_.directory().remove(*desc);
      OutFrame out;
      out.head = make_head(header, Status::Ok(),
                           encode_erase_response(removed), 0);
      return out;
    }
    case OpCode::kStat: {
      StatResponse s;
      s.num_servers = fabric_.num_servers();
      s.total_objects = fabric_.total_objects();
      s.total_bytes = fabric_.total_bytes();
      s.fabric = fabric_.stats();
      OutFrame out;
      out.head = make_head(header, Status::Ok(), encode_stat_response(s),
                           0);
      return out;
    }
  }
  return error_response(header, Status::InvalidArgument("unknown opcode"));
}

OutFrame Server::error_response(const FrameHeader& req,
                                        const Status& status) {
  OutFrame out;
  out.head = make_head(req, status, {}, 0);
  return out;
}

Bytes Server::make_head(const FrameHeader& req_header, const Status& status,
                        const Bytes& body_prefix,
                        std::size_t payload_bytes) {
  FrameHeader h;
  h.opcode = req_header.opcode;
  h.code = status_to_wire(status);
  h.request_id = req_header.request_id;
  h.body_len =
      static_cast<std::uint32_t>(body_prefix.size() + payload_bytes);
  Bytes head;
  head.reserve(kFrameHeaderBytes + body_prefix.size());
  encode_frame_header(h, &head);
  head.insert(head.end(), body_prefix.begin(), body_prefix.end());
  return head;
}

void Server::enqueue_response(const ConnPtr& conn, OutFrame frame) {
  if (conn->closed) return;
  shard_of(conn).frames_out.fetch_add(1, std::memory_order_relaxed);
  conn->write_queue.push(std::move(frame));
  // Deliberately no flush here: the caller owns the flush boundary,
  // so consecutive responses from one read batch (or one pool
  // completion hop) coalesce into a single sendmsg.
}

void Server::flush_writes(const ConnPtr& conn) {
  if (conn->closed) return;
  if (auto hit = COREC_FAILPOINT("rpc.server.write")) {
    injected_failures_.fetch_add(1, std::memory_order_relaxed);
    if (hit.action == failpoint::Action::kPartialWrite &&
        conn->write_queue.front() != nullptr) {
      // Write a truncated piece of the pending frame, then die: the
      // client observes a mid-frame connection kill.
      const OutFrame& f = *conn->write_queue.front();
      std::size_t keep = hit.arg == 0 ? f.head.size() / 2
                                      : static_cast<std::size_t>(hit.arg);
      keep = std::min(keep, f.head.size());
      if (keep > 0) {
        [[maybe_unused]] ssize_t n =
            ::send(conn->fd, f.head.data(), keep, MSG_NOSIGNAL);
      }
    }
    close_connection(conn);
    return;
  }
  LoopShard& shard = shard_of(conn);
  FlushDelta delta;
  const FlushOutcome outcome = conn->write_queue.flush(conn->fd, &delta);
  shard.writev_calls.fetch_add(delta.writev_calls,
                               std::memory_order_relaxed);
  shard.bytes_out.fetch_add(delta.bytes, std::memory_order_relaxed);
  shard.payload_chunks.fetch_add(delta.payload_chunks,
                                 std::memory_order_relaxed);
  for (std::size_t b = 0; b < kWritevBatchBuckets; ++b) {
    if (delta.batch_hist[b] != 0) {
      shard.writev_batch_hist[b].fetch_add(delta.batch_hist[b],
                                           std::memory_order_relaxed);
    }
  }
  if (outcome == FlushOutcome::kError) {
    close_connection(conn);
    return;
  }
  // kBudget keeps EPOLLOUT armed (queue nonempty) and returns to the
  // loop, so a multi-MiB stream shares the loop with its neighbors.
  update_read_interest(conn);
}

void Server::update_read_interest(const ConnPtr& conn) {
  if (conn->closed) return;
  const bool pause =
      reads_paused_after(conn->reads_paused, conn->write_queue.queued_bytes(),
                         options_.max_write_queue_bytes);
  if (pause && !conn->reads_paused) {
    backpressure_pauses_.fetch_add(1, std::memory_order_relaxed);
  }
  conn->reads_paused = pause;
  std::uint32_t events = EPOLLRDHUP;
  if (!pause) events |= EPOLLIN;
  if (!conn->write_queue.empty()) events |= EPOLLOUT;
  // Most flushes drain the queue and leave the interest set as it was:
  // no epoll_ctl then. A failed modify keeps the old mask so the next
  // flush retries it.
  if (events == conn->interest) return;
  if (loop_of(conn).modify(conn->fd, events).ok()) conn->interest = events;
}

void Server::close_connection(const ConnPtr& conn) {
  if (conn->closed) return;
  conn->closed = true;
  LoopShard& shard = shard_of(conn);
  shard.loop->remove(conn->fd);
  ::close(conn->fd);
  shard.connections.erase(conn->fd);
  shard.active.fetch_sub(1, std::memory_order_relaxed);
  if (accept_paused_.load(std::memory_order_acquire)) {
    // A descriptor just freed up; un-park the acceptor on its loop.
    loops_[0]->loop->post([this] { resume_accept(); });
  }
}

}  // namespace corec::rpc
