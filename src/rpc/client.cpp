#include "rpc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.hpp"

namespace corec::rpc {

using staging::ObjectDescriptor;
using staging::StoredKind;

namespace {

/// Transport faults and server-side Unavailable are transient; every
/// other non-OK status is an application answer and must surface.
bool retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable;
}

}  // namespace

Client::Client(ClientOptions options) : options_(std::move(options)) {
  const std::size_t n = std::max<std::size_t>(1, options_.pool_size);
  channels_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    channels_.push_back(std::make_unique<Channel>(assembler_options()));
  }
}

FrameAssemblerOptions Client::assembler_options() const {
  FrameAssemblerOptions fa;
  fa.max_body = options_.max_frame_bytes;
  return fa;
}

void Client::reset_channel(Channel& ch) {
  ch.fd.reset();
  ch.assembler = FrameAssembler(assembler_options());
}

Status Client::ensure_connected(Channel& ch) {
  if (ch.fd.valid()) return Status::Ok();
  if (auto hit = COREC_FAILPOINT("rpc.client.connect")) {
    return Status::Unavailable("injected connect failure");
  }
  auto fd = connect_tcp(options_.host, options_.port,
                        options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  ch.fd = std::move(*fd);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status Client::connect_pool() {
  for (auto& ch : channels_) {
    std::lock_guard<std::mutex> lock(ch->mu);
    COREC_RETURN_IF_ERROR(ensure_connected(*ch));
  }
  return Status::Ok();
}

Status Client::call_once(Channel& ch, OpCode op, std::uint64_t request_id,
                         const Bytes& prefix, const PayloadBuffer& payload,
                         Frame* response) {
  COREC_RETURN_IF_ERROR(ensure_connected(ch));
  const int deadline = options_.request_timeout_ms;

  FrameHeader h;
  h.opcode = static_cast<std::uint8_t>(op);
  h.request_id = request_id;
  h.body_len = static_cast<std::uint32_t>(prefix.size() + payload.size());
  Bytes head;
  head.reserve(kFrameHeaderBytes + prefix.size());
  encode_frame_header(h, &head);
  head.insert(head.end(), prefix.begin(), prefix.end());

  // The payload goes out straight from the caller's refcounted view —
  // the kernel socket write is its only copy.
  ByteSpan body = payload.span();
  Bytes flipped;
  if (auto hit = COREC_FAILPOINT("rpc.client.send")) {
    if (hit.action != failpoint::Action::kBitFlip) {
      if (hit.action == failpoint::Action::kPartialWrite) {
        // Ship a truncated head then fail: the server sees a mid-frame
        // client death.
        std::size_t keep = hit.arg == 0 ? head.size() / 2
                                        : static_cast<std::size_t>(hit.arg);
        keep = std::min(keep, head.size());
        (void)send_all(ch.fd.get(), ByteSpan(head.data(), keep), deadline);
      }
      return Status::Unavailable("injected send failure");
    }
    if (!body.empty()) {
      // Wire corruption: ship a copy with one bit flipped after the CRC
      // in the request was taken. The server's ingest check must answer
      // DATA_LOSS and store nothing. A nonzero `arg` pins the flipped
      // payload byte at arg - 1 (clamped to the last byte); 0 draws it
      // at random.
      flipped.assign(body.begin(), body.end());
      const std::size_t at =
          hit.arg == 0 ? hit.rng % flipped.size()
                       : std::min<std::size_t>(hit.arg - 1,
                                               flipped.size() - 1);
      flipped[at] ^= 0x40;
      body = flipped;
    }
  }
  // Head and payload leave in one gathered write: one syscall and, with
  // TCP_NODELAY, no separate segment for the head.
  COREC_RETURN_IF_ERROR(send_all(ch.fd.get(), {head, body}, deadline));

  if (auto hit = COREC_FAILPOINT("rpc.client.recv")) {
    return Status::Unavailable("injected recv failure");
  }
  // Buffered frame receive: the channel's assembler reads large chunks
  // into its pooled buffer and slices the response out, under one
  // absolute deadline for the whole frame. A malformed header poisons
  // the assembler; the caller resets the channel on any failure here.
  const auto recv_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(deadline);
  while (!ch.assembler.frame_ready()) {
    MutableByteSpan span = ch.assembler.next_span();
    if (span.empty()) {
      return Status::Unavailable("receive stream desynchronized");
    }
    COREC_ASSIGN_OR_RETURN(
        const std::size_t n,
        recv_some(ch.fd.get(), span, recv_deadline));
    COREC_RETURN_IF_ERROR(ch.assembler.advance(n));
  }
  *response = ch.assembler.take_frame();
  if (response->header.request_id != request_id) {
    return Status::Unavailable("response id mismatch (channel desync)");
  }
  return Status::Ok();
}

StatusOr<Frame> Client::call(OpCode op, const Bytes& prefix,
                             const PayloadBuffer& payload) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t start =
      next_channel_.fetch_add(1, std::memory_order_relaxed) %
      channels_.size();
  int backoff_ms = options_.retry_backoff_ms;
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, 1000);
    }
    Channel& ch =
        *channels_[(start + static_cast<std::size_t>(attempt)) %
                   channels_.size()];
    std::lock_guard<std::mutex> lock(ch.mu);
    const std::uint64_t id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    Frame response;
    last = call_once(ch, op, id, prefix, payload, &response);
    if (last.ok()) {
      Status app = status_from_wire(response.header.code, "server");
      if (app.ok()) return response;
      if (!retryable(app)) return app;
      last = app;  // transient server-side failure: retry
      continue;
    }
    // Transport fault: this channel's stream state is unknown — drop
    // the socket and receive state so the next attempt reconnects
    // cleanly.
    transport_errors_.fetch_add(1, std::memory_order_relaxed);
    reset_channel(ch);
    if (!retryable(last)) break;
  }
  return last;
}

Status Client::ping() {
  auto r = call(OpCode::kPing, {}, {});
  return r.ok() ? Status::Ok() : r.status();
}

Status Client::put(const ObjectDescriptor& desc, PayloadBuffer payload,
                   StoredKind kind) {
  PutRequest req;
  req.desc = desc;
  req.kind = kind;
  req.checksum = payload.crc32c();
  req.logical_size = payload.size();
  auto r = call(OpCode::kPut, encode_put_prefix(req), payload);
  return r.ok() ? Status::Ok() : r.status();
}

StatusOr<GetResult> Client::get(const ObjectDescriptor& desc) {
  COREC_ASSIGN_OR_RETURN(
      Frame frame, call(OpCode::kGet, encode_get_request(desc), {}));
  COREC_ASSIGN_OR_RETURN(GetResponse resp,
                         decode_get_response(frame.body));
  GetResult result;
  // A result sliced from the channel's pooled read buffer parks that
  // buffer for as long as the caller holds it; compact only when the
  // view is a small fraction of its store — substantial payloads stay
  // zero-copy.
  result.payload = std::move(resp.payload);
  result.payload = result.payload.compacted(
      std::max<std::size_t>(4096, result.payload.size() * 8));
  result.kind = resp.kind;
  result.checksum = resp.checksum;
  return result;
}

StatusOr<std::vector<ObjectDescriptor>> Client::query(
    VarId var, Version version, const geom::BoundingBox& region,
    bool latest) {
  QueryRequest req;
  req.var = var;
  req.version = version;
  req.latest = latest;
  req.region = region;
  COREC_ASSIGN_OR_RETURN(
      Frame frame, call(OpCode::kQuery, encode_query_request(req), {}));
  return decode_query_response(frame.body);
}

StatusOr<bool> Client::erase(const ObjectDescriptor& desc) {
  COREC_ASSIGN_OR_RETURN(
      Frame frame, call(OpCode::kErase, encode_erase_request(desc), {}));
  return decode_erase_response(frame.body);
}

StatusOr<StatResponse> Client::stat() {
  COREC_ASSIGN_OR_RETURN(Frame frame, call(OpCode::kStat, {}, {}));
  return decode_stat_response(frame.body);
}

ClientStatsSnapshot Client::stats() const {
  ClientStatsSnapshot s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace corec::rpc
