// corec_client — the library applications link to talk to a
// corec-server. Every call blocks on the caller's thread over a pooled
// channel (one outstanding request per channel, round-robin
// assignment), so any number of threads may share one Client.
//
// Fault envelope: every call has a request timeout (poll()-bounded
// socket ops), and transport-level failures — connect refusal, peer
// reset, timeout, short frame — are retried with exponential backoff
// up to max_retries, reconnecting the channel each time. Application
// errors carried in a response frame (NotFound, InvalidArgument...)
// are returned as-is, never retried; server-side Unavailable is
// treated as transient and retried like a transport fault.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/frame.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

namespace corec::rpc {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Pooled connections; concurrent callers spread across them.
  std::size_t pool_size = 2;
  int connect_timeout_ms = 2000;
  int request_timeout_ms = 5000;
  /// Transport-failure retries after the first attempt.
  int max_retries = 3;
  /// First backoff; doubles per retry.
  int retry_backoff_ms = 5;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Transport health counters (relaxed).
struct ClientStatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t transport_errors = 0;
};

/// Result of a get: the payload is a refcounted view of the bytes the
/// socket read — no user-space copy for payloads of consequence. A
/// tiny result sliced from the channel's large read buffer is
/// compacted (one small copy) so holding it cannot park the buffer.
struct GetResult {
  PayloadBuffer payload;
  staging::StoredKind kind = staging::StoredKind::kPrimary;
  std::uint32_t checksum = 0;
};

class Client {
 public:
  explicit Client(ClientOptions options);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  Status ping();

  /// Eagerly connects every pooled channel (normally channels connect
  /// on first use). C10k-style load generators call this so the full
  /// connection count is open — and registered server-side — before
  /// the measured window starts.
  Status connect_pool();

  /// Stores `payload` under `desc`. The payload's CRC32C travels with
  /// the request and is recorded server-side for end-to-end integrity.
  Status put(const staging::ObjectDescriptor& desc, PayloadBuffer payload,
             staging::StoredKind kind = staging::StoredKind::kPrimary);

  StatusOr<GetResult> get(const staging::ObjectDescriptor& desc);

  StatusOr<std::vector<staging::ObjectDescriptor>> query(
      VarId var, Version version, const geom::BoundingBox& region,
      bool latest = true);

  /// Returns whether the object existed.
  StatusOr<bool> erase(const staging::ObjectDescriptor& desc);

  StatusOr<StatResponse> stat();

  ClientStatsSnapshot stats() const;

 private:
  struct Channel {
    explicit Channel(const FrameAssemblerOptions& fa) : assembler(fa) {}
    std::mutex mu;  // one outstanding request per channel
    OwnedFd fd;
    // Persistent per-channel receive state: responses assemble out of
    // a pooled read buffer (buffered multi-frame protocol). Reset
    // together with fd on any transport fault — a partially consumed
    // stream cannot be resynchronized.
    FrameAssembler assembler;
  };

  /// Full request/response exchange with retry envelope. `prefix` is
  /// the encoded body minus the trailing payload (which is written as
  /// its own segment, zero-copy).
  StatusOr<Frame> call(OpCode op, const Bytes& prefix,
                       const PayloadBuffer& payload);
  Status call_once(Channel& ch, OpCode op, std::uint64_t request_id,
                   const Bytes& prefix, const PayloadBuffer& payload,
                   Frame* response);
  Status ensure_connected(Channel& ch);
  FrameAssemblerOptions assembler_options() const;
  /// Drops the socket and receive state together after a transport
  /// fault; the next attempt reconnects with a clean stream.
  void reset_channel(Channel& ch);

  ClientOptions options_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::atomic<std::uint64_t> next_channel_{0};
  std::atomic<std::uint64_t> next_request_id_{1};
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> retries_{0};
  mutable std::atomic<std::uint64_t> reconnects_{0};
  mutable std::atomic<std::uint64_t> transport_errors_{0};
};

}  // namespace corec::rpc
