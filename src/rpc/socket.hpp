// Thin POSIX TCP helpers shared by the RPC server and client: RAII fd
// ownership, non-blocking listen/connect, and deadline-bounded blocking
// send/recv built on poll(). Everything returns Status instead of errno
// so the callers stay in the repo's error vocabulary.
#pragma once

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>

#include "common/buffer.hpp"
#include "common/status.hpp"

namespace corec::rpc {

/// RAII owner of a file descriptor.
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }

  OwnedFd(OwnedFd&& other) noexcept : fd_(other.release()) {}
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Marks `fd` non-blocking (O_NONBLOCK).
Status set_nonblocking(int fd);

/// Disables Nagle batching; RPC frames are latency-sensitive.
Status set_nodelay(int fd);

/// Binds and listens on host:port (port 0 = kernel-assigned). The
/// returned socket is non-blocking with SO_REUSEADDR set.
StatusOr<OwnedFd> listen_tcp(const std::string& host, std::uint16_t port);

/// The locally bound port of a listening socket (resolves port 0).
StatusOr<std::uint16_t> local_port(int fd);

/// Connects to host:port with a deadline; returns a blocking socket
/// with TCP_NODELAY set. Unavailable on refusal/timeout.
StatusOr<OwnedFd> connect_tcp(const std::string& host, std::uint16_t port,
                              int timeout_ms);

/// Sends every part back to back as one gathered write (sendmsg over
/// an iovec array), polling for writability until `deadline_ms` from
/// now elapses; a short write resumes mid-part. Unavailable on peer
/// reset or timeout. Empty parts are skipped.
Status send_all(int fd, std::initializer_list<ByteSpan> parts,
                int deadline_ms);

/// Single-buffer form of the above.
inline Status send_all(int fd, ByteSpan data, int deadline_ms) {
  return send_all(fd, std::initializer_list<ByteSpan>{data}, deadline_ms);
}

/// One read of up to `out.size()` bytes, polling for readability until
/// the absolute `deadline`. Returns the (positive) byte count;
/// Unavailable on EOF, reset, or timeout. Buffered frame receives call
/// this in a loop so one shared deadline covers the whole frame.
StatusOr<std::size_t> recv_some(
    int fd, MutableByteSpan out,
    std::chrono::steady_clock::time_point deadline);

}  // namespace corec::rpc
