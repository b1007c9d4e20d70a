#include "rpc/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace corec::rpc {

namespace {

using Clock = std::chrono::steady_clock;

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Milliseconds left until `deadline`, clamped to [0, int-max].
int ms_until(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  if (left.count() > 1'000'000'000) return 1'000'000'000;
  return static_cast<int>(left.count());
}

Status poll_for(int fd, short events, Clock::time_point deadline,
                const char* what) {
  for (;;) {
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int timeout = ms_until(deadline);
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc > 0) return Status::Ok();
    if (rc == 0) {
      return Status::Unavailable(std::string(what) + ": timed out");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(errno_string(what));
  }
}

StatusOr<sockaddr_in> resolve_v4(const std::string& host,
                                 std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* name = host.empty() ? "0.0.0.0" : host.c_str();
  if (::inet_pton(AF_INET, name, &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 address: " + host);
  }
  return addr;
}

}  // namespace

void OwnedFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(errno_string("fcntl(O_NONBLOCK)"));
  }
  return Status::Ok();
}

Status set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Status::Internal(errno_string("setsockopt(TCP_NODELAY)"));
  }
  return Status::Ok();
}

StatusOr<OwnedFd> listen_tcp(const std::string& host, std::uint16_t port) {
  COREC_ASSIGN_OR_RETURN(sockaddr_in addr, resolve_v4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Unavailable(errno_string("socket"));
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return Status::Unavailable(errno_string("bind"));
  }
  if (::listen(fd.get(), 128) < 0) {
    return Status::Unavailable(errno_string("listen"));
  }
  COREC_RETURN_IF_ERROR(set_nonblocking(fd.get()));
  return fd;
}

StatusOr<std::uint16_t> local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Status::Internal(errno_string("getsockname"));
  }
  return static_cast<std::uint16_t>(ntohs(addr.sin_port));
}

StatusOr<OwnedFd> connect_tcp(const std::string& host, std::uint16_t port,
                              int timeout_ms) {
  COREC_ASSIGN_OR_RETURN(sockaddr_in addr, resolve_v4(host, port));
  OwnedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Status::Unavailable(errno_string("socket"));
  }
  COREC_RETURN_IF_ERROR(set_nonblocking(fd.get()));
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable(errno_string("connect"));
    }
    COREC_RETURN_IF_ERROR(poll_for(fd.get(), POLLOUT, deadline, "connect"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      errno = err != 0 ? err : errno;
      return Status::Unavailable(errno_string("connect"));
    }
  }
  COREC_RETURN_IF_ERROR(set_nodelay(fd.get()));
  return fd;
}

Status send_all(int fd, std::initializer_list<ByteSpan> parts,
                int deadline_ms) {
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  // Gathers at most this many parts per sendmsg; longer lists go out
  // in several calls.
  constexpr std::size_t kIovBatch = 8;
  const ByteSpan* part = parts.begin();
  std::size_t offset = 0;  // bytes of *part already sent
  for (;;) {
    while (part != parts.end() && offset == part->size()) {
      ++part;
      offset = 0;
    }
    if (part == parts.end()) return Status::Ok();
    iovec iov[kIovBatch];
    std::size_t n_iov = 0;
    for (const ByteSpan* p = part; p != parts.end() && n_iov < kIovBatch;
         ++p) {
      const std::size_t skip = p == part ? offset : 0;
      if (p->size() == skip) continue;
      iov[n_iov].iov_base = const_cast<std::uint8_t*>(p->data() + skip);
      iov[n_iov].iov_len = p->size() - skip;
      ++n_iov;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Walk the sent bytes forward over the parts; a short write
      // leaves `offset` inside the part the next call resumes from.
      auto left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t room = part->size() - offset;
        if (left < room) {
          offset += left;
          break;
        }
        left -= room;
        ++part;
        offset = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      COREC_RETURN_IF_ERROR(poll_for(fd, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(errno_string("send"));
  }
}

StatusOr<std::size_t> recv_some(int fd, MutableByteSpan out,
                                Clock::time_point deadline) {
  for (;;) {
    const ssize_t n = ::recv(fd, out.data(), out.size(), 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {
      return Status::Unavailable("recv: connection closed by peer");
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      COREC_RETURN_IF_ERROR(poll_for(fd, POLLIN, deadline, "recv"));
      continue;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(errno_string("recv"));
  }
}

}  // namespace corec::rpc
