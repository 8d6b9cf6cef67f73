#include "flare/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/error.h"
#include "core/logging.h"
#include "core/trace.h"
#include "flare/observability.h"
#include "flare/reactor.h"

#define CPPFLARE_LOG_COMPONENT "TcpTransport"

namespace cppflare::flare {

namespace {

/// Process-wide frame/byte accounting. Looked up once: registry references
/// are stable for its lifetime, so the per-frame cost is two relaxed adds.
struct TcpMetrics {
  core::Counter& bytes_sent;
  core::Counter& bytes_recv;
  core::Counter& frames_sent;
  core::Counter& frames_recv;
  static const TcpMetrics& get() {
    static TcpMetrics m{
        core::MetricRegistry::instance().counter(metric_names::kTcpBytesSent),
        core::MetricRegistry::instance().counter(metric_names::kTcpBytesRecv),
        core::MetricRegistry::instance().counter(metric_names::kTcpFramesSent),
        core::MetricRegistry::instance().counter(metric_names::kTcpFramesRecv)};
    return m;
  }
};

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t written = ::send(fd, data, n, MSG_NOSIGNAL);
    if (written <= 0) {
      if (written < 0 && errno == EINTR) continue;
      throw TransportError("send failed: " + std::string(std::strerror(errno)));
    }
    data += written;
    n -= static_cast<std::size_t>(written);
  }
}

void read_all(int fd, std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::recv(fd, data, n, 0);
    if (got == 0) throw TransportError("peer closed connection");
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO expired: the peer connected and went silent (or is
        // trickling bytes slower than the deadline).
        throw TransportError("socket receive timed out (silent peer)");
      }
      throw TransportError("recv failed: " + std::string(std::strerror(errno)));
    }
    data += got;
    n -= static_cast<std::size_t>(got);
  }
}

}  // namespace

void write_frame(int fd, const std::vector<std::uint8_t>& payload,
                 std::uint32_t max_frame_bytes) {
  if (payload.size() > std::min(max_frame_bytes, kMaxFrameBytes)) {
    throw TransportError("frame too large");
  }
  std::uint8_t header[4];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<std::uint8_t>(len >> (8 * i));
  write_all(fd, header, 4);
  write_all(fd, payload.data(), payload.size());
  TcpMetrics::get().bytes_sent.add(4 + static_cast<std::int64_t>(payload.size()));
  TcpMetrics::get().frames_sent.add(1);
}

std::vector<std::uint8_t> read_frame(int fd, std::uint32_t max_frame_bytes) {
  std::uint8_t header[4];
  read_all(fd, header, 4);
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(header[i]) << (8 * i);
  if (len > std::min(max_frame_bytes, kMaxFrameBytes)) {
    throw TransportError("oversized frame announced (" + std::to_string(len) +
                         " bytes, cap " +
                         std::to_string(std::min(max_frame_bytes, kMaxFrameBytes)) +
                         ")");
  }
  std::vector<std::uint8_t> payload(len);
  read_all(fd, payload.data(), len);
  TcpMetrics::get().bytes_recv.add(4 + static_cast<std::int64_t>(len));
  TcpMetrics::get().frames_recv.add(1);
  return payload;
}

namespace {

/// Creates the bound, listening socket TcpServer hands to its reactor.
/// Errors close the fd before throwing, so ownership never leaks.
int make_listener(std::uint16_t port, std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw TransportError("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw TransportError("bind failed: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    throw TransportError("getsockname failed");
  }
  *bound_port = ntohs(addr.sin_port);
  if (::listen(fd, 256) != 0) {
    ::close(fd);
    throw TransportError("listen failed");
  }
  return fd;
}

}  // namespace

TcpServer::TcpServer(std::uint16_t port, Dispatcher dispatcher,
                     TcpServerOptions options)
    : TcpServer(port, make_async(std::move(dispatcher)), options) {}

TcpServer::TcpServer(std::uint16_t port, AsyncDispatcher dispatcher,
                     TcpServerOptions options) {
  options.max_frame_bytes = std::min(options.max_frame_bytes, kMaxFrameBytes);
  const int listen_fd = make_listener(port, &port_);
  // The reactor takes ownership of the listener; from here on every fd —
  // including this one — is created and closed by the reactor thread only
  // (see the ownership model in reactor.h).
  reactor_ = std::make_unique<EpollReactor>(listen_fd, std::move(dispatcher),
                                            options);
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() {
  // Idempotent and safe to race: EpollReactor::stop serializes concurrent
  // callers (including the destructor racing an explicit stop()).
  if (reactor_) reactor_->stop();
}

std::int64_t TcpServer::peak_connections() const {
  return reactor_ ? reactor_->peak_connections() : 0;
}

TcpConnection::TcpConnection(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw TransportError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw TransportError("bad host address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw TransportError("connect to " + host + ":" + std::to_string(port) +
                         " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpConnection::send(const std::vector<std::uint8_t>& request, Done done) {
  std::vector<std::uint8_t> reply;
  std::exception_ptr error;
  try {
    CF_TRACE_SPAN("tcp.call");
    write_frame(fd_, request);
    reply = read_frame(fd_);
  } catch (...) {
    error = std::current_exception();
  }
  done(std::move(reply), std::move(error));
}

}  // namespace cppflare::flare
