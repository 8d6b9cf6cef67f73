// TCP transport: length-prefixed frames over POSIX sockets.
//
// This is the "two Linux machines" path of the paper's Table I setup — the
// same sealed protocol bytes as the in-process simulator, but carried over
// real sockets so server and sites can run in separate processes or hosts.
// Framing: u32 little-endian payload length, then the payload. A frame is
// one sealed envelope; the server responds with exactly one frame per
// request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "flare/transport.h"

namespace cppflare::flare {

class EpollReactor;

/// Maximum accepted frame size (64 MiB) — a sanity bound against corrupt
/// length prefixes.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Server-side hardening knobs against misbehaving or hostile clients.
struct TcpServerOptions {
  /// Idle-connection deadline: a client that connects and then goes silent
  /// with no request in flight (half a header, or nothing at all) is closed
  /// by the reactor's sweep after this long (0 = never). A parked long-poll
  /// counts as in flight and is never swept. Generous by default — a slow
  /// site mid-training must not be cut off.
  std::int64_t io_timeout_ms = 300000;
  /// Per-connection cap on the announced frame length; frames above it are
  /// refused before a single payload byte is read. Never above the global
  /// kMaxFrameBytes sanity bound.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Request-handling worker threads for the reactor's bounded pool
  /// (0 = min(8, hardware/2, at least 2)).
  std::size_t worker_threads = 0;
};

/// Serves a Dispatcher (or AsyncDispatcher) on a TCP port. Since the
/// scalable-coordinator PR every connection is multiplexed over one epoll
/// reactor thread plus a bounded worker pool (reactor.h) instead of a
/// handler thread per connection: N idle sites cost N parked fds, not N
/// threads. Connections are persistent (many request/response exchanges).
/// Destruction stops the listener, closes every connection, and joins the
/// reactor thread and worker pool.
class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port; see port()).
  /// The synchronous-Dispatcher overload answers every request inline on a
  /// worker; the AsyncDispatcher overload additionally lets the server park
  /// requests (long-poll) and complete them later from any thread.
  TcpServer(std::uint16_t port, Dispatcher dispatcher,
            TcpServerOptions options = {});
  TcpServer(std::uint16_t port, AsyncDispatcher dispatcher,
            TcpServerOptions options = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  std::uint16_t port() const { return port_; }
  void stop();

  /// High-water mark of concurrently open accepted connections (bench
  /// telemetry; also exported as the tcp.peak_connections gauge).
  std::int64_t peak_connections() const;

 private:
  std::uint16_t port_ = 0;
  std::unique_ptr<EpollReactor> reactor_;
};

/// Client connection to a TcpServer. `send` writes the frame, blocks until
/// the reply frame is read and completes `done` inline: a TCP exchange holds
/// its thread for the round trip. Not thread-safe; one exchange at a time.
class TcpConnection : public Connection {
 public:
  TcpConnection(const std::string& host, std::uint16_t port);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void send(const std::vector<std::uint8_t>& request, Done done) override;

 private:
  int fd_ = -1;
};

/// Frame helpers shared by both ends (exposed for tests). `max_frame_bytes`
/// bounds what read_frame will accept (and write_frame will announce); a
/// recv/send that trips an SO_RCVTIMEO/SO_SNDTIMEO deadline surfaces as a
/// TransportError naming the timeout.
void write_frame(int fd, const std::vector<std::uint8_t>& payload,
                 std::uint32_t max_frame_bytes = kMaxFrameBytes);
std::vector<std::uint8_t> read_frame(int fd,
                                     std::uint32_t max_frame_bytes = kMaxFrameBytes);

}  // namespace cppflare::flare
