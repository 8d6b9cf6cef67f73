// Client->server request/response transports.
//
// The protocol layer only needs one primitive: `Connection::send`, which
// delivers sealed request bytes and completes through a continuation with
// the sealed response or an error (`call` is a blocking helper over it).
// Two implementations exist, and FaultyConnection (faults.h) decorates
// either:
//  * InProcConnection — hands the frame to the server's AsyncDispatcher,
//    used by the simulator (NVFlare SimulatorRunner equivalent) and tests;
//  * TcpConnection/TcpServer (tcp.h) — real sockets for multi-process runs.
//
// The server side is asynchronous: an `AsyncDispatcher` takes the request
// together with a `RespondFn` completion, and the server may answer
// immediately or hold the completion (a parked long-poll) and invoke it
// much later from a different thread. The epoll reactor (reactor.h) and the
// long-poll protocol are built on this. The synchronous `Dispatcher` shape
// remains for servers that always answer inline (echo servers, benchmark
// stubs); `make_async` adapts it.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"

namespace cppflare::flare {

/// Server-side entry point: sealed request bytes -> sealed response bytes.
/// Must be thread-safe; multiple client connections call concurrently.
using Dispatcher =
    std::function<std::vector<std::uint8_t>(const std::vector<std::uint8_t>&)>;

/// Completion for one async request. Invoke exactly once with the sealed
/// response bytes; safe to call from any thread, including long after the
/// dispatching call returned (that is what a parked long-poll does). The
/// transport behind it drops the response if the originating connection has
/// died in the meantime.
using RespondFn = std::function<void(std::vector<std::uint8_t>)>;

/// Asynchronous server-side entry point: sealed request bytes plus the
/// completion to deliver the sealed response through. Must be thread-safe.
/// The implementation may call `respond` synchronously before returning
/// (the common case) or retain it and complete later (long-poll parking).
using AsyncDispatcher = std::function<void(const std::vector<std::uint8_t>&,
                                           RespondFn)>;

/// Adapts a synchronous Dispatcher to the async shape: every request is
/// answered inline on the calling thread. Such a dispatcher can never park,
/// so long-poll requests through it degrade to immediate answers.
inline AsyncDispatcher make_async(Dispatcher dispatcher) {
  return [dispatcher = std::move(dispatcher)](
             const std::vector<std::uint8_t>& request, RespondFn respond) {
    respond(dispatcher(request));
  };
}

/// The error a `Connection::Done` gets for a failed exchange. The temporary
/// exception dies inside this call: its copies share a reference-counted
/// message whose count ThreadSanitizer cannot see, and `done` may hand the
/// error to another thread at once.
inline std::exception_ptr transport_failure(const std::string& what) {
  return std::make_exception_ptr(TransportError(what));
}

/// A client's channel to the server. The one transport method is `send`:
/// deliver sealed request bytes and report the outcome through `done`,
/// exactly once, with either the sealed reply (`error` null) or the failure
/// that replaced it. `done` may run inline, before `send` returns (a socket
/// read, an immediate server answer), or later on another thread (a parked
/// long-poll). One exchange at a time per connection.
class Connection {
 public:
  using Done = std::function<void(std::vector<std::uint8_t> reply,
                                  std::exception_ptr error)>;

  virtual ~Connection() = default;
  virtual void send(const std::vector<std::uint8_t>& request, Done done) = 0;

  /// Blocking helper over `send`: waits for the reply and rethrows the
  /// failure with its type.
  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& request) {
    auto reply = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
    std::future<std::vector<std::uint8_t>> got = reply->get_future();
    send(request, [reply](std::vector<std::uint8_t> bytes, std::exception_ptr error) {
      if (error) {
        reply->set_exception(std::move(error));
      } else {
        reply->set_value(std::move(bytes));
      }
    });
    return got.get();
  }
};

/// In-process connection over an AsyncDispatcher: `send` hands the frame to
/// the server and returns, so a parked long-poll holds no thread. The reply
/// arrives on whichever server thread completes it. A completion the server
/// drops unanswered (teardown with the request still parked) reaches `done`
/// as a TransportError: to the caller that is a dead channel.
class InProcConnection : public Connection {
 public:
  explicit InProcConnection(AsyncDispatcher dispatcher)
      : dispatcher_(std::move(dispatcher)) {}

  void send(const std::vector<std::uint8_t>& request, Done done) override {
    auto pending = std::make_shared<Pending>(std::move(done));
    dispatcher_(request, [pending](std::vector<std::uint8_t> response) {
      pending->answered = true;
      pending->done(std::move(response), nullptr);
    });
  }

 private:
  /// Shared by every copy of the server's completion; the last copy to go
  /// reports a drop.
  struct Pending {
    explicit Pending(Done d) : done(std::move(d)) {}
    ~Pending() {
      if (!answered) {
        done({}, transport_failure("in-process channel closed with request pending"));
      }
    }
    Done done;
    bool answered = false;
  };

  AsyncDispatcher dispatcher_;
};

}  // namespace cppflare::flare
