// Client->server request/response transports.
//
// The protocol layer only needs one primitive: a blocking `call` that
// delivers sealed request bytes and returns sealed response bytes. Two
// implementations exist:
//  * InProcConnection — a call into the server's AsyncDispatcher, used by
//    the simulator (NVFlare SimulatorRunner equivalent) and tests;
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
#include <functional>
#include <future>
#include <memory>
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


class Connection {
 public:
  virtual ~Connection() = default;
  virtual std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& request) = 0;
};

/// In-process connection over an AsyncDispatcher: `call` blocks the calling
/// thread until the server completes the request, so a parked long-poll
/// costs a blocked caller thread (exactly like a socket client) instead of a
/// retry loop. The completion may run on another thread (whichever server
/// thread drains the park); the promise/future pair carries it back here.
class InProcConnection : public Connection {
 public:
  explicit InProcConnection(AsyncDispatcher dispatcher)
      : dispatcher_(std::move(dispatcher)) {}

  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& request) override {
    auto reply = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
    std::future<std::vector<std::uint8_t>> got = reply->get_future();
    dispatcher_(request, [reply](std::vector<std::uint8_t> response) {
      reply->set_value(std::move(response));
    });
    try {
      return got.get();
    } catch (const std::future_error&) {
      // The server dropped the completion without answering (teardown with
      // the request still parked) — to the caller that is a dead channel.
      throw TransportError("in-process channel closed with request pending");
    }
  }

 private:
  AsyncDispatcher dispatcher_;
};

}  // namespace cppflare::flare
