// iatf::net::NetServer -- the poll-based reactor that serves iatf-wire 1
// over TCP and Unix-domain sockets, bridging socket frames into an
// iatf::serve::Server.
//
// Threading model: ONE reactor thread owns every socket and every piece
// of per-connection state (decoder, write buffer, pending table), so
// connection handling needs no locks at all. The only cross-thread
// structure is the completion queue: serve-side completion callbacks
// (dispatcher threads) push {connection, request, status} records and
// write one byte to a wake pipe; the reactor drains the queue, looks the
// connection up (it may have died -- records for dead connections are
// dropped), serialises the Result frame and queues it for write. The
// queue is held by shared_ptr from every callback, so completions that
// fire after the NetServer is destroyed land in a parked queue instead
// of freed memory.
//
// Robustness contract (DESIGN.md section 16):
//  * Every malformed byte sequence is answered with a stable Error frame
//    (fatal framing errors flush the frame and close; payload-level
//    errors keep the connection).
//  * Bounded everything: read buffering is bounded by the decoder's
//    max_payload, write buffering by max_write_buffer (a client that
//    stops reading is disconnected), per-connection outstanding submits
//    by max_outstanding (excess answered Backpressure), connections by
//    max_connections with OverloadPolicy semantics at accept (Block
//    parks the listener; ShedNewest answers Busy and closes).
//  * Deadline propagation: a submit's deadline budget starts at the
//    frame's first buffered byte, so socket and decode time count
//    against it exactly like queue time does inside the Server.
//  * A dead client's queued requests are cancelled (their tokens flag,
//    the dispatcher sheds them at dequeue); requests from other
//    connections are never disturbed.
//  * drain() closes the listeners, answers new submits ShuttingDown,
//    lets every outstanding request resolve and flush, then drains the
//    underlying Server. stop() tears everything down immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "iatf/net/wire.hpp"
#include "iatf/resilience/resilience.hpp"
#include "iatf/serve/server.hpp"

namespace iatf::net {

struct NetConfig {
  /// Listen on this Unix-domain socket path when non-empty (the path is
  /// unlinked first; stale sockets from a crashed daemon never block a
  /// restart).
  std::string unix_path;
  /// Listen on tcp_host:tcp_port when true; port 0 binds an ephemeral
  /// port reported by NetServer::tcp_port().
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;

  /// Connection cap and what to do at it: Block parks the listeners
  /// (the kernel backlog holds arrivals until a slot frees);
  /// ShedNewest accepts, answers one Error(Busy) frame and closes.
  /// DegradeToRef is meaningless at accept and treated as ShedNewest.
  std::size_t max_connections = 64;
  resilience::OverloadPolicy accept_overload =
      resilience::OverloadPolicy::ShedNewest;

  /// Decoder payload bound (wire Oversized above it).
  std::size_t max_payload = kDefaultMaxPayload;
  /// Outstanding submits one connection may hold (Backpressure above).
  std::size_t max_outstanding = 64;
  /// Queued unsent bytes before a non-reading client is disconnected.
  std::size_t max_write_buffer = 64u << 20;
  /// A connection with queued bytes and no write progress for this long
  /// is a slow client: disconnected, pending requests cancelled.
  std::chrono::milliseconds write_timeout{10000};
};

struct NetStats {
  std::uint64_t accepted = 0;      ///< connections accepted
  std::uint64_t shed_busy = 0;     ///< connections refused at the cap
  std::uint64_t closed = 0;        ///< connections closed (any reason)
  std::uint64_t slow_closes = 0;   ///< closed for write timeout/overflow
  std::uint64_t frames_in = 0;     ///< well-formed frames decoded
  std::uint64_t frames_out = 0;    ///< frames serialised
  std::uint64_t wire_errors = 0;   ///< Error frames sent (all causes)
  std::uint64_t fatal_errors = 0;  ///< ... of which closed the connection
  std::uint64_t submits = 0;       ///< SubmitGemm frames accepted
  std::uint64_t results = 0;       ///< Result frames sent
  std::uint64_t cancels = 0;       ///< Cancel frames honoured
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t connections = 0;   ///< currently open
};

class NetServer {
public:
  /// Binds to `server` (non-owning; must outlive the NetServer).
  NetServer(serve::Server& server, NetConfig config);
  ~NetServer(); ///< stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen on the configured endpoints and start the reactor
  /// thread. Throws iatf::Error (Status::Internal) on any socket
  /// failure, with errno text.
  void start();

  /// Graceful shutdown: stop accepting, refuse new submits with
  /// ShuttingDown, resolve and flush every outstanding request, close
  /// all connections, join the reactor, then drain() the underlying
  /// Server. Idempotent; safe to call instead of stop().
  void drain();

  /// Immediate shutdown: cancel outstanding requests, close all
  /// sockets, join the reactor. Idempotent.
  void stop();

  /// Actual TCP port after start() (useful with tcp_port = 0).
  std::uint16_t tcp_port() const noexcept;

  NetStats stats() const;

private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

} // namespace iatf::net
