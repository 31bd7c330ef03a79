// Poll reactor implementation. See include/iatf/net/reactor.hpp for the
// threading model and robustness contract; everything POSIX lives here.
//
// Connection teardown discipline: helpers that can condemn a connection
// (write-buffer overflow, fatal wire errors) only set flags on it --
// `doomed` for close-now, `close_after_flush` for close-after-write --
// and never erase it, so no code path frees a Conn while a caller up
// the stack still holds a reference or an iteration is in progress.
// Actual destruction happens at the few safe points: the per-event
// handlers (which look the connection up by id afterwards) and the
// sweep at the top of every reactor round.
#include "iatf/net/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "iatf/common/error.hpp"
#include "iatf/layout/compact.hpp"

namespace iatf::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("iatf-net: " + what + ": " + std::strerror(errno),
              Status::Internal);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_cloexec(int fd) { (void)::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Best-effort non-blocking send used for refusals on connections we
/// are about to close anyway (Busy shed); the normal path buffers.
void send_best_effort(int fd, const std::vector<std::uint8_t>& bytes) {
  (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
}

/// One resolved submission travelling from a dispatcher-thread
/// completion callback back to the reactor.
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t request_id = 0;
  int status = 0;
  std::shared_ptr<void> state; ///< keeps the request's buffers alive
};

/// Cross-thread completion mailbox. Owns both ends of its wake pipe so
/// callbacks that outlive the NetServer write into a parked queue, not
/// freed memory or a recycled fd.
struct CompletionQueue {
  std::mutex mu;
  std::deque<Completion> q;
  int wake_rd = -1;
  int wake_wr = -1;

  CompletionQueue() {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw_errno("pipe");
    }
    wake_rd = fds[0];
    wake_wr = fds[1];
    set_nonblocking(wake_rd);
    set_nonblocking(wake_wr);
    set_cloexec(wake_rd);
    set_cloexec(wake_wr);
  }
  ~CompletionQueue() {
    ::close(wake_rd);
    ::close(wake_wr);
  }

  void push(Completion c) {
    {
      std::lock_guard<std::mutex> lk(mu);
      q.push_back(std::move(c));
    }
    wake();
  }

  void wake() {
    const char byte = 1;
    // EAGAIN just means the pipe already holds wake bytes.
    (void)::write(wake_wr, &byte, 1);
  }

  std::deque<Completion> take() {
    char sink[256];
    while (::read(wake_rd, sink, sizeof sink) > 0) {
    }
    std::lock_guard<std::mutex> lk(mu);
    std::deque<Completion> out;
    out.swap(q);
    return out;
  }
};

/// Owned request-side buffers for one in-flight submit; the completion
/// callback keeps a shared_ptr, so they outlive the connection.
struct PendingState {
  virtual ~PendingState() = default;
  /// Serialise the (possibly updated) C batch as contiguous
  /// column-major bytes for the Result frame.
  virtual void export_c(std::vector<std::uint8_t>& out) const = 0;
};

template <class T>
struct GemmState final : PendingState {
  CompactBuffer<T> a, b, c;

  void export_c(std::vector<std::uint8_t>& out) const override {
    const index_t m = c.rows(), n = c.cols(), batch = c.batch();
    out.resize(static_cast<std::size_t>(m) * n * batch * sizeof(T));
    T* dst = reinterpret_cast<T*>(out.data());
    for (index_t bi = 0; bi < batch; ++bi) {
      c.export_colmajor(bi, dst + bi * m * n, m);
    }
  }
};

enum class ConnState {
  AwaitHello, ///< nothing but Hello (and Ping) accepted yet
  Open,       ///< handshake done
  Closing,    ///< Goodbye received: close once pending + writes flush
};

struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  ConnState state = ConnState::AwaitHello;
  Decoder decoder;
  /// Outgoing bytes [wpos, wbuf.size()).
  std::vector<std::uint8_t> wbuf;
  std::size_t wpos = 0;
  /// Outstanding submits: request_id -> cancel token.
  std::unordered_map<std::uint64_t, serve::CancelToken> pending;
  std::chrono::steady_clock::time_point frame_t0{};
  std::chrono::steady_clock::time_point last_write_progress{};
  bool close_after_flush = false; ///< close once wbuf drains
  bool doomed = false;            ///< close at the next safe point
  bool read_closed = false;       ///< peer EOF seen; stop polling reads

  explicit Conn(std::size_t max_payload) : decoder(max_payload) {}
  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  std::size_t queued_bytes() const noexcept { return wbuf.size() - wpos; }
};

} // namespace

struct NetServer::Impl {
  serve::Server& server;
  NetConfig cfg;

  int unix_fd = -1;
  int tcp_fd = -1;
  std::atomic<std::uint16_t> bound_tcp_port{0};

  std::shared_ptr<CompletionQueue> completions;
  std::thread reactor;
  std::mutex lifecycle_mu; ///< serialises start/drain/stop
  enum class Phase { Idle, Running, Draining, Stopping, Stopped };
  std::atomic<Phase> phase{Phase::Idle};

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;

  // Stats are atomics: bumped on the reactor thread, read from any.
  std::atomic<std::uint64_t> accepted{0}, shed_busy{0}, closed{0},
      slow_closes{0}, frames_in{0}, frames_out{0}, wire_errors{0},
      fatal_errors{0}, submits{0}, results{0}, cancels{0}, bytes_in{0},
      bytes_out{0}, open_conns{0};

  Impl(serve::Server& s, NetConfig c)
      : server(s), cfg(std::move(c)),
        completions(std::make_shared<CompletionQueue>()) {}

  // --- Frame emission --------------------------------------------------

  void queue_frame(Conn& conn, FrameType type, std::uint64_t request_id,
                   std::span<const std::uint8_t> payload) {
    if (conn.queued_bytes() == 0) {
      // The write-stall clock starts when the buffer goes non-empty,
      // not at the last outbound traffic: an idle client whose next
      // reply is queued after >write_timeout of silence must not be
      // swept before a write is even attempted.
      conn.last_write_progress = std::chrono::steady_clock::now();
    }
    append_frame(conn.wbuf, type, request_id, payload);
    ++frames_out;
    if (conn.queued_bytes() > cfg.max_write_buffer) {
      // The client is not reading; buffering further is unbounded
      // memory on its behalf.
      ++slow_closes;
      conn.doomed = true;
    }
  }

  void queue_error(Conn& conn, WireError code, std::uint64_t request_id,
                   int status, std::string_view message, bool fatal) {
    std::vector<std::uint8_t> payload;
    append_error(payload, code, status, message);
    queue_frame(conn, FrameType::Error, request_id, payload);
    ++wire_errors;
    if (fatal) {
      ++fatal_errors;
      conn.close_after_flush = true;
    }
  }

  // --- Connection teardown ---------------------------------------------

  /// Close + forget a connection NOW. Callers must not hold a Conn
  /// reference across this call or be iterating `conns`. Pending
  /// requests are cancelled (their tokens flag; the dispatcher sheds
  /// them at dequeue) -- other connections' requests are untouched,
  /// which is the isolation the disconnect tests assert.
  void destroy_conn(std::uint64_t id) {
    const auto it = conns.find(id);
    if (it == conns.end()) {
      return;
    }
    for (auto& [rid, token] : it->second->pending) {
      serve::cancel(token);
    }
    conns.erase(it);
    --open_conns;
    ++closed;
  }

  /// Destroy every connection that is doomed or fully flushed with a
  /// deferred close. Runs at the top of each reactor round, outside any
  /// iteration or Conn reference.
  void sweep_condemned() {
    std::vector<std::uint64_t> dead;
    for (const auto& [id, conn] : conns) {
      if (conn->doomed ||
          (conn->close_after_flush && conn->queued_bytes() == 0)) {
        dead.push_back(id);
      }
    }
    for (const auto id : dead) {
      destroy_conn(id);
    }
  }

  // --- Submit path -----------------------------------------------------

  template <class T>
  void submit_typed(Conn& conn, std::uint64_t request_id,
                    const GemmSubmit& msg,
                    std::chrono::nanoseconds deadline) {
    auto state = std::make_shared<GemmState<T>>();
    const auto rows_a = msg.op_a == 0 ? msg.m : msg.k;
    const auto cols_a = msg.op_a == 0 ? msg.k : msg.m;
    const auto rows_b = msg.op_b == 0 ? msg.k : msg.n;
    const auto cols_b = msg.op_b == 0 ? msg.n : msg.k;
    state->a = CompactBuffer<T>(rows_a, cols_a, msg.batch);
    state->b = CompactBuffer<T>(rows_b, cols_b, msg.batch);
    state->c = CompactBuffer<T>(msg.m, msg.n, msg.batch);
    // The payload spans sit at an arbitrary offset inside the frame
    // (4 mod 8 for the first matrix), so casting them to T* and
    // dereferencing is a misaligned load; stage one batch entry at a
    // time through an aligned buffer instead.
    const std::size_t max_elems = std::max(
        {std::size_t(rows_a) * cols_a, std::size_t(rows_b) * cols_b,
         std::size_t(msg.m) * msg.n});
    std::vector<T> stage(max_elems);
    const auto load = [&stage](std::span<const std::uint8_t> bytes,
                               std::size_t elem_off,
                               std::size_t elems) -> const T* {
      std::memcpy(stage.data(), bytes.data() + elem_off * sizeof(T),
                  elems * sizeof(T));
      return stage.data();
    };
    for (std::uint32_t bi = 0; bi < msg.batch; ++bi) {
      const std::size_t na = std::size_t(rows_a) * cols_a;
      const std::size_t nb = std::size_t(rows_b) * cols_b;
      const std::size_t nc = std::size_t(msg.m) * msg.n;
      state->a.import_colmajor(bi, load(msg.a, bi * na, na), rows_a);
      state->b.import_colmajor(bi, load(msg.b, bi * nb, nb), rows_b);
      state->c.import_colmajor(bi, load(msg.c, bi * nc, nc), msg.m);
    }

    serve::SubmitOptions opts;
    opts.tenant = msg.tenant;
    opts.deadline = deadline;
    opts.cancel = serve::make_cancel_token();
    conn.pending.emplace(request_id, opts.cancel);
    ++submits;

    auto queue = completions;
    const std::uint64_t conn_id = conn.id;
    // The callback runs on a dispatcher thread (or inline on this
    // thread for submit-time refusals): it only touches the queue.
    (void)server.submit_gemm<T>(
        static_cast<Op>(msg.op_a), static_cast<Op>(msg.op_b), T(msg.alpha),
        state->a, state->b, T(msg.beta), state->c, opts,
        [queue, conn_id, request_id, state](Status st, const BatchHealth&) {
          queue->push(Completion{conn_id, request_id,
                                 static_cast<int>(st), state});
        });
  }

  void handle_submit(Conn& conn, const Frame& frame,
                     std::chrono::steady_clock::time_point now) {
    const std::uint64_t id = frame.header.request_id;
    GemmSubmit msg;
    const WireError perr = parse_gemm_submit(frame.payload, msg);
    if (perr != WireError::None) {
      queue_error(conn, perr, id, 0, "malformed SubmitGemm payload",
                  false);
      return;
    }
    if (conn.state == ConnState::AwaitHello) {
      queue_error(conn, WireError::Protocol, id, 0,
                  "SubmitGemm before Hello", false);
      return;
    }
    if (conn.state == ConnState::Closing) {
      queue_error(conn, WireError::Protocol, id, 0,
                  "SubmitGemm after Goodbye", false);
      return;
    }
    if (phase.load(std::memory_order_relaxed) != Phase::Running) {
      queue_error(conn, WireError::ShuttingDown, id, 0,
                  "daemon is draining", false);
      return;
    }
    if (conn.pending.size() >= cfg.max_outstanding) {
      queue_error(conn, WireError::Backpressure, id, 0,
                  "per-connection outstanding cap reached", false);
      return;
    }
    if (conn.pending.count(id) != 0) {
      queue_error(conn, WireError::Protocol, id, 0,
                  "duplicate request_id", false);
      return;
    }

    // Wire-level deadline propagation: the budget started when the
    // frame's first byte was buffered, so socket + decode time already
    // spent counts against it.
    std::chrono::nanoseconds deadline{0};
    if (msg.deadline_ms > 0) {
      const auto budget =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::duration<double, std::milli>(msg.deadline_ms));
      const auto spent = now - conn.frame_t0;
      if (spent >= budget) {
        // Dead on arrival: resolve it exactly like a queue-time expiry
        // would, without ever touching the Server.
        std::vector<std::uint8_t> payload;
        append_result(payload, static_cast<int>(Status::Timeout), {});
        queue_frame(conn, FrameType::Result, id, payload);
        ++results;
        return;
      }
      deadline = budget - spent;
    }

    if (msg.dtype == 's') {
      submit_typed<float>(conn, id, msg, deadline);
    } else {
      submit_typed<double>(conn, id, msg, deadline);
    }
  }

  // --- Frame dispatch --------------------------------------------------

  void handle_frame(Conn& conn, const Frame& frame,
                    std::chrono::steady_clock::time_point now) {
    ++frames_in;
    // The handshake is not optional: any frame before Hello is refused
    // (wire.hpp's "must open with Hello" contract), keeping framing so
    // the client can still handshake properly afterwards.
    if (conn.state == ConnState::AwaitHello &&
        frame.header.type != FrameType::Hello) {
      queue_error(conn, WireError::Protocol, frame.header.request_id, 0,
                  "expected Hello first", false);
      return;
    }
    switch (frame.header.type) {
    case FrameType::Hello: {
      std::uint32_t version = 0;
      const WireError perr = parse_hello(frame.payload, version);
      if (perr != WireError::None) {
        queue_error(conn, perr, frame.header.request_id, 0,
                    "malformed Hello", false);
        return;
      }
      if (version != kWireVersion) {
        queue_error(conn, WireError::BadVersion, frame.header.request_id,
                    0, "unsupported wire version", true);
        return;
      }
      if (conn.state != ConnState::AwaitHello) {
        queue_error(conn, WireError::Protocol, frame.header.request_id, 0,
                    "duplicate Hello", false);
        return;
      }
      conn.state = ConnState::Open;
      HelloAckMsg ack;
      ack.version = kWireVersion;
      ack.max_payload = static_cast<std::uint32_t>(
          std::min<std::size_t>(cfg.max_payload, UINT32_MAX));
      ack.max_outstanding = static_cast<std::uint32_t>(
          std::min<std::size_t>(cfg.max_outstanding, UINT32_MAX));
      std::vector<std::uint8_t> payload;
      append_hello_ack(payload, ack);
      queue_frame(conn, FrameType::HelloAck, frame.header.request_id,
                  payload);
      return;
    }
    case FrameType::SubmitGemm:
      handle_submit(conn, frame, now);
      return;
    case FrameType::Ping:
      queue_frame(conn, FrameType::Pong, frame.header.request_id, {});
      return;
    case FrameType::Cancel: {
      const auto it = conn.pending.find(frame.header.request_id);
      if (it == conn.pending.end()) {
        queue_error(conn, WireError::UnknownRequest,
                    frame.header.request_id, 0,
                    "cancel of unknown or finished request", false);
        return;
      }
      // Advisory: the request still resolves with exactly one Result
      // frame (status Cancelled if it was shed at dequeue).
      serve::cancel(it->second);
      ++cancels;
      return;
    }
    case FrameType::Goodbye:
      conn.state = ConnState::Closing;
      maybe_finish_closing(conn);
      return;
    case FrameType::HelloAck:
    case FrameType::Result:
    case FrameType::Error:
    case FrameType::Pong:
      queue_error(conn, WireError::Protocol, frame.header.request_id, 0,
                  "server-to-client frame type from client", false);
      return;
    }
    // Out-of-enum values never reach here (the decoder rejects them
    // with BadType); keep the refusal for defence in depth.
    queue_error(conn, WireError::BadType, frame.header.request_id, 0,
                "unhandled frame type", false);
  }

  void maybe_finish_closing(Conn& conn) {
    if (conn.state == ConnState::Closing && conn.pending.empty()) {
      conn.close_after_flush = true;
    }
  }

  // --- Socket events ---------------------------------------------------

  void on_readable(Conn& conn) {
    std::uint8_t buf[65536];
    bool saw_eof = false;
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        bytes_in += static_cast<std::uint64_t>(n);
        if (conn.decoder.buffered() == 0) {
          conn.frame_t0 = std::chrono::steady_clock::now();
        }
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) {
          break; // drained the socket
        }
        continue;
      }
      if (n == 0) {
        // Peer finished sending. Frames already delivered (possibly in
        // this very read burst) are still decoded below -- an EOF racing
        // a submit must not drop the submit.
        saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      destroy_conn(conn.id); // ECONNRESET and friends
      return;
    }
    if (conn.close_after_flush || conn.doomed) {
      if (saw_eof) {
        destroy_conn(conn.id); // condemned and the peer is gone: done
      }
      return;
    }

    const auto now = std::chrono::steady_clock::now();
    for (;;) {
      Decoder::Event ev = conn.decoder.next();
      if (ev.kind == Decoder::Event::Kind::NeedMore) {
        break;
      }
      if (ev.kind == Decoder::Event::Kind::Error) {
        queue_error(conn, ev.error, ev.request_id, 0, to_string(ev.error),
                    ev.fatal);
        if (ev.fatal || conn.doomed) {
          break; // latched (or overflowed): answer queued, then close
        }
        continue;
      }
      handle_frame(conn, ev.frame, now);
      if (conn.doomed || conn.close_after_flush) {
        break;
      }
      // Next frame's deadline clock starts now (its bytes may already
      // be buffered; charging from this frame's completion is the
      // closest observable bound).
      conn.frame_t0 = now;
    }
    if (conn.doomed) {
      destroy_conn(conn.id);
      return;
    }
    if (saw_eof) {
      if (conn.state == ConnState::Closing) {
        // Goodbye then shutdown(WR): a polite half-close. The client
        // still wants its results; close once pending work flushes
        // (read_closed keeps the EOF'd socket out of the poll set).
        conn.read_closed = true;
        maybe_finish_closing(conn);
      } else {
        // EOF with no Goodbye is client death: cancel this connection's
        // queued tickets (and only this connection's) and tear down.
        destroy_conn(conn.id);
      }
    }
  }

  void on_writable(Conn& conn) {
    while (conn.wpos < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.wpos,
                               conn.wbuf.size() - conn.wpos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.wpos += static_cast<std::size_t>(n);
        bytes_out += static_cast<std::uint64_t>(n);
        conn.last_write_progress = std::chrono::steady_clock::now();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      destroy_conn(conn.id);
      return;
    }
    // Fully flushed: reclaim the buffer, honour deferred closes.
    conn.wbuf.clear();
    conn.wpos = 0;
    if (conn.close_after_flush || conn.doomed) {
      destroy_conn(conn.id);
    }
  }

  void on_accept(int listen_fd) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        return; // EAGAIN, EINTR or transient failure: poll again later
      }
      set_cloexec(fd);
      if (conns.size() >= cfg.max_connections) {
        // ShedNewest at the cap (Block parks the listener before we
        // ever get here): one stable Busy frame, then close.
        ++shed_busy;
        std::vector<std::uint8_t> refusal;
        {
          std::vector<std::uint8_t> payload;
          append_error(payload, WireError::Busy, 0,
                       "connection cap reached");
          append_frame(refusal, FrameType::Error, 0, payload);
        }
        send_best_effort(fd, refusal);
        ::close(fd);
        continue;
      }
      try {
        set_nonblocking(fd);
      } catch (...) {
        ::close(fd);
        continue;
      }
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      auto conn = std::make_unique<Conn>(cfg.max_payload);
      conn->fd = fd;
      conn->id = next_conn_id++;
      conn->last_write_progress = std::chrono::steady_clock::now();
      ++accepted;
      ++open_conns;
      conns.emplace(conn->id, std::move(conn));
    }
  }

  void process_completions() {
    for (Completion& c : completions->take()) {
      const auto it = conns.find(c.conn_id);
      if (it == conns.end()) {
        continue; // client died before its result; nothing to tell
      }
      Conn& conn = *it->second;
      const auto pit = conn.pending.find(c.request_id);
      if (pit == conn.pending.end()) {
        continue; // already answered (e.g. dead-on-arrival timeout)
      }
      conn.pending.erase(pit);
      std::vector<std::uint8_t> payload;
      if (c.status == 0) {
        std::vector<std::uint8_t> cdata;
        static_cast<const PendingState*>(c.state.get())->export_c(cdata);
        append_result(payload, 0, cdata);
      } else {
        append_result(payload, c.status, {});
      }
      queue_frame(conn, FrameType::Result, c.request_id, payload);
      ++results;
      if (conn.doomed) {
        destroy_conn(c.conn_id);
        continue;
      }
      maybe_finish_closing(conn);
    }
  }

  // --- Reactor loop ----------------------------------------------------

  void close_listeners() {
    if (unix_fd >= 0) {
      ::close(unix_fd);
      unix_fd = -1;
      if (!cfg.unix_path.empty()) {
        (void)::unlink(cfg.unix_path.c_str());
      }
    }
    if (tcp_fd >= 0) {
      ::close(tcp_fd);
      tcp_fd = -1;
    }
  }

  void run() {
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn; ///< conn id per pollfd (0 = none)
    for (;;) {
      const Phase p = phase.load(std::memory_order_relaxed);
      if (p == Phase::Stopping) {
        break;
      }
      if (p == Phase::Draining) {
        close_listeners();
        // Condemn idle connections (a courtesy ShuttingDown notice
        // first); loaded ones close as their last completion flushes.
        for (auto& [id, conn] : conns) {
          if (conn->pending.empty() && !conn->close_after_flush &&
              !conn->doomed) {
            queue_error(*conn, WireError::ShuttingDown, 0, 0,
                        "daemon draining", true);
          }
        }
      }
      sweep_condemned();
      if (p == Phase::Draining && conns.empty()) {
        break; // every request resolved and flushed
      }

      fds.clear();
      fd_conn.clear();
      const bool at_cap = conns.size() >= cfg.max_connections;
      const bool park_listeners =
          p != Phase::Running ||
          (at_cap &&
           cfg.accept_overload == resilience::OverloadPolicy::Block);
      if (!park_listeners) {
        if (unix_fd >= 0) {
          fds.push_back({unix_fd, POLLIN, 0});
          fd_conn.push_back(0);
        }
        if (tcp_fd >= 0) {
          fds.push_back({tcp_fd, POLLIN, 0});
          fd_conn.push_back(0);
        }
      }
      fds.push_back({completions->wake_rd, POLLIN, 0});
      fd_conn.push_back(0);
      for (auto& [id, conn] : conns) {
        // A condemned or EOF'd connection's input no longer matters;
        // only its flush does.
        short events =
            (conn->close_after_flush || conn->read_closed) ? 0 : POLLIN;
        if (conn->queued_bytes() > 0) {
          events |= POLLOUT;
        }
        fds.push_back({conn->fd, events, 0});
        fd_conn.push_back(id);
      }

      const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                            100);
      if (rc < 0 && errno != EINTR) {
        break; // poll itself failing is unrecoverable
      }

      process_completions();

      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) {
          continue;
        }
        if (fd_conn[i] == 0) {
          if (fds[i].fd == completions->wake_rd) {
            process_completions();
          } else {
            on_accept(fds[i].fd);
          }
          continue;
        }
        {
          const auto it = conns.find(fd_conn[i]);
          if (it == conns.end()) {
            continue; // closed earlier this round
          }
          Conn& conn = *it->second;
          if ((fds[i].revents & (POLLERR | POLLNVAL)) ||
              ((fds[i].revents & POLLHUP) &&
               !(fds[i].revents & POLLIN) && conn.queued_bytes() == 0)) {
            destroy_conn(conn.id);
            continue;
          }
          if (fds[i].revents & POLLIN) {
            // A dead peer reports POLLIN|POLLHUP while undelivered
            // bytes remain: the read path must run first so frames that
            // raced the hangup are decoded, not dropped.
            on_readable(conn);
          }
        }
        // on_readable may have destroyed the connection: re-find.
        const auto it = conns.find(fd_conn[i]);
        if (it != conns.end() && (fds[i].revents & POLLOUT)) {
          on_writable(*it->second);
        }
      }

      // Slow-client sweep: queued bytes with no progress for too long.
      const auto now = std::chrono::steady_clock::now();
      std::vector<std::uint64_t> slow;
      for (auto& [id, conn] : conns) {
        if (conn->queued_bytes() > 0 &&
            now - conn->last_write_progress > cfg.write_timeout) {
          slow.push_back(id);
        }
      }
      for (const auto id : slow) {
        ++slow_closes;
        destroy_conn(id);
      }
    }

    // Teardown: whatever is left gets closed; queued requests of those
    // connections are cancelled via their tokens.
    close_listeners();
    while (!conns.empty()) {
      destroy_conn(conns.begin()->first);
    }
  }
};

// --- Public surface ----------------------------------------------------

namespace {

int listen_unix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw Error("iatf-net: unix socket path too long: " + path,
                Status::InvalidArg);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket(AF_UNIX)");
  }
  set_cloexec(fd);
  (void)::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  set_nonblocking(fd);
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t& bound) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("socket(AF_INET)");
  }
  set_cloexec(fd);
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("iatf-net: bad TCP host '" + host + "'",
                Status::InvalidArg);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw_errno("bind(" + host + ")");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw_errno("listen(tcp)");
  }
  sockaddr_in actual{};
  socklen_t len = sizeof actual;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
    bound = ntohs(actual.sin_port);
  }
  set_nonblocking(fd);
  return fd;
}

} // namespace

NetServer::NetServer(serve::Server& server, NetConfig config)
    : impl_(std::make_unique<Impl>(server, std::move(config))) {}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  std::lock_guard<std::mutex> lk(impl_->lifecycle_mu);
  IATF_CHECK(impl_->phase.load() == Impl::Phase::Idle,
             "NetServer::start: already started");
  IATF_CHECK(!impl_->cfg.unix_path.empty() || impl_->cfg.tcp,
             "NetServer::start: no endpoint configured");
  if (!impl_->cfg.unix_path.empty()) {
    impl_->unix_fd = listen_unix(impl_->cfg.unix_path);
  }
  if (impl_->cfg.tcp) {
    std::uint16_t bound = impl_->cfg.tcp_port;
    try {
      impl_->tcp_fd =
          listen_tcp(impl_->cfg.tcp_host, impl_->cfg.tcp_port, bound);
    } catch (...) {
      impl_->close_listeners();
      throw;
    }
    impl_->bound_tcp_port.store(bound);
  }
  impl_->phase.store(Impl::Phase::Running);
  impl_->reactor = std::thread([impl = impl_.get()] { impl->run(); });
}

void NetServer::drain() {
  std::lock_guard<std::mutex> lk(impl_->lifecycle_mu);
  const auto p = impl_->phase.load();
  if (p == Impl::Phase::Idle || p == Impl::Phase::Stopped) {
    impl_->phase.store(Impl::Phase::Stopped);
    return;
  }
  if (p == Impl::Phase::Running) {
    impl_->phase.store(Impl::Phase::Draining);
  }
  impl_->completions->wake();
  if (impl_->reactor.joinable()) {
    impl_->reactor.join();
  }
  impl_->phase.store(Impl::Phase::Stopped);
  impl_->server.drain();
}

void NetServer::stop() {
  std::lock_guard<std::mutex> lk(impl_->lifecycle_mu);
  const auto p = impl_->phase.load();
  if (p == Impl::Phase::Idle || p == Impl::Phase::Stopped) {
    impl_->phase.store(Impl::Phase::Stopped);
    return;
  }
  impl_->phase.store(Impl::Phase::Stopping);
  impl_->completions->wake();
  if (impl_->reactor.joinable()) {
    impl_->reactor.join();
  }
  impl_->phase.store(Impl::Phase::Stopped);
}

std::uint16_t NetServer::tcp_port() const noexcept {
  return impl_->bound_tcp_port.load();
}

NetStats NetServer::stats() const {
  NetStats s;
  s.accepted = impl_->accepted.load();
  s.shed_busy = impl_->shed_busy.load();
  s.closed = impl_->closed.load();
  s.slow_closes = impl_->slow_closes.load();
  s.frames_in = impl_->frames_in.load();
  s.frames_out = impl_->frames_out.load();
  s.wire_errors = impl_->wire_errors.load();
  s.fatal_errors = impl_->fatal_errors.load();
  s.submits = impl_->submits.load();
  s.results = impl_->results.load();
  s.cancels = impl_->cancels.load();
  s.bytes_in = impl_->bytes_in.load();
  s.bytes_out = impl_->bytes_out.load();
  s.connections = impl_->open_conns.load();
  return s;
}

} // namespace iatf::net
