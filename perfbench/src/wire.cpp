#include "wire.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "iatf/common/rng.hpp"
#include "iatf/layout/compact.hpp"
#include "iatf/ref/ref_blas.hpp"

extern char** environ;

namespace pb {

using namespace iatf;

namespace {

constexpr std::uint32_t kN = kWireN;
constexpr int kVariants = kWireVariants;
constexpr double kBeta = 0.5;    ///< C travels in and is updated
constexpr auto kReplyTimeout = std::chrono::milliseconds(10000);

template <class T>
FrameClass make_class(std::uint32_t batch, std::uint64_t seed,
                      std::uint64_t tag) {
  FrameClass fc;
  fc.dtype = std::is_same_v<T, float> ? 's' : 'd';
  fc.batch = batch;
  fc.elem = sizeof(T);
  Rng rng(Stream(seed, 0x31e0000 + tag).next());
  const std::size_t elems = std::size_t(kN) * kN * batch;
  const auto bytes = [](const std::vector<T>& v) {
    std::vector<std::uint8_t> out(v.size() * sizeof(T));
    std::memcpy(out.data(), v.data(), out.size());
    return out;
  };
  for (int v = 0; v < kVariants; ++v) {
    std::vector<T> a(elems), b(elems), c(elems);
    rng.fill<T>(a);
    rng.fill<T>(b);
    rng.fill<T>(c);
    std::vector<T> want(c);
    for (std::uint32_t l = 0; l < batch; ++l) {
      const std::size_t off = std::size_t(l) * kN * kN;
      ref::gemm<T>(Op::NoTrans, Op::NoTrans, kN, kN, kN, T(1), a.data() + off,
                   kN, b.data() + off, kN, T(kBeta), want.data() + off, kN);
    }
    fc.a.push_back(bytes(a));
    fc.b.push_back(bytes(b));
    fc.c.push_back(bytes(c));
    fc.want.push_back(bytes(want));
  }
  return fc;
}

} // namespace

std::size_t FrameClass::frame_bytes() const {
  // Submit: header + 52-byte descriptor + A, B, C. Result: header +
  // 8-byte status block + C.
  return 2 * net::kHeaderSize + 52 + 8 + 4 * operand_bytes();
}

Frames::Frames(std::uint64_t seed)
    : cls{make_class<float>(2 * simd::pack_width_v<float>, seed, 0),
          make_class<double>(2 * simd::pack_width_v<double>, seed, 1),
          make_class<float>(kHeavyBatchS, seed, 2),
          make_class<double>(kHeavyBatchD, seed, 3)} {}

net::GemmSubmit Frames::submit(const WireReq& r) const {
  const FrameClass& fc = cls[index(r)];
  net::GemmSubmit s;
  s.dtype = fc.dtype;
  s.m = s.n = s.k = kN;
  s.batch = fc.batch;
  s.alpha = 1.0;
  s.beta = kBeta;
  s.a = fc.a[r.variant];
  s.b = fc.b[r.variant];
  s.c = fc.c[r.variant];
  return s;
}

bool Frames::matches(const WireReq& r,
                     const std::vector<std::uint8_t>& c) const {
  const FrameClass& fc = cls[index(r)];
  if (c.size() != fc.operand_bytes()) {
    return false;
  }
  const std::size_t off = (r.lane % fc.batch) * kN * kN;
  for (std::size_t i = 0; i < kN * kN; ++i) {
    double got, want, eps;
    if (fc.dtype == 'd') {
      std::memcpy(&got, c.data() + (off + i) * 8, 8);
      std::memcpy(&want, fc.want[r.variant].data() + (off + i) * 8, 8);
      eps = std::numeric_limits<double>::epsilon();
    } else {
      float g, w;
      std::memcpy(&g, c.data() + (off + i) * 4, 4);
      std::memcpy(&w, fc.want[r.variant].data() + (off + i) * 4, 4);
      got = g, want = w, eps = std::numeric_limits<float>::epsilon();
    }
    if (std::abs(got - want) > 32.0 * eps * kN * (1.0 + std::abs(want))) {
      return false;
    }
  }
  return true;
}

double Frames::bytes_per_req() const {
  double bytes = 0.0;
  for (int c = 0; c < 4; ++c) {
    const double heavy = WireStream::kHeavyShare;
    const double share = 0.5 * (c >= 2 ? heavy : 1.0 - heavy);
    bytes += share * static_cast<double>(cls[c].frame_bytes());
  }
  return bytes;
}

// ---- the daemon ------------------------------------------------------------

Daemon::Daemon(const std::string& binary, const std::string& socket,
               const std::string& log)
    : socket_(socket) {
  ::unlink(socket.c_str());
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  const std::string unix_arg = "--unix=" + socket;
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>(unix_arg.c_str()), nullptr};
  const int rc =
      posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + binary + ": " +
                             std::strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  ::unlink(socket_.c_str());
}

void Daemon::connect(net::Client& c) const {
  const std::int64_t give_up = now_ns() + 20'000'000'000;
  for (;;) {
    try {
      c.connect_unix(socket_);
      return;
    } catch (const std::exception& e) {
      if (now_ns() > give_up) {
        throw std::runtime_error(std::string("iatf_served connect: ") +
                                 e.what());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

int Daemon::terminate() {
  ::kill(pid_, SIGTERM);
  const std::int64_t give_up = now_ns() + 30'000'000'000;
  int status = 0;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    if (now_ns() > give_up) {
      return -1; // the destructor kills it
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

// ---- the closed loop ---------------------------------------------------------

struct ConnResult {
  Ops ops;
  std::vector<double> rtt_us;                 ///< ok frames
  std::array<std::vector<double>, 4> cls_rtt_us;
  std::vector<double> submit_ns;              ///< traced only
  std::vector<double> gap_us;                 ///< traced only
  std::vector<std::int64_t> done_ns;          ///< completion of each rtt
  SpanLog trace{0};
  std::uint64_t completed = 0;
  std::string error;
};

/// Keep `window` frames outstanding on `c` until `end_ns`, then collect
/// every outstanding reply.
void drive(net::Client& c, WireStream& ws, const Frames& frames, int window,
           std::int64_t end_ns, bool traced, bool small_d_only,
           ConnResult& out) {
  struct Pending {
    std::int64_t sent_ns;
    WireReq req;
  };
  std::unordered_map<std::uint64_t, Pending> pending;
  bool stop = false;
  std::int64_t last_reply = -1;
  try {
    for (;;) {
      while (!stop && static_cast<int>(pending.size()) < window) {
        WireReq req = ws.next();
        if (small_d_only) {
          req.dbl = true;
          req.heavy = false;
        }
        const net::GemmSubmit sub = frames.submit(req);
        const std::int64_t t0 = now_ns();
        const std::uint64_t id = c.submit_gemm(sub);
        if (traced) {
          const std::int64_t t1 = now_ns();
          out.submit_ns.push_back(static_cast<double>(t1 - t0));
          out.trace.record("net.submit", t0, t1);
          if (last_reply >= 0) {
            out.gap_us.push_back(static_cast<double>(t0 - last_reply) * 1e-3);
            last_reply = -1;
          }
        }
        pending.emplace(id, Pending{t0, req});
      }
      if (pending.empty()) {
        break;
      }
      net::Client::Reply reply;
      if (!c.next_reply(reply, kReplyTimeout)) {
        out.error = "no reply within 10 s";
        break;
      }
      const std::int64_t now = now_ns();
      last_reply = now;
      const auto it = pending.find(reply.request_id);
      if (it == pending.end()) {
        continue; // not a reply to a submission (cannot happen here)
      }
      const WireReq req = it->second.req;
      if (reply.type == net::FrameType::Result && reply.status == 0) {
        if (frames.matches(req, reply.c)) {
          ++out.ops.ok;
          const double us =
              static_cast<double>(now - it->second.sent_ns) * 1e-3;
          out.rtt_us.push_back(us);
          out.done_ns.push_back(now);
          out.cls_rtt_us[Frames::index(req)].push_back(us);
          if (traced) {
            out.trace.record("net.rtt", it->second.sent_ns, now);
          }
        } else {
          ++out.ops.failed;
        }
      } else if (reply.type == net::FrameType::Result) {
        ++out.ops.failed;
      } else {
        ++out.ops.refused; // a wire-level Error frame
      }
      ++out.completed;
      pending.erase(it);
      stop = stop || now >= end_ns;
    }
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.ops.unresolved += pending.size();
}

} // namespace

LoopResult run_loop(Report& rep, std::vector<net::Client>& clients,
                    std::vector<WireStream>& streams, const Frames& frames,
                    int conns, int window, double seconds, bool traced,
                    bool small_d_only, int windows) {
  std::vector<ConnResult> res(conns);
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < conns; ++i) {
      threads.emplace_back([&, i] {
        drive(clients[i], streams[i], frames, window, end, traced,
              small_d_only, res[i]);
      });
    }
  }
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  LoopResult lr;
  lr.win_rtt_us.resize(windows);
  const double win_ns = seconds * 1e9 / windows;
  std::vector<std::int64_t> done;
  for (const ConnResult& r : res) {
    for (std::size_t i = 0; i < r.rtt_us.size(); ++i) {
      const auto w = static_cast<std::size_t>(
          static_cast<double>(r.done_ns[i] - t0) / win_ns);
      lr.win_rtt_us[std::min<std::size_t>(w, windows - 1)].push_back(
          r.rtt_us[i]);
    }
    done.insert(done.end(), r.done_ns.begin(), r.done_ns.end());
  }
  // The drain after `end` is not timed.
  lr.win_rps = window_rates(done, t0, end, kWireRateWindowNs);
  std::uint64_t completed = 0;
  for (ConnResult& r : res) {
    if (!r.error.empty()) {
      rep.fail("wire-rpc connection: " + r.error);
    }
    lr.ops += r.ops;
    completed += r.ops.ok;
    lr.rtt_us.insert(lr.rtt_us.end(), r.rtt_us.begin(), r.rtt_us.end());
    for (int c = 0; c < 4; ++c) {
      lr.cls_rtt_us[c].insert(lr.cls_rtt_us[c].end(), r.cls_rtt_us[c].begin(),
                              r.cls_rtt_us[c].end());
    }
    lr.submit_ns.insert(lr.submit_ns.end(), r.submit_ns.begin(),
                        r.submit_ns.end());
    lr.gap_us.insert(lr.gap_us.end(), r.gap_us.begin(), r.gap_us.end());
    rep.trace.append(r.trace);
  }
  lr.rps = static_cast<double>(completed) / elapsed;
  char line[200];
  std::snprintf(line, sizeof line,
                "loop conns=%d window=%d seconds=%.2f ok=%zu rps=%.0f "
                "p50_us=%.1f p99_us=%.1f",
                conns, window, elapsed, lr.rtt_us.size(), lr.rps,
                percentile(lr.rtt_us, 0.5).value,
                percentile(lr.rtt_us, 0.99).value);
  rep.notes.emplace_back(line);
  std::snprintf(line, sizeof line,
                "rate: %zu windows of 100 ms, req/s p10/p50/p90 %.0f/%.0f/%.0f",
                lr.win_rps.size(), percentile(lr.win_rps, 0.1).value,
                percentile(lr.win_rps, 0.5).value,
                percentile(lr.win_rps, 0.9).value);
  rep.notes.emplace_back(line);
  return lr;
}

double codec_ns(const Frames& frames, double seconds) {
  const WireReq req{true, false, 0, 0};
  std::vector<std::uint8_t> payload, result;
  net::append_gemm_submit(payload, frames.submit(req));
  const auto& c = frames.cls[Frames::index(req)].c[0];
  constexpr int kInner = 64;
  std::vector<double> ns;
  std::size_t sink = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (ns.size() < 10 || now_ns() < end) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kInner; ++i) {
      net::GemmSubmit msg;
      sink += static_cast<std::size_t>(net::parse_gemm_submit(payload, msg));
      result.clear();
      net::append_result(result, 0, msg.c);
      net::ResultMsg rm;
      sink += static_cast<std::size_t>(net::parse_result(result, rm));
      sink += rm.c.size() != c.size();
    }
    ns.push_back(static_cast<double>(now_ns() - t0) / kInner);
  }
  if (sink != 0) {
    throw std::runtime_error("wire-rpc: codec round trip failed");
  }
  return median(ns);
}

double wire_convert_gbps(const Frames& frames, double seconds) {
  const FrameClass& fc = frames.cls[1];
  const index_t batch = fc.batch;
  CompactBuffer<double> a(kN, kN, batch), b(kN, kN, batch), c(kN, kN, batch);
  std::vector<double> stage(kN * kN), out(kN * kN * batch);
  const auto lane_ptr = [&](const std::vector<std::uint8_t>& bytes,
                            index_t l) {
    std::memcpy(stage.data(), bytes.data() + l * kN * kN * 8, kN * kN * 8);
    return stage.data();
  };
  constexpr int kInner = 64;
  std::vector<double> gbps;
  const double bytes = 4.0 * kInner * fc.operand_bytes();
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (gbps.size() < 10 || now_ns() < end) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kInner; ++i) {
      for (index_t l = 0; l < batch; ++l) {
        a.import_colmajor(l, lane_ptr(fc.a[0], l), kN);
        b.import_colmajor(l, lane_ptr(fc.b[0], l), kN);
        c.import_colmajor(l, lane_ptr(fc.c[0], l), kN);
        c.export_colmajor(l, out.data() + l * kN * kN, kN);
      }
    }
    gbps.push_back(bytes / static_cast<double>(now_ns() - t0));
  }
  return median(gbps);
}

Percentile LoopResult::windowed(double q) const {
  std::vector<double> per;
  Percentile out;
  out.beyond = ~std::size_t{0};
  for (const auto& w : win_rtt_us) {
    const Percentile pw = percentile(w, q);
    per.push_back(pw.value);
    out.samples += pw.samples;
    out.beyond = std::min(out.beyond, pw.beyond);
  }
  out.value = median(per);
  if (per.empty()) {
    out.beyond = 0;
  }
  return out;
}

} // namespace pb
