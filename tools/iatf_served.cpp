// iatf_served -- the network-facing serving daemon: iatf-wire 1 over
// TCP and/or Unix-domain sockets, bridged into an iatf::serve::Server
// on the default engine.
//
// Operator contract (DESIGN.md section 16, README "Network serving"):
//  * SIGTERM / SIGINT: stop accepting, refuse new submits with
//    ShuttingDown, resolve + flush every outstanding request, drain the
//    server, exit 0. A second signal exits immediately (134).
//  * SIGPIPE is ignored; a dead client never kills the daemon and its
//    queued requests are cancelled without touching other connections.
//  * $IATF_HEALTH_LEDGER: replayed at startup exactly like any other
//    engine process -- kernels a previous run (or a previous crash)
//    quarantined stay quarantined, and the count is logged so the
//    crash-recovery CI step can assert on it.
//  * Exit codes: 0 clean shutdown, 1 startup failure (bind, bad
//    config), 2 bad command line.
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "iatf/core/engine.hpp"
#include "iatf/net/reactor.hpp"
#include "iatf/serve/server.hpp"
#include "iatf/version.hpp"

namespace {

using namespace iatf;

struct Options {
  std::string unix_path;
  bool tcp = false;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  bool accept_block = false; // default ShedNewest
  std::size_t max_payload_mb = 16;
  std::size_t max_outstanding = 64;
  int write_timeout_ms = 10000;
  std::size_t queue = 1024;
  std::size_t coalesce = 64;
  std::size_t dispatchers = 0; // 0 = one per spare CPU
  std::string serve_overload = "shed"; // shed | block | degrade
  double deadline_ms = 0.0;
  double watchdog_grace = 0.0;
  double watchdog_floor_ms = 0.0;
  bool print_stats = false;
};

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: iatf_served --unix=PATH | --tcp=HOST:PORT [options]\n"
      "\n"
      "Serve the iatf-wire 1 protocol over the given endpoints (both\n"
      "may be used at once). --tcp=HOST:0 binds an ephemeral port,\n"
      "printed on the 'listening' line.\n"
      "\n"
      "  --unix=PATH             Unix-domain socket (stale path unlinked)\n"
      "  --tcp=HOST:PORT         TCP endpoint (IPv4 literal host)\n"
      "  --max-connections=N     connection cap (default 64)\n"
      "  --accept-policy=P       at the cap: shed (refuse with Busy,\n"
      "                          default) or block (park the listener)\n"
      "  --max-payload-mb=N      wire payload bound (default 16)\n"
      "  --max-outstanding=N     per-connection submit cap (default 64)\n"
      "  --write-timeout-ms=N    slow-client disconnect (default 10000)\n"
      "  --queue=N               server queue capacity (default 1024)\n"
      "  --coalesce=N            max requests per dispatch (default 64)\n"
      "  --dispatchers=N         dispatcher threads, clamped to [1, 64]\n"
      "                          (default: one per spare CPU)\n"
      "  --overload=P            server queue-full policy: shed\n"
      "                          (default), block, degrade\n"
      "  --deadline-ms=X         default request deadline (0 = none)\n"
      "  --watchdog-grace=X      watchdog multiplier (0 = off)\n"
      "  --watchdog-floor-ms=X   watchdog floor for deadline-less work\n"
      "  --stats                 print wire/server stats at shutdown\n"
      "  --help, --version\n");
}

bool parse(int argc, char** argv, Options& opt, int& exit_code) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    if (std::strcmp(arg, "--help") == 0) {
      usage(stdout);
      exit_code = 0;
      return false;
    }
    if (std::strcmp(arg, "--version") == 0) {
      std::printf("iatf_served %s (iatf-wire %u)\n", IATF_VERSION_STRING,
                  net::kWireVersion);
      exit_code = 0;
      return false;
    }
    if (const char* v = value("--unix=")) {
      opt.unix_path = v;
    } else if (const char* v = value("--tcp=")) {
      const char* colon = std::strrchr(v, ':');
      if (colon == nullptr || colon == v) {
        std::fprintf(stderr, "iatf_served: --tcp wants HOST:PORT\n");
        exit_code = 2;
        return false;
      }
      opt.tcp = true;
      opt.host.assign(v, colon - v);
      opt.port = static_cast<std::uint16_t>(std::atoi(colon + 1));
    } else if (const char* v = value("--max-connections=")) {
      opt.max_connections = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--accept-policy=")) {
      if (std::strcmp(v, "block") == 0) {
        opt.accept_block = true;
      } else if (std::strcmp(v, "shed") == 0) {
        opt.accept_block = false;
      } else {
        std::fprintf(stderr, "iatf_served: unknown accept policy '%s'\n",
                     v);
        exit_code = 2;
        return false;
      }
    } else if (const char* v = value("--max-payload-mb=")) {
      opt.max_payload_mb = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--max-outstanding=")) {
      opt.max_outstanding = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--write-timeout-ms=")) {
      opt.write_timeout_ms = std::atoi(v);
    } else if (const char* v = value("--queue=")) {
      opt.queue = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--coalesce=")) {
      opt.coalesce = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--dispatchers=")) {
      opt.dispatchers = static_cast<std::size_t>(std::atoll(v));
    } else if (const char* v = value("--overload=")) {
      opt.serve_overload = v;
    } else if (const char* v = value("--deadline-ms=")) {
      opt.deadline_ms = std::atof(v);
    } else if (const char* v = value("--watchdog-grace=")) {
      opt.watchdog_grace = std::atof(v);
    } else if (const char* v = value("--watchdog-floor-ms=")) {
      opt.watchdog_floor_ms = std::atof(v);
    } else if (std::strcmp(arg, "--stats") == 0) {
      opt.print_stats = true;
    } else {
      std::fprintf(stderr, "iatf_served: unknown option '%s'\n", arg);
      usage(stderr);
      exit_code = 2;
      return false;
    }
  }
  if (opt.unix_path.empty() && !opt.tcp) {
    std::fprintf(stderr, "iatf_served: need --unix and/or --tcp\n");
    usage(stderr);
    exit_code = 2;
    return false;
  }
  if (opt.serve_overload != "shed" && opt.serve_overload != "block" &&
      opt.serve_overload != "degrade") {
    std::fprintf(stderr, "iatf_served: unknown overload policy '%s'\n",
                 opt.serve_overload.c_str());
    exit_code = 2;
    return false;
  }
  if (opt.max_connections == 0 || opt.max_outstanding == 0 ||
      opt.queue == 0 || opt.coalesce == 0 || opt.max_payload_mb == 0) {
    std::fprintf(stderr, "iatf_served: zero-sized limits are invalid\n");
    exit_code = 2;
    return false;
  }
  return true;
}

// Self-pipe signal relay: handlers only write one byte; main poll()s.
int g_signal_pipe[2] = {-1, -1};
std::atomic<int> g_signal_count{0};

void on_signal(int) {
  if (g_signal_count.fetch_add(1) >= 1) {
    // Second signal: operator really means it. No clean drain.
    std::_Exit(134);
  }
  const char byte = 1;
  (void)!::write(g_signal_pipe[1], &byte, 1);
}

std::chrono::nanoseconds from_ms(double ms) {
  return ms > 0 ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double, std::milli>(ms))
                : std::chrono::nanoseconds(0);
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  int exit_code = 0;
  if (!parse(argc, argv, opt, exit_code)) {
    return exit_code;
  }

  std::signal(SIGPIPE, SIG_IGN);
  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "iatf_served: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  try {
    Engine& engine = Engine::default_engine();
    // The constructor already replayed $IATF_HEALTH_LEDGER (if set);
    // surface the count so restarts are auditable and the CI
    // crash-recovery step can grep for it.
    if (const char* ledger = std::getenv("IATF_HEALTH_LEDGER")) {
      std::printf("iatf_served: ledger %s replayed %zu quarantined "
                  "kernels\n",
                  ledger, engine.health().quarantined_kernels);
    }

    serve::ServeConfig scfg;
    scfg.queue_capacity = opt.queue;
    scfg.max_coalesce = opt.coalesce;
    scfg.dispatchers = opt.dispatchers;
    scfg.default_deadline = from_ms(opt.deadline_ms);
    scfg.overload = opt.serve_overload == "block"
                        ? resilience::OverloadPolicy::Block
                        : opt.serve_overload == "degrade"
                              ? resilience::OverloadPolicy::DegradeToRef
                              : resilience::OverloadPolicy::ShedNewest;
    serve::Server server(engine, scfg);
    if (opt.watchdog_grace > 0) {
      server.set_watchdog(opt.watchdog_grace,
                          from_ms(opt.watchdog_floor_ms));
    }

    net::NetConfig ncfg;
    ncfg.unix_path = opt.unix_path;
    ncfg.tcp = opt.tcp;
    ncfg.tcp_host = opt.host;
    ncfg.tcp_port = opt.port;
    ncfg.max_connections = opt.max_connections;
    ncfg.accept_overload = opt.accept_block
                               ? resilience::OverloadPolicy::Block
                               : resilience::OverloadPolicy::ShedNewest;
    ncfg.max_payload = opt.max_payload_mb << 20;
    ncfg.max_outstanding = opt.max_outstanding;
    ncfg.write_timeout = std::chrono::milliseconds(opt.write_timeout_ms);
    net::NetServer net(server, ncfg);
    net.start();

    if (!opt.unix_path.empty()) {
      std::printf("iatf_served: listening on unix:%s\n",
                  opt.unix_path.c_str());
    }
    if (opt.tcp) {
      std::printf("iatf_served: listening on tcp:%s:%u\n",
                  opt.host.c_str(), net.tcp_port());
    }
    std::fflush(stdout);

    // Park until a signal arrives.
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    for (;;) {
      const int rc = ::poll(&pfd, 1, -1);
      if (rc > 0 || (rc < 0 && errno != EINTR)) {
        break;
      }
    }

    std::printf("iatf_served: draining\n");
    std::fflush(stdout);
    net.drain();

    if (opt.print_stats) {
      const net::NetStats s = net.stats();
      std::printf("iatf_served: accepted=%llu closed=%llu frames_in=%llu "
                  "frames_out=%llu submits=%llu results=%llu "
                  "wire_errors=%llu shed_busy=%llu slow_closes=%llu\n",
                  (unsigned long long)s.accepted,
                  (unsigned long long)s.closed,
                  (unsigned long long)s.frames_in,
                  (unsigned long long)s.frames_out,
                  (unsigned long long)s.submits,
                  (unsigned long long)s.results,
                  (unsigned long long)s.wire_errors,
                  (unsigned long long)s.shed_busy,
                  (unsigned long long)s.slow_closes);
      const serve::ServerStats ss = server.stats();
      std::printf("iatf_served: dispatchers=%zu "
                  "peak_concurrent_dispatches=%zu dispatch_calls=%llu "
                  "completed=%llu\n",
                  ss.dispatchers, ss.peak_concurrent_dispatches,
                  (unsigned long long)ss.dispatch_calls,
                  (unsigned long long)ss.completed);
    }
    std::printf("iatf_served: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iatf_served: fatal: %s\n", e.what());
    return 1;
  }
}
