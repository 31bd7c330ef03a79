// C shim over iatf::serve::Server. The handle owns a Server bound to the
// default engine plus a ticket table mapping uint64 tickets to the
// futures of outstanding submissions; wait() retires a ticket, poll()
// peeks. Ticket operations take a handle-local mutex that is never held
// across a blocking wait, so poll/submit/stats stay responsive while
// another thread waits.
#include "iatf/capi/iatf.h"

#include "capi_buffers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "iatf/common/error.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

namespace {

static_assert(IATF_STATUS_CANCELLED ==
              static_cast<int>(iatf::Status::Cancelled));
static_assert(IATF_STATUS_WATCHDOG ==
              static_cast<int>(iatf::Status::Watchdog));

int status_of_exception() {
  return static_cast<int>(iatf::status_of(std::current_exception()));
}

/// The server's overload policy from C, or nullopt when out of range.
std::optional<iatf::resilience::OverloadPolicy>
overload_of(const iatf_overload_policy& policy) {
  return iatf::capi::enum_in_range<iatf::resilience::OverloadPolicy>(
      policy, IATF_OVERLOAD_DEGRADE);
}

} // namespace

struct iatf_server {
  struct Ticket {
    std::future<iatf::BatchHealth> fut;
    iatf::serve::CancelToken cancel; ///< null for already-resolved tickets
  };

  iatf::serve::Server server;
  std::mutex tickets_mu;
  std::unordered_map<uint64_t, Ticket> tickets;
  uint64_t next_ticket = 1;

  explicit iatf_server(iatf::serve::ServeConfig config)
      : server(iatf::Engine::default_engine(), config) {}

  uint64_t issue(std::future<iatf::BatchHealth> fut,
                 iatf::serve::CancelToken cancel) {
    std::lock_guard<std::mutex> lk(tickets_mu);
    const uint64_t ticket = next_ticket++;
    tickets.emplace(ticket, Ticket{std::move(fut), std::move(cancel)});
    return ticket;
  }
};

extern "C" iatf_server* iatf_server_create(const iatf_serve_config* config) {
  return iatf_server_create_with_dispatchers(config, 0);
}

extern "C" iatf_server*
iatf_server_create_with_dispatchers(const iatf_serve_config* config,
                                    int64_t dispatchers) {
  try {
    iatf::serve::ServeConfig cfg;
    if (config != nullptr) {
      if (config->queue_capacity > 0) {
        cfg.queue_capacity =
            static_cast<std::size_t>(config->queue_capacity);
      }
      cfg.per_tenant_quota =
          config->per_tenant_quota > 0
              ? static_cast<std::size_t>(config->per_tenant_quota)
              : 0;
      if (config->max_coalesce > 0) {
        cfg.max_coalesce = static_cast<std::size_t>(config->max_coalesce);
      }
      const auto overload = overload_of(config->overload);
      if (!overload) {
        return nullptr;
      }
      cfg.overload = *overload;
      cfg.default_deadline =
          iatf::capi::ms_to_ns(config->default_deadline_ms);
    }
    // 0 selects the server's default.
    cfg.dispatchers = static_cast<std::size_t>(std::clamp<int64_t>(
        dispatchers, 0,
        static_cast<int64_t>(iatf::serve::Server::kMaxDispatchers)));
    return new iatf_server(cfg);
  } catch (...) {
    return nullptr;
  }
}

extern "C" void iatf_server_destroy(iatf_server* server) {
  delete server; // ~Server stops and joins; unresolved tickets discarded
}

extern "C" int iatf_server_set_tenant_weight(iatf_server* server,
                                             uint32_t tenant,
                                             uint32_t weight) {
  if (server == nullptr || weight == 0) {
    return IATF_STATUS_INVALID_ARG;
  }
  server->server.set_tenant_weight(tenant, weight);
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_set_overload_policy(iatf_server* server,
                                               iatf_overload_policy policy) {
  const auto overload = overload_of(policy);
  if (server == nullptr || !overload) {
    return IATF_STATUS_INVALID_ARG;
  }
  server->server.set_overload_policy(*overload);
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_set_watchdog(iatf_server* server, double grace,
                                        double floor_ms) {
  if (server == nullptr || !std::isfinite(grace) || grace < 0) {
    return IATF_STATUS_INVALID_ARG;
  }
  // floor_ms <= 0 keeps the server's current floor (set_watchdog treats
  // a zero floor as "leave unchanged").
  server->server.set_watchdog(grace, iatf::capi::ms_to_ns(floor_ms));
  return IATF_STATUS_OK;
}

namespace {

/// Shared tail of every submit shim: run the submission (which may
/// resolve inline -- shed, refused, degraded), surface an
/// already-failed future as a status code without issuing a ticket, and
/// otherwise register it in the ticket table.
int finish_submit(iatf_server* server,
                  std::future<iatf::BatchHealth> fut,
                  iatf::serve::CancelToken cancel, uint64_t* ticket) {
  using namespace std::chrono_literals;
  if (fut.wait_for(0s) == std::future_status::ready) {
    try {
      // Resolved at submit time with a value: DegradeToRef ran it
      // inline. Issue an already-ready ticket so wait/poll still work
      // (no cancel token: there is nothing left to cancel).
      const iatf::BatchHealth health = fut.get();
      std::promise<iatf::BatchHealth> done;
      done.set_value(health);
      *ticket = server->issue(done.get_future(), nullptr);
      return IATF_STATUS_OK;
    } catch (...) {
      return status_of_exception(); // shed/refused: no ticket
    }
  }
  *ticket = server->issue(std::move(fut), std::move(cancel));
  return IATF_STATUS_OK;
}

/// The one submit pattern: null-check the handles and operands, then run
/// `submit(opts)` with the caller's tenant, deadline and a fresh cancel
/// token; enum conversion inside `submit` throws InvalidArg.
template <class Submit>
int submit_shim(iatf_server* server, bool operands_ok, uint32_t tenant,
                double deadline_ms, uint64_t* ticket, Submit&& submit) {
  if (!operands_ok || server == nullptr || ticket == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  try {
    iatf::serve::SubmitOptions opts;
    opts.tenant = tenant;
    opts.deadline = iatf::capi::ms_to_ns(deadline_ms);
    opts.cancel = iatf::serve::make_cancel_token();
    return finish_submit(server, submit(opts), opts.cancel, ticket);
  } catch (...) {
    return status_of_exception();
  }
}

template <class T, class Buf>
int submit_gemm(iatf_server* server, const iatf_op& op_a, const iatf_op& op_b,
                T alpha, const Buf* a, const Buf* b, T beta, Buf* c,
                uint32_t tenant, double deadline_ms, uint64_t* ticket) {
  return submit_shim(
      server, a != nullptr && b != nullptr && c != nullptr, tenant,
      deadline_ms, ticket, [&](const iatf::serve::SubmitOptions& opts) {
        return server->server.submit_gemm<T>(
            iatf::capi::to_op(op_a), iatf::capi::to_op(op_b), alpha, a->buf,
            b->buf, beta, c->buf, opts);
      });
}

template <class T, class Buf>
int submit_trsm(iatf_server* server, const iatf_side& side,
                const iatf_uplo& uplo, const iatf_op& op_a,
                const iatf_diag& diag, T alpha, const Buf* a, Buf* b,
                uint32_t tenant, double deadline_ms, uint64_t* ticket) {
  return submit_shim(
      server, a != nullptr && b != nullptr, tenant, deadline_ms, ticket,
      [&](const iatf::serve::SubmitOptions& opts) {
        return server->server.submit_trsm<T>(
            iatf::capi::to_side(side), iatf::capi::to_uplo(uplo),
            iatf::capi::to_op(op_a), iatf::capi::to_diag(diag), alpha,
            a->buf, b->buf, opts);
      });
}

} // namespace

#define IATF_DEFINE_SUBMIT(P, BUF, T)                                         \
  extern "C" int iatf_server_submit_##P##gemm(                                \
      iatf_server* server, iatf_op op_a, iatf_op op_b, T alpha, const BUF* a, \
      const BUF* b, T beta, BUF* c, uint32_t tenant, double deadline_ms,      \
      uint64_t* ticket) {                                                     \
    return submit_gemm(server, op_a, op_b, alpha, a, b, beta, c, tenant,      \
                       deadline_ms, ticket);                                  \
  }                                                                           \
  extern "C" int iatf_server_submit_##P##trsm(                                \
      iatf_server* server, iatf_side side, iatf_uplo uplo, iatf_op op_a,      \
      iatf_diag diag, T alpha, const BUF* a, BUF* b, uint32_t tenant,         \
      double deadline_ms, uint64_t* ticket) {                                 \
    return submit_trsm(server, side, uplo, op_a, diag, alpha, a, b, tenant,   \
                       deadline_ms, ticket);                                  \
  }

IATF_DEFINE_SUBMIT(s, iatf_sbuf, float)
IATF_DEFINE_SUBMIT(d, iatf_dbuf, double)
#undef IATF_DEFINE_SUBMIT

extern "C" int iatf_server_poll(iatf_server* server, uint64_t ticket,
                                int* status) {
  using namespace std::chrono_literals;
  if (server == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  std::lock_guard<std::mutex> lk(server->tickets_mu);
  const auto it = server->tickets.find(ticket);
  if (it == server->tickets.end()) {
    return IATF_STATUS_INVALID_ARG;
  }
  if (it->second.fut.wait_for(0s) != std::future_status::ready) {
    return 0;
  }
  if (status != nullptr) {
    // get() consumes the shared state; re-materialise an equivalent
    // ready future so the ticket stays waitable per the contract.
    std::promise<iatf::BatchHealth> again;
    int rc = IATF_STATUS_OK;
    try {
      const iatf::BatchHealth health = it->second.fut.get();
      again.set_value(health);
    } catch (...) {
      rc = status_of_exception();
      again.set_exception(std::current_exception());
    }
    it->second.fut = again.get_future();
    *status = rc;
  }
  return 1;
}

extern "C" int iatf_server_cancel(iatf_server* server, uint64_t ticket) {
  if (server == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  std::lock_guard<std::mutex> lk(server->tickets_mu);
  const auto it = server->tickets.find(ticket);
  if (it == server->tickets.end()) {
    return IATF_STATUS_INVALID_ARG;
  }
  // Advisory: flags the submission's cancel token. If the request is
  // still queued the dispatcher resolves it with IATF_STATUS_CANCELLED
  // at dequeue; if it is already dispatched (or done) it completes
  // normally. Either way the ticket stays waitable.
  iatf::serve::cancel(it->second.cancel);
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_wait(iatf_server* server, uint64_t ticket) {
  if (server == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  std::future<iatf::BatchHealth> fut;
  {
    std::lock_guard<std::mutex> lk(server->tickets_mu);
    const auto it = server->tickets.find(ticket);
    if (it == server->tickets.end()) {
      return IATF_STATUS_INVALID_ARG;
    }
    fut = std::move(it->second.fut);
    server->tickets.erase(it);
  }
  try {
    (void)fut.get();
    return IATF_STATUS_OK;
  } catch (...) {
    return status_of_exception();
  }
}

extern "C" int iatf_server_drain(iatf_server* server) {
  if (server == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  server->server.drain();
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_stop(iatf_server* server) {
  if (server == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  server->server.stop();
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_get_stats(iatf_server* server,
                                     iatf_server_stats* stats) {
  if (server == nullptr || stats == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  const iatf::serve::ServerStats s = server->server.stats();
  stats->queued = static_cast<int64_t>(s.queued);
  stats->queue_capacity = static_cast<int64_t>(s.queue_capacity);
  stats->inflight = static_cast<int64_t>(s.inflight);
  stats->submitted = static_cast<int64_t>(s.submitted);
  stats->completed = static_cast<int64_t>(s.completed);
  stats->dispatch_calls = static_cast<int64_t>(s.dispatch_calls);
  stats->coalesced_requests = static_cast<int64_t>(s.coalesced_requests);
  static_assert(iatf::serve::ServerStats::kCoalesceBuckets == 5);
  for (std::size_t i = 0; i < iatf::serve::ServerStats::kCoalesceBuckets;
       ++i) {
    stats->coalesce_hist[i] = static_cast<int64_t>(s.coalesce_hist[i]);
  }
  stats->shed_expired = static_cast<int64_t>(s.shed_expired);
  stats->shed_overflow = static_cast<int64_t>(s.shed_overflow);
  stats->cancelled = static_cast<int64_t>(s.cancelled);
  stats->degraded_inline = static_cast<int64_t>(s.degraded_inline);
  stats->watchdog_kicks = static_cast<int64_t>(s.watchdog_kicks);
  stats->heartbeats = static_cast<int64_t>(s.heartbeats);
  return IATF_STATUS_OK;
}

extern "C" int iatf_server_get_dispatchers(
    iatf_server* server, int64_t* dispatchers,
    int64_t* peak_concurrent_dispatches) {
  if (server == nullptr || dispatchers == nullptr ||
      peak_concurrent_dispatches == nullptr) {
    return IATF_STATUS_INVALID_ARG;
  }
  const iatf::serve::ServerStats s = server->server.stats();
  *dispatchers = static_cast<int64_t>(s.dispatchers);
  *peak_concurrent_dispatches =
      static_cast<int64_t>(s.peak_concurrent_dispatches);
  return IATF_STATUS_OK;
}

extern "C" int64_t iatf_server_tenant_served(iatf_server* server,
                                             uint32_t tenant) {
  if (server == nullptr) {
    return -1;
  }
  const iatf::serve::ServerStats s = server->server.stats();
  for (const iatf::serve::TenantStats& t : s.tenants) {
    if (t.tenant == tenant) {
      return static_cast<int64_t>(t.served);
    }
  }
  return 0;
}
