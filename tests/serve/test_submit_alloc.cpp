// A warmed-up submit allocates nothing on the submitting thread: the
// request node, its promise's shared state and result, and the queue
// chunk it lands in all come from the block recycler (DESIGN.md section
// 12.6). This binary replaces the global operator new to count calls per
// thread, so it is a test binary of its own.
#include <array>
#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

namespace {
thread_local std::size_t t_news = 0;
} // namespace

void* operator new(std::size_t bytes) {
  ++t_news;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace iatf::serve {
namespace {

TEST(ServeSubmitAlloc, WarmSubmitAllocatesNothing) {
  // Warm-up: a burst queued behind a paused server puts more request
  // nodes, promise states and queue chunks into circulation than the
  // measured window ever needs at once (its own requests, the ones a
  // dispatcher has yet to free, and a dispatcher's partly filled
  // magazine of each), so no measured submit finds the recycler empty.
  // kBurst fills 68 queue chunks of 64 requests.
  constexpr std::size_t kBurst = 68 * 64;
  constexpr std::size_t kWindow = 16; // requests in flight when measuring
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  ServeConfig config;
  config.dispatchers = 1; // no follower thread can start mid-measurement
  config.queue_capacity = kBurst;
  Server server(engine, config);

  // Every request writes its own output.
  Rng rng(23);
  const index_t batch = simd::pack_width_v<double>;
  const CompactBuffer<double> a =
      test::random_batch<double>(4, 4, batch, rng).to_compact();
  const CompactBuffer<double> b =
      test::random_batch<double>(4, 4, batch, rng).to_compact();
  std::vector<CompactBuffer<double>> outs;
  for (std::size_t i = 0; i < kBurst; ++i) {
    outs.push_back(test::random_batch<double>(4, 4, batch, rng).to_compact());
  }
  std::atomic<std::size_t> called{0};
  const auto submit = [&](std::size_t i) {
    return server.submit_gemm<double>(
        Op::NoTrans, Op::NoTrans, 1.0, a, b, 0.0, outs[i], {},
        [&called](Status, const BatchHealth&) {
          called.fetch_add(1, std::memory_order_relaxed);
        });
  };

  std::vector<std::future<BatchHealth>> burst;
  burst.reserve(kBurst);
  server.pause();
  for (std::size_t i = 0; i < kBurst; ++i) {
    burst.push_back(submit(i));
  }
  server.resume();
  for (auto& f : burst) {
    (void)f.get();
  }
  burst.clear();

  std::array<std::future<BatchHealth>, kWindow> futs;
  const auto run = [&](std::size_t windows) {
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t i = 0; i < kWindow; ++i) {
        futs[i] = submit(i);
      }
      for (auto& f : futs) {
        (void)f.get();
      }
    }
  };
  run(64);
  const std::size_t before = t_news;
  run(256);
  EXPECT_EQ(t_news - before, 0u)
      << "operator new calls in " << 256 * kWindow << " warm submits";
  EXPECT_EQ(called.load(), kBurst + 320 * kWindow);
}

} // namespace
} // namespace iatf::serve
