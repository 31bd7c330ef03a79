// Lifetimes of recycled request storage (DESIGN.md section 12.6): the
// block recycler is process-wide because a caller's future may outlive
// its server, exiting threads hand their cached blocks back, the depot
// keeps at most its cap, and under AddressSanitizer a held block is
// poisoned.
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../testutil.hpp"
#include "iatf/common/error.hpp"
#include "iatf/common/recycler.hpp"
#include "iatf/core/engine.hpp"
#include "iatf/serve/server.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define IATF_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IATF_TEST_ASAN 1
#endif
#endif
#ifdef IATF_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace iatf::serve {
namespace {

/// d 4x4x4 operands; each request writes its own output.
struct Gemm4 {
  CompactBuffer<double> a, b;
  std::vector<CompactBuffer<double>> outs;

  explicit Gemm4(int requests) {
    Rng rng(31);
    const index_t batch = simd::pack_width_v<double>;
    a = test::random_batch<double>(4, 4, batch, rng).to_compact();
    b = test::random_batch<double>(4, 4, batch, rng).to_compact();
    for (int i = 0; i < requests; ++i) {
      outs.push_back(test::random_batch<double>(4, 4, batch, rng)
                         .to_compact());
    }
  }

  std::future<BatchHealth> submit(Server& server, int i) {
    return server.submit_gemm<double>(Op::NoTrans, Op::NoTrans, 1.0, a, b,
                                      0.0,
                                      outs[static_cast<std::size_t>(i)]);
  }
};

TEST(RecyclerLifetime, FutureOutlivesItsServer) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  Gemm4 ops(2);
  std::future<BatchHealth> served;
  std::future<BatchHealth> cancelled;
  {
    Server server(engine);
    served = ops.submit(server, 0);
    served.wait();
    server.pause();
    cancelled = ops.submit(server, 1);
    server.stop();
  } // the promises' shared states now live only in the futures
  EXPECT_EQ(engine.attached_servers(), 0u);
  EXPECT_NO_THROW((void)served.get());
  EXPECT_THROW((void)cancelled.get(), CancelledError);
  served = {};
  cancelled = {};
}

TEST(RecyclerLifetime, ServersComeAndGoAcrossThreads) {
  Engine engine(CacheInfo::kunpeng920());
  engine.set_kernel_verification(false);
  constexpr int kThreads = 3;
  constexpr int kRounds = 6;
  constexpr int kRequests = 32;
  std::vector<std::thread> threads;
  std::atomic<int> resolved{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Gemm4 ops(kRequests);
      for (int round = 0; round < kRounds; ++round) {
        ServeConfig config;
        config.dispatchers = 8;
        Server server(engine, config);
        // Queue a backlog first, so followers start and free requests
        // into caches of their own that go back when they exit.
        server.pause();
        std::vector<std::future<BatchHealth>> futs;
        for (int i = 0; i < kRequests; ++i) {
          futs.push_back(ops.submit(server, i));
        }
        server.resume();
        for (auto& f : futs) {
          (void)f.get();
          resolved.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(resolved.load(), kThreads * kRounds * kRequests);
  EXPECT_EQ(engine.attached_servers(), 0u);
}

// A size class between the request nodes and the 512-byte queue chunks
// of the servers above, so only these tests move its blocks.
constexpr std::size_t kBytes = 400;

/// Take every block of kBytes' class out of the depot (into this
/// thread's hands), so the depot starts empty.
std::vector<void*> drain_depot() {
  std::vector<void*> held;
  while (recycler::depot_blocks(kBytes) != 0) {
    held.push_back(recycler::allocate(kBytes));
  }
  return held;
}

TEST(RecyclerLifetime, ExitingThreadHandsItsCacheBack) {
  const std::vector<void*> held = drain_depot();
  constexpr std::size_t kBlocks = 10;
  std::thread([] {
    void* blocks[kBlocks];
    for (void*& p : blocks) {
      p = recycler::allocate(kBytes);
    }
    for (void* p : blocks) {
      recycler::deallocate(p, kBytes); // into this thread's magazine
    }
  }).join();
  EXPECT_EQ(recycler::depot_blocks(kBytes), kBlocks);
  for (void* p : held) {
    recycler::deallocate(p, kBytes);
  }
}

TEST(RecyclerLifetime, DepotKeepsAtMostItsCap) {
  const std::vector<void*> held = drain_depot();
  constexpr std::size_t kCap = recycler::kDepotMagazines * recycler::kMagazine;
  std::thread([] {
    std::vector<void*> blocks(kCap + 3 * recycler::kMagazine);
    for (void*& p : blocks) {
      p = recycler::allocate(kBytes);
    }
    for (void* p : blocks) {
      recycler::deallocate(p, kBytes); // past the cap: operator delete
    }
  }).join();
  EXPECT_EQ(recycler::depot_blocks(kBytes), kCap);
  for (void* p : held) {
    recycler::deallocate(p, kBytes);
  }
}

#ifdef IATF_TEST_ASAN
TEST(RecyclerLifetime, HeldBlockIsPoisoned) {
  constexpr std::size_t kAsked = 100;
  void* const p = recycler::allocate(kAsked);
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  recycler::deallocate(p, kAsked);
  EXPECT_TRUE(__asan_address_is_poisoned(p)); // a use after free trips
  void* const q = recycler::allocate(kAsked);
  EXPECT_EQ(q, p); // the most recently freed block comes back first
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  // The class slack past the bytes asked for stays poisoned.
  EXPECT_TRUE(__asan_address_is_poisoned(static_cast<char*>(q) + kAsked));
  recycler::deallocate(q, kAsked);
}
#endif

} // namespace
} // namespace iatf::serve
