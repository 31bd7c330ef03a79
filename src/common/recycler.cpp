#include "iatf/common/recycler.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#if defined(__SANITIZE_ADDRESS__)
#define IATF_RECYCLER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IATF_RECYCLER_ASAN 1
#endif
#endif
#ifdef IATF_RECYCLER_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace iatf::recycler {

namespace {

constexpr std::size_t kDepotCap = kDepotMagazines * kMagazine;

constexpr std::size_t class_of(std::size_t bytes) noexcept {
  return bytes == 0 ? 0 : (bytes - 1) / kGranule;
}
constexpr std::size_t class_bytes(std::size_t c) noexcept {
  return (c + 1) * kGranule;
}

// A held block is poisoned whole; a handed-out one is addressable for
// the bytes asked for only, so an overrun into the class slack trips too.
void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef IATF_RECYCLER_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}
void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef IATF_RECYCLER_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

void release(void* p, std::size_t c) noexcept {
  unpoison(p, class_bytes(c));
  ::operator delete(p, class_bytes(c));
}

/// Free blocks of one class, most recently freed last.
struct Magazine {
  std::size_t count = 0;
  void* blocks[kMagazine] = {};
};

/// The shared store between threads. Constant-initialised and trivially
/// destructible, so it outlives every thread's cache at exit.
struct Depot {
  std::mutex mu;
  std::size_t count = 0;
  void* blocks[kDepotCap] = {};
};
constinit Depot g_depots[kClasses];

/// Move `n` blocks into class `c`'s depot; those past its cap are
/// deleted.
void give_back(std::size_t c, void* const* blocks, std::size_t n) noexcept {
  Depot& d = g_depots[c];
  std::size_t kept = 0;
  {
    std::lock_guard<std::mutex> lk(d.mu);
    kept = std::min(n, kDepotCap - d.count);
    std::memcpy(d.blocks + d.count, blocks, kept * sizeof(void*));
    d.count += kept;
  }
  for (std::size_t i = kept; i < n; ++i) {
    release(blocks[i], c);
  }
}

/// Refill an empty magazine with up to kMagazine of the depot's blocks.
bool take(std::size_t c, Magazine& m) noexcept {
  Depot& d = g_depots[c];
  std::lock_guard<std::mutex> lk(d.mu);
  const std::size_t n = std::min(d.count, kMagazine);
  d.count -= n;
  std::memcpy(m.blocks, d.blocks + d.count, n * sizeof(void*));
  m.count = n;
  return n != 0;
}

/// One thread's magazines; handed back to the depot at thread exit.
struct ThreadCache {
  Magazine mags[kClasses];
  bool exited = false;

  ~ThreadCache() {
    for (std::size_t c = 0; c < kClasses; ++c) {
      give_back(c, mags[c].blocks, mags[c].count);
      mags[c].count = 0;
    }
    exited = true;
  }
};
thread_local ThreadCache t_cache;

} // namespace

void* allocate(std::size_t bytes) {
  if (bytes > kMaxBytes) {
    return ::operator new(bytes);
  }
  const std::size_t c = class_of(bytes);
  ThreadCache& tc = t_cache;
  Magazine& m = tc.mags[c];
  if (m.count == 0 && (tc.exited || !take(c, m))) {
    return ::operator new(class_bytes(c));
  }
  void* const p = m.blocks[--m.count];
  unpoison(p, std::max<std::size_t>(bytes, 1));
  return p;
}

void deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) {
    return;
  }
  if (bytes > kMaxBytes) {
    ::operator delete(p, bytes);
    return;
  }
  const std::size_t c = class_of(bytes);
  poison(p, class_bytes(c));
  ThreadCache& tc = t_cache;
  if (tc.exited) {
    // Freed by another thread-exit destructor after this cache's own.
    give_back(c, &p, 1);
    return;
  }
  Magazine& m = tc.mags[c];
  if (m.count == kMagazine) {
    give_back(c, m.blocks, kMagazine);
    m.count = 0;
  }
  m.blocks[m.count++] = p;
}

std::size_t depot_blocks(std::size_t bytes) noexcept {
  if (bytes > kMaxBytes) {
    return 0;
  }
  Depot& d = g_depots[class_of(bytes)];
  std::lock_guard<std::mutex> lk(d.mu);
  return d.count;
}

} // namespace iatf::recycler
