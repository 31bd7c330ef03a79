// Process-wide recycler of small heap blocks made on one thread and freed
// on another: the serve layer's request nodes, their promise states and
// its queue chunks. A submitter allocates each request and a dispatcher
// frees it, and a glibc free of another thread's block costs more than
// the request's whole submit. Here each thread keeps a magazine of up to
// kMagazine free blocks per size class; a full magazine goes to a small
// mutex-guarded depot, an empty one refills from it, so the lock is
// taken once per kMagazine blocks. The depot holds at most
// kDepotMagazines magazines per class, so retained memory is bounded;
// blocks past the cap go back to operator delete. A thread's magazines
// return to the depot when it exits. In an AddressSanitizer build a
// block is poisoned while the recycler holds it, so a use after free
// still trips ASan (DESIGN.md section 12.6).
#pragma once

#include <cstddef>
#include <new>

namespace iatf::recycler {

/// Blocks of up to kMaxBytes are recycled, in classes kGranule bytes
/// apart; larger requests go straight to operator new/delete.
inline constexpr std::size_t kGranule = 64;
inline constexpr std::size_t kClasses = 8;
inline constexpr std::size_t kMaxBytes = kGranule * kClasses;
/// Free blocks a thread keeps per class.
inline constexpr std::size_t kMagazine = 64;
/// Full magazines the depot keeps per class.
inline constexpr std::size_t kDepotMagazines = 8;

/// A block of at least `bytes`, aligned for any ordinary type.
void* allocate(std::size_t bytes);
/// Return a block from allocate(bytes); `bytes` must match.
void deallocate(void* p, std::size_t bytes) noexcept;
/// Blocks of `bytes`' size class the depot holds now (0 for sizes the
/// recycler does not keep).
std::size_t depot_blocks(std::size_t bytes) noexcept;

/// Standard allocator over the recycler; all instances are equal.
template <class T> struct Allocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "recycler blocks carry operator new's default alignment");
  using value_type = T;

  Allocator() noexcept = default;
  template <class U> Allocator(const Allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(recycler::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    recycler::deallocate(p, n * sizeof(T));
  }
  template <class U> bool operator==(const Allocator<U>&) const noexcept {
    return true;
  }
};

} // namespace iatf::recycler
