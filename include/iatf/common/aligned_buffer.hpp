// Cache-line aligned, RAII-owned flat buffer used for compact-layout
// storage and packed panels. SIMD loads in the micro-kernels assume at
// least 16-byte alignment; we align to 64 bytes so buffers also start on a
// cache-line boundary (the packing kernels stream whole lines).
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "iatf/common/error.hpp"
#include "iatf/common/fault_inject.hpp"

namespace iatf {

inline constexpr std::size_t kBufferAlignment = 64;

template <class T> class AlignedBuffer {
public:
  AlignedBuffer() = default;

  explicit AlignedBuffer(std::size_t count) { resize(count); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  /// Reallocate to hold `count` value-initialised elements.
  void resize(std::size_t count) {
    allocate(count);
    for (std::size_t i = 0; i < count; ++i) {
      new (data_ + i) T{};
    }
  }

  /// Reallocate to hold `count` elements left uninitialised, for a
  /// caller that writes every element before it reads one.
  void resize_for_overwrite(std::size_t count) {
    static_assert(std::is_trivially_default_constructible_v<T> &&
                  std::is_trivially_destructible_v<T>);
    allocate(count);
  }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  std::span<T> span() noexcept { return {data_, size_}; }
  std::span<const T> span() const noexcept { return {data_, size_}; }

private:
  static std::size_t round_up(std::size_t v, std::size_t a) noexcept {
    return (v + a - 1) / a * a;
  }

  void allocate(std::size_t count) {
    release();
    if (count == 0) {
      return;
    }
    IATF_FAULT_POINT("alloc", ::iatf::Status::AllocFailure);
    const std::size_t bytes =
        round_up(count * sizeof(T), kBufferAlignment);
    void* p = std::aligned_alloc(kBufferAlignment, bytes);
    if (p == nullptr) {
      throw std::bad_alloc{};
    }
    data_ = static_cast<T*>(p);
    size_ = count;
  }

  void release() noexcept {
    if (data_ != nullptr) {
      for (std::size_t i = 0; i < size_; ++i) {
        data_[i].~T();
      }
      std::free(data_);
      data_ = nullptr;
      size_ = 0;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

} // namespace iatf
