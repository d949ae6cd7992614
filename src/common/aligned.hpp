#pragma once

// Cache-line-aligned allocation for the packed compute kernels.
//
// The tiled GEMM in src/nn/gemm.cpp streams packed panels of A
// and B through SIMD loads; 64-byte alignment keeps every panel row on one
// cache line and lets the compiler emit aligned vector moves.  AlignedBuffer
// is a grow-only scratch: `ensure(n)` reallocates only when the requested
// count exceeds the current capacity and never shrinks, so a thread_local
// instance amortizes allocation to zero across repeated kernel calls (the
// persistent im2col scratch in src/nn/kernels.cpp relies on
// exactly this).

#include <cstddef>
#include <cstdlib>
#include <new>

namespace neurfill {

/// Allocates `bytes` rounded up to a multiple of `alignment` (which must be
/// a power of two) with std::aligned_alloc; throws std::bad_alloc on
/// failure.  Free with std::free.
inline void* aligned_malloc(std::size_t bytes, std::size_t alignment = 64) {
  if (bytes == 0) bytes = alignment;
  const std::size_t rounded = (bytes + alignment - 1) & ~(alignment - 1);
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Grow-only 64-byte-aligned scratch buffer for trivially-copyable element
/// types.  Contents are unspecified after a growing ensure(); the buffer is
/// intended for scratch that is fully overwritten by its producer.
template <typename T>
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { std::free(ptr_); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept
      : ptr_(other.ptr_), capacity_(other.capacity_) {
    other.ptr_ = nullptr;
    other.capacity_ = 0;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      std::free(ptr_);
      ptr_ = other.ptr_;
      capacity_ = other.capacity_;
      other.ptr_ = nullptr;
      other.capacity_ = 0;
    }
    return *this;
  }

  /// Returns a buffer of at least `count` elements, reusing the existing
  /// allocation when it is already big enough.
  T* ensure(std::size_t count) {
    if (count > capacity_) {
      // Grow by at least 1.5x so alternating sizes don't thrash realloc.
      std::size_t grown = capacity_ + capacity_ / 2;
      if (grown < count) grown = count;
      std::free(ptr_);
      ptr_ = static_cast<T*>(aligned_malloc(grown * sizeof(T)));
      capacity_ = grown;
    }
    return ptr_;
  }

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t capacity() const { return capacity_; }

 private:
  T* ptr_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace neurfill
