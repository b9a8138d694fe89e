#pragma once
/// \file aligned.h
/// \brief 64-byte-aligned, grow-only numeric buffers for hot-path kernels.
///
/// The sample kernels (direct FIR, matched filter, block quantizer) stream
/// megabytes of samples per packet. std::vector's allocator only guarantees
/// alignof(double); AlignedVec guarantees cache-line (64-byte) alignment so
/// vectorized loads never straddle lines, and its resize() never shrinks
/// capacity -- a workspace reused across packets reaches zero steady-state
/// allocations after the first.
///
/// Blocks of kMapBytes or more are mapped pages (mmap, page-aligned and so
/// cache-line aligned), returned to the kernel the moment they are
/// released. Through malloc they would not be: glibc raises its mmap
/// threshold to the largest block freed, after which every later capture
/// arena is carved from the heap and its pages are kept when it is freed
/// -- a gen-1 sweep, whose float capture is ~11.6 MB per packet, then holds
/// several times its live data. Smaller blocks use aligned operator new.
/// AddressSanitizer builds use operator new for every block, so the
/// sanitizer still tracks each byte.

#include <cstddef>
#include <cstring>
#include <utility>

#include "common/types.h"

namespace uwb::dsp {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Blocks of at least this many bytes are mapped pages (see the file
/// comment); smaller ones come from operator new.
inline constexpr std::size_t kMapBytes = std::size_t{1} << 20;

/// False under AddressSanitizer, which tracks operator new but not mmap.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kMapLargeBlocks = false;
#else
inline constexpr bool kMapLargeBlocks = true;
#endif

/// AlignedVec's storage: a 64-byte-aligned block of \p bytes, mapped pages
/// from kMapBytes up (when kMapLargeBlocks), aligned operator new below.
/// \throws std::bad_alloc when the system has no memory for it.
[[nodiscard]] void* allocate_aligned_block(std::size_t bytes);

/// Returns a block that allocate_aligned_block(\p bytes) gave.
void release_aligned_block(void* block, std::size_t bytes) noexcept;

/// Minimal owning buffer of trivially-copyable T with 64-byte alignment.
/// Grow-only: resize() reallocates only when the request exceeds capacity,
/// and never value-initializes on growth within capacity (callers of the
/// hot kernels always overwrite the full span they asked for). Whether a
/// block is mapped is a pure function of its capacity in bytes.
template <typename T>
class AlignedVec {
 public:
  AlignedVec() noexcept = default;
  explicit AlignedVec(std::size_t n) { resize(n); }

  AlignedVec(const AlignedVec&) = delete;
  AlignedVec& operator=(const AlignedVec&) = delete;

  AlignedVec(AlignedVec&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  AlignedVec& operator=(AlignedVec&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  ~AlignedVec() { release(); }

  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }

  /// Grow-only resize; contents are unspecified after growth (hot-path
  /// callers overwrite everything they read).
  void resize(std::size_t n) {
    if (n > capacity_) {
      T* fresh = static_cast<T*>(allocate_aligned_block(n * sizeof(T)));
      release();
      data_ = fresh;
      capacity_ = n;
    }
    size_ = n;
  }

  /// resize() followed by zero-fill.
  void assign_zero(std::size_t n) {
    resize(n);
    if (n > 0) std::memset(static_cast<void*>(data_), 0, n * sizeof(T));
  }

 private:
  void release() noexcept {
    if (data_ != nullptr) {
      release_aligned_block(data_, capacity_ * sizeof(T));
      data_ = nullptr;
    }
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Complex baseband as two grow-only real rails (structure of arrays): the
/// gen-2 sample pipeline runs every per-sample stage on i and q separately,
/// so each rail streams through the real vectorized kernels.
struct IqArena {
  AlignedVec<double> i;
  AlignedVec<double> q;

  [[nodiscard]] std::size_t size() const noexcept { return i.size(); }

  /// Grow-only resize of both rails (contents unspecified after growth).
  void resize(std::size_t n) {
    i.resize(n);
    q.resize(n);
  }

  /// resize() followed by zero-fill of both rails.
  void assign_zero(std::size_t n) {
    i.assign_zero(n);
    q.assign_zero(n);
  }

  /// Splits \p n interleaved complex samples into the rails.
  void load(const cplx* x, std::size_t n) {
    resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      i[k] = x[k].real();
      q[k] = x[k].imag();
    }
  }

  /// Interleaves the rails into \p out (resized to size()).
  void store(CplxVec& out) const {
    out.resize(size());
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = {i[k], q[k]};
  }
};

}  // namespace uwb::dsp
