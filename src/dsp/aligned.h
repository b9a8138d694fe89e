#pragma once
/// \file aligned.h
/// \brief 64-byte-aligned, grow-only numeric buffers for hot-path kernels.
///
/// The sample kernels (direct FIR, matched filter, block quantizer) stream
/// megabytes of doubles per packet. std::vector's allocator only guarantees
/// alignof(double); AlignedVec guarantees cache-line (64-byte) alignment so
/// vectorized loads never straddle lines, and its resize() never shrinks
/// capacity -- a workspace reused across packets reaches zero steady-state
/// allocations after the first.

#include <cstddef>
#include <cstring>
#include <new>
#include <utility>

#include "common/types.h"

namespace uwb::dsp {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal owning buffer of trivially-copyable T with 64-byte alignment.
/// Grow-only: resize() reallocates only when the request exceeds capacity,
/// and never value-initializes on growth within capacity (callers of the
/// hot kernels always overwrite the full span they asked for).
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
      T* fresh = static_cast<T*>(
          ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
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
      ::operator delete(static_cast<void*>(data_), std::align_val_t{kCacheLineBytes});
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
