#include "dsp/aligned.h"

#include <new>

#include <sys/mman.h>

namespace uwb::dsp {

namespace {

bool mapped(std::size_t bytes) noexcept { return kMapLargeBlocks && bytes >= kMapBytes; }

}  // namespace

void* allocate_aligned_block(std::size_t bytes) {
  if (mapped(bytes)) {
    void* block = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                         -1, 0);
    if (block == MAP_FAILED) throw std::bad_alloc();
    return block;
  }
  return ::operator new(bytes, std::align_val_t{kCacheLineBytes});
}

void release_aligned_block(void* block, std::size_t bytes) noexcept {
  if (mapped(bytes)) {
    ::munmap(block, bytes);
  } else {
    ::operator delete(block, std::align_val_t{kCacheLineBytes});
  }
}

}  // namespace uwb::dsp
