// Counting global operator new/delete replacement.
//
// NOT a member of horse_util: only targets that assert allocation
// behaviour (tests/core/p2sm_alloc_test.cpp, bench/fig3_resume_time)
// compile this TU into their own sources, which replaces the global
// operators binary-wide for that target. Every variant funnels through
// malloc/free (aligned_alloc for over-aligned requests) and bumps the
// thread-local counters in util/alloc_counter.
//
// ASan/TSan interpose malloc themselves; these replacements still layer
// correctly on top (they call the sanitizer's malloc), but the alloc test
// targets are only built for the non-sanitizer presets to keep the
// counters meaning exactly one thing.

#include <cstdlib>
#include <new>

#include "util/alloc_counter.hpp"

namespace {

void* counted_alloc(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  void* ptr = std::malloc(size);
  if (ptr == nullptr) {
    throw std::bad_alloc{};
  }
  horse::util::note_alloc();
  return ptr;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  if (size == 0) {
    size = 1;
  }
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) {
    throw std::bad_alloc{};
  }
  horse::util::note_alloc();
  return ptr;
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) {
    return;
  }
  horse::util::note_free();
  std::free(ptr);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
