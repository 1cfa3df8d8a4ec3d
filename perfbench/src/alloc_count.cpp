// Counting global operator new/delete for the benchmark binary.
//
// Every variant funnels through malloc/free (aligned_alloc for over-aligned
// requests). While counting is enabled (traced runs only) each allocation
// bumps a thread-local counter and one process-wide relaxed counter, so a
// closed-loop client can count the allocations of its own calls exactly and
// an open-loop run can count every thread's.

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> all_threads{0};
thread_local std::uint64_t this_thread = 0;

void note() noexcept {
  if (counting.load(std::memory_order_relaxed)) {
    ++this_thread;
    all_threads.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) {
    throw std::bad_alloc{};
  }
  note();
  return ptr;
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded =
      ((size == 0 ? 1 : size) + alignment - 1) / alignment * alignment;
  void* ptr = std::aligned_alloc(alignment, rounded);
  if (ptr == nullptr) {
    throw std::bad_alloc{};
  }
  note();
  return ptr;
}

void* counted_alloc_nothrow(std::size_t size) noexcept {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr != nullptr) {
    note();
  }
  return ptr;
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool enabled) noexcept {
  counting.store(enabled, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() noexcept { return this_thread; }

std::uint64_t total_allocs() noexcept {
  return all_threads.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
